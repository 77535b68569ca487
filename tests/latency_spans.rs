//! Lifecycle-span attribution: conservation, inertness, and stepping-mode
//! identity.
//!
//! Three pins on the latency subsystem:
//!
//! 1. **Conservation** — every accepted log reaches exactly one terminal
//!    (verdict or abandonment), and each record's stage spans sum to its
//!    end-to-end span. Checked on a benign call-dense kernel and on faulted
//!    transports under both fail policies.
//! 2. **Inertness** — attaching the latency probe must not perturb the
//!    simulation: the report fingerprint is identical with and without it.
//! 3. **Stepping-mode identity** — the recorded metrics are a function of
//!    architectural time only, so the serialized spans are byte-identical
//!    across strict stepping, predecoded per-cycle stepping and block
//!    dispatch, which an observed run keeps — on one host and on two.

mod common;

use common::{kernel_config, run_kernel, RUN_BUDGET};
use titancfi::{FailPolicy, ResilienceConfig};
use titancfi_faults::{FaultClass, FaultConfig};
use titancfi_obs::LatencySpans;
use titancfi_soc::{DualHostSoc, SocConfig, SystemOnChip};
use titancfi_workloads::kernels::KERNEL_MEM;

/// A SoC running a named kernel with the latency probe attached.
fn observed_soc(name: &str, config: SocConfig) -> SystemOnChip {
    let prog = common::kernel_program(name);
    let mut soc = SystemOnChip::new(&prog, config);
    soc.attach_latency();
    soc
}

/// Runs a named kernel with the latency probe attached and returns the
/// spans next to the report fingerprint.
fn run_with_spans(name: &str, config: SocConfig) -> (LatencySpans, String) {
    finish_observed(observed_soc(name, config))
}

/// Runs an observed SoC to completion: its spans and report fingerprint.
fn finish_observed(mut soc: SystemOnChip) -> (LatencySpans, String) {
    let report = soc.run(RUN_BUDGET);
    let fp = format!("{:?}", common::report_fingerprint(&report));
    let spans = soc
        .take_latency()
        .expect("latency collector attached")
        .spans;
    (spans, fp)
}

#[test]
fn benign_run_conserves_every_log() {
    let (spans, _) = run_with_spans("dhry-calls", kernel_config());
    assert!(spans.checked_ok > 0, "call-dense kernel produces logs");
    assert_eq!(spans.violations, 0);
    assert_eq!(spans.dropped, 0);
    assert_eq!(spans.forced, 0);
    assert_eq!(spans.in_flight(), 0, "no log may be stranded at halt");
    assert!(
        spans.conservation_ok(),
        "accepts must equal terminals with zero span mismatches"
    );
    // Stage histograms carry exactly the terminated logs.
    assert_eq!(spans.end_to_end.count, spans.checked_ok);
    for (stage, h) in spans.stages() {
        assert!(h.count > 0, "stage `{stage}` must be populated");
    }
}

#[test]
fn faulted_transports_conserve_under_both_fail_policies() {
    // Fail-closed: every dropped doorbell becomes a forced violation after
    // the watchdog, so the abandonment terminal carries the loss.
    let mut closed = kernel_config();
    closed.faults = Some(FaultConfig::only(FaultClass::DoorbellDrop, 1, 0xD00B));
    closed.resilience = ResilienceConfig {
        watchdog_timeout: 200,
        max_attempts: 2,
        backoff: 16,
        policy: FailPolicy::FailClosed,
    };
    let (spans, _) = run_with_spans("dhry-calls", closed);
    assert!(spans.forced > 0, "fail-closed wedge forces violations");
    assert!(
        spans.detection.count > 0,
        "forced violations must land in the detection histogram"
    );
    assert!(spans.conservation_ok(), "fail-closed run conserves");

    // Fail-open: the same wedge sheds the logs instead.
    let mut open = kernel_config();
    open.faults = Some(FaultConfig::only(FaultClass::DoorbellDrop, 1, 0xD00B));
    open.resilience = ResilienceConfig {
        watchdog_timeout: 200,
        max_attempts: 2,
        backoff: 16,
        policy: FailPolicy::FailOpen,
    };
    let (spans, _) = run_with_spans("dhry-calls", open);
    assert!(spans.dropped > 0, "fail-open wedge sheds logs");
    assert_eq!(spans.forced, 0, "fail-open never forces a violation");
    assert!(spans.conservation_ok(), "fail-open run conserves");
}

#[test]
fn latency_probe_is_inert_on_the_simulation() {
    // Plain run, no probe.
    let baseline = run_kernel("dhry-calls", kernel_config());
    let plain = format!("{:?}", common::report_fingerprint(&baseline));
    // Same program, probe attached.
    let (_, probed) = run_with_spans("dhry-calls", kernel_config());
    assert_eq!(
        plain, probed,
        "attaching the latency probe must not move a single report field"
    );
}

#[test]
fn spans_are_byte_identical_across_stepping_modes() {
    // Strict stepping, the predecoded per-cycle path (the one recorder,
    // fault and violation-policy runs still take), and block dispatch.
    let modes = [
        ("strict", false, false),
        ("per-cycle", true, false),
        ("block", true, true),
    ];
    let mut runs = Vec::new();
    for (label, fast_path, block_compile) in modes {
        let config = SocConfig {
            fast_path,
            block_compile,
            ..kernel_config()
        };
        let soc = observed_soc("dhry-calls", config);
        assert_eq!(
            soc.block_dispatch(),
            block_compile,
            "{label}: the collector must not pick the scheduler"
        );
        runs.push((label, finish_observed(soc)));
    }
    let (_, (strict_spans, strict_fp)) = &runs[0];
    let strict_json = strict_spans.to_json().encode();
    for (label, (spans, fp)) in &runs[1..] {
        assert_eq!(strict_fp, fp, "{label}: report agrees with strict");
        assert_eq!(
            strict_json,
            spans.to_json().encode(),
            "{label}: serialized spans must be byte-identical to strict"
        );
    }

    // A fault schedule draws on transport events the block scheduler
    // skips, so it still selects per-cycle stepping.
    let faulted = SocConfig {
        faults: Some(FaultConfig::only(FaultClass::DoorbellDrop, 1, 0xD00B)),
        ..kernel_config()
    };
    assert!(!observed_soc("dhry-calls", faulted).block_dispatch());
}

#[test]
fn per_commit_observers_select_per_cycle_stepping() {
    let block = SocConfig {
        fast_path: true,
        block_compile: true,
        ..kernel_config()
    };
    let mut soc = observed_soc("fib", block);
    assert!(soc.block_dispatch(), "the collector keeps block dispatch");
    soc.attach_recorder();
    assert!(!soc.block_dispatch(), "a recorder samples every cycle");
    for (policy, config) in [
        (
            "halt_on_violation",
            SocConfig {
                halt_on_violation: true,
                ..block
            },
        ),
        (
            "trap_host_on_violation",
            SocConfig {
                trap_host_on_violation: true,
                ..block
            },
        ),
    ] {
        assert!(
            !observed_soc("fib", config).block_dispatch(),
            "{policy} is checked at every commit"
        );
    }
}

#[test]
fn dual_host_spans_match_strict_under_block_dispatch() {
    for [a, b] in [
        ["fib", "towers"],
        ["dhry-calls", "crc32"],
        ["dhry-calls", "dhry-calls"],
    ] {
        let (pa, pb) = (common::kernel_program(a), common::kernel_program(b));
        let run = |block: bool| {
            let mut soc = DualHostSoc::new([&pa, &pb], KERNEL_MEM, 8);
            soc.set_fast_path(block);
            soc.set_block_compile(block);
            soc.attach_latency();
            let report = soc.run(RUN_BUDGET);
            let spans = soc.take_latency().expect("collector attached").spans;
            (report, spans)
        };
        let (strict, strict_spans) = run(false);
        let (block, block_spans) = run(true);
        assert_eq!(
            format!("{strict:?}"),
            format!("{block:?}"),
            "{a}+{b}: dual reports agree"
        );
        assert_eq!(
            strict_spans.to_json().encode(),
            block_spans.to_json().encode(),
            "{a}+{b}: serialized spans must be byte-identical"
        );
        assert!(strict_spans.conservation_ok(), "{a}+{b}: spans conserve");
        assert_eq!(strict_spans.checked_ok, strict.logs_checked, "{a}+{b}");
    }
}
