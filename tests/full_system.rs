//! Cross-crate integration: benchmark kernels under full CFI co-simulation.
//!
//! Each kernel runs twice — bare (baseline) and under the complete TitanCFI
//! pipeline with the real RV32 firmware in the RoT — and the results must
//! agree, no violations may fire, and the filter/queue/writer counters must
//! be mutually consistent.

mod common;

use common::{kernel_config, kernel_program, run_kernel_checked, RUN_BUDGET};
use riscv_isa::Reg;
use titancfi::firmware::FirmwareKind;
use titancfi_soc::{run_baseline, SocConfig};
use titancfi_workloads::kernels::KERNEL_MEM;

#[test]
fn kernels_run_correctly_under_full_cfi() {
    // A representative mix; the full sweep lives in the bench harness.
    for name in ["fib", "dhry-calls", "dispatch", "memcpy", "towers"] {
        let config = kernel_config();
        let (report, a0) = run_kernel_checked(name, config);
        // Functional result identical to the bare run.
        let prog = kernel_program(name);
        let mut bare = cva6_model::Cva6Core::new(&prog, KERNEL_MEM, config.timing);
        let _ = bare.run_silent(RUN_BUDGET);
        assert_eq!(a0, bare.reg(Reg::A0), "{name}: CFI must not change results");
        // No false positives.
        assert!(
            report.violations.is_empty(),
            "{name}: {:?}",
            report.violations
        );
        // Every filtered log was eventually checked.
        assert_eq!(report.filter.emitted, report.logs_checked, "{name}");
    }
}

#[test]
fn cfi_slowdown_grows_with_cf_density() {
    let config = kernel_config();
    let slowdown = |name: &str| {
        let prog = kernel_program(name);
        let (_, baseline) = run_baseline(&prog, &config);
        let (report, _) = run_kernel_checked(name, config);
        report.slowdown_percent(baseline)
    };
    let dense = slowdown("dhry-calls");
    let sparse = slowdown("memcpy");
    assert!(
        dense > sparse,
        "call-dense code must slow more: dhry {dense:.1}% vs memcpy {sparse:.1}%"
    );
    assert!(sparse < 5.0, "memcpy has ~no CF: {sparse:.1}%");
}

#[test]
fn deeper_queue_reduces_slowdown_on_call_dense_code() {
    let mut cycles = Vec::new();
    for depth in [1usize, 8] {
        let config = SocConfig {
            queue_depth: depth,
            ..kernel_config()
        };
        let (report, _) = run_kernel_checked("fib", config);
        cycles.push(report.cycles);
    }
    assert!(
        cycles[1] <= cycles[0],
        "depth 8 ({}) must not be slower than depth 1 ({})",
        cycles[1],
        cycles[0]
    );
}

#[test]
fn firmware_variants_ordered_by_speed() {
    let mut totals = Vec::new();
    for fw in FirmwareKind::ALL {
        let config = SocConfig {
            firmware: fw,
            ..kernel_config()
        };
        let (report, _) = run_kernel_checked("dhry-calls", config);
        assert!(report.violations.is_empty());
        totals.push((fw, report.cycles));
    }
    // IRQ slowest, Optimized fastest.
    assert!(totals[0].1 >= totals[1].1, "IRQ >= Polling: {totals:?}");
    assert!(
        totals[1].1 >= totals[2].1,
        "Polling >= Optimized: {totals:?}"
    );
}

#[test]
fn indirect_dispatch_checked_but_clean() {
    let (report, _) = run_kernel_checked("dispatch", kernel_config());
    // 100 indirect jumps were streamed and checked.
    assert!(report.filter.indirect_jumps >= 100);
    assert!(report.violations.is_empty());
}

#[test]
fn queue_high_water_bounded_by_depth() {
    for depth in [1usize, 2, 4] {
        let config = SocConfig {
            queue_depth: depth,
            ..kernel_config()
        };
        let (report, _) = run_kernel_checked("fib", config);
        assert!(
            report.queue_high_water <= depth,
            "occupancy {} exceeds depth {depth}",
            report.queue_high_water
        );
    }
}

#[test]
fn report_counters_consistent() {
    let (report, _) = run_kernel_checked("towers", kernel_config());
    assert_eq!(
        report.filter.calls + report.filter.returns + report.filter.indirect_jumps,
        report.filter.emitted
    );
    assert_eq!(report.core.cf_retired, report.filter.emitted);
    assert!(report.core.instret >= report.filter.scanned);
}

#[test]
fn report_fingerprints_pinned() {
    // Exact values, so a refactor of the engine cannot move any of them
    // unnoticed: (halt, cycles, logs checked, queue high water, queue-full
    // stall cycles, dual-CF stalls, violations).
    use cva6_model::Halt::Breakpoint;
    let pins = [
        ("fib", (Breakpoint, 529_505, 3946, 8, 503_867, 0, 0)),
        ("towers", (Breakpoint, 549_403, 4094, 8, 525_319, 0, 0)),
        ("crc32", (Breakpoint, 22_057, 0, 0, 0, 0, 0)),
        ("dhry-calls", (Breakpoint, 671_302, 5000, 8, 656_301, 0, 0)),
    ];
    for (name, want) in pins {
        let (report, _) = run_kernel_checked(name, kernel_config());
        assert_eq!(common::report_fingerprint(&report), want, "{name}");
    }
}

#[test]
fn dual_control_flow_commits_are_rare() {
    // Paper §IV-B2 justifies the single-push-per-cycle queue: "committing
    // two control-flow instructions in the same cycle is a rare event".
    // Verify that across the call-densest kernels the dual-CF stall events
    // stay a small fraction of the checked instructions.
    for name in ["fib", "dhry-calls", "towers"] {
        let (report, _) = run_kernel_checked(name, kernel_config());
        let rate = report.stalls_dual_cf as f64 / report.filter.emitted.max(1) as f64;
        assert!(
            rate < 0.05,
            "{name}: dual-CF rate {rate:.3} — the paper's rarity claim must hold"
        );
    }
}
