//! Detection-latency attribution benchmark: where do the cycles between a
//! control-flow commit and the RoT's verdict actually go?
//!
//! ```text
//! cargo run --release -p titancfi-bench --bin latency -- \
//!     --smoke --out BENCH_latency.json
//! ```
//!
//! Two sweeps feed `BENCH_latency.json`:
//!
//! * **Benign attribution** — firmware variant (the paper's three: IRQ,
//!   polling, and polling on the optimized interconnect) × queue depth on
//!   the call-dense kernel, reporting p50/p95/p99/max for every lifecycle
//!   stage (queue wait, AXI beats, firmware check, verdict read-back) plus
//!   end-to-end. Every cell is run three times: twice in strict stepping
//!   (rerun determinism) and once under block dispatch, which an observed
//!   run keeps, so the metrics must come out byte-identical — that
//!   identity is asserted, not assumed.
//! * **Detection latency** — corruption classes (stack-smash hijack loop,
//!   fuzz-generated return hijacks, a wedged doorbell transport under a
//!   fail-closed watchdog), reporting the cycles from the corrupting
//!   event's commit-log acceptance to the violation flag.
//!
//! Exit is nonzero when any run breaks the per-log conservation law
//! (stage spans must telescope exactly to end-to-end), when stepping modes
//! disagree, or when a corruption run detects nothing.

use std::process::ExitCode;
use titancfi::firmware::FirmwareKind;
use titancfi::{FailPolicy, ResilienceConfig};
use titancfi_faults::{FaultClass, FaultConfig};
use titancfi_fuzz::{oracle::assemble_fuzz, FuzzProgram};
use titancfi_harness::Json;
use titancfi_obs::LatencySpans;
use titancfi_soc::{SocConfig, SystemOnChip};
use titancfi_workloads::kernels::{Kernel, KERNEL_MEM};

const USAGE: &str = "\
usage: latency [options]

      --smoke         reduced cycle budgets (CI smoke run)
      --out PATH      write the JSON report to PATH (default: BENCH_latency.json)
  -h, --help          this text
";

struct Options {
    smoke: bool,
    out: String,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        smoke: false,
        out: "BENCH_latency.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--out" => opts.out = args.next().ok_or("missing value for --out")?,
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// Runs `program` under `config` with the latency collector attached and
/// returns the collected spans.
fn run_with_latency(program: &riscv_asm::Program, config: SocConfig, budget: u64) -> LatencySpans {
    let mut soc = SystemOnChip::new(program, config);
    soc.attach_latency();
    let _ = soc.run(budget);
    soc.take_latency().expect("collector attached above").spans
}

/// One benign sweep cell: checks determinism across reruns and stepping
/// modes, enforces conservation, and returns (spans, cross_mode_match,
/// conserved).
fn benign_cell(
    program: &riscv_asm::Program,
    firmware: FirmwareKind,
    queue_depth: usize,
    budget: u64,
) -> (LatencySpans, bool, bool) {
    let config = |fast: bool| SocConfig {
        mem_size: KERNEL_MEM,
        firmware,
        queue_depth,
        fast_path: fast,
        block_compile: fast,
        ..SocConfig::default()
    };
    let strict = run_with_latency(program, config(false), budget);
    let rerun = run_with_latency(program, config(false), budget);
    let fast = run_with_latency(program, config(true), budget);
    let strict_json = strict.to_json().encode();
    let identical =
        strict_json == rerun.to_json().encode() && strict_json == fast.to_json().encode();
    let conserved = strict.conservation_ok();
    (strict, identical, conserved)
}

/// The stack-smash loop: every iteration saves `ra`, overwrites the slot
/// with the gadget address, and `ret`s into the hijack; the gadget jumps
/// straight back so the next iteration smashes again — `iters` distinct
/// detections per run.
fn loop_smash_source(iters: u32) -> String {
    format!(
        "
        _start:
            li   s0, {iters}
        loop:
            call vulnerable
        resume:
            addi s0, s0, -1
            bnez s0, loop
            ebreak
        vulnerable:
            addi sp, sp, -16
            sd   ra, 8(sp)
            la   t0, gadget
            sd   t0, 8(sp)
            ld   ra, 8(sp)
            addi sp, sp, 16
            ret
        gadget:
            j    resume
        "
    )
}

struct DetectionRow {
    scenario: &'static str,
    spans: LatencySpans,
    conserved: bool,
}

fn stage_json(spans: &LatencySpans) -> Json {
    Json::Obj(
        spans
            .stages()
            .iter()
            .map(|(name, hist)| ((*name).to_string(), LatencySpans::summary_json(hist)))
            .collect(),
    )
}

fn benign_row_json(
    firmware: FirmwareKind,
    depth: usize,
    spans: &LatencySpans,
    cross_mode: bool,
) -> Json {
    Json::obj(vec![
        ("firmware", Json::Str(firmware.name().to_string())),
        ("queue_depth", Json::Num(depth as f64)),
        ("logs_checked", Json::Num(spans.checked_ok as f64)),
        ("violations", Json::Num(spans.violations as f64)),
        ("stages", stage_json(spans)),
        ("detection", Json::Null),
        ("conservation_ok", Json::Bool(spans.conservation_ok())),
        ("cross_mode_match", Json::Bool(cross_mode)),
    ])
}

fn detection_row_json(row: &DetectionRow) -> Json {
    Json::obj(vec![
        ("scenario", Json::Str(row.scenario.to_string())),
        ("detections", Json::Num(row.spans.detection.count as f64)),
        ("violations", Json::Num(row.spans.violations as f64)),
        ("forced", Json::Num(row.spans.forced as f64)),
        ("stages", stage_json(&row.spans)),
        (
            "detection",
            LatencySpans::summary_json(&row.spans.detection),
        ),
        ("conservation_ok", Json::Bool(row.conserved)),
    ])
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("latency: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mode = if opts.smoke { "smoke" } else { "full" };
    let budget: u64 = if opts.smoke { 400_000 } else { 4_000_000 };
    println!("latency attribution ({mode}, budget {budget} cycles/cell)");
    let mut failed = false;

    // --- Benign attribution sweep: firmware × queue depth. ---
    let kernel = Kernel::by_name("dhry-calls")
        .expect("dhry-calls kernel")
        .program()
        .expect("assembles");
    let mut benign_rows = Vec::new();
    for firmware in FirmwareKind::ALL {
        for depth in [1usize, 8] {
            let (spans, cross_mode, conserved) = benign_cell(&kernel, firmware, depth, budget);
            if !conserved {
                eprintln!(
                    "latency: CONSERVATION FAILURE {}/depth{depth}: \
                     {} logs broke the stage-sum law, {} orphan events",
                    firmware.name(),
                    spans.conservation_failures,
                    spans.orphans
                );
                failed = true;
            }
            if !cross_mode {
                eprintln!(
                    "latency: STEPPING-MODE MISMATCH {}/depth{depth}: \
                     latency metrics must be byte-identical under strict stepping and block dispatch",
                    firmware.name()
                );
                failed = true;
            }
            if spans.checked_ok == 0 {
                eprintln!(
                    "latency: {}/depth{depth} checked zero logs",
                    firmware.name()
                );
                failed = true;
            }
            println!(
                "{:>9} depth {depth}  logs {:>6}  e2e p50 {:>5} p99 {:>6} max {:>6}  {}",
                firmware.name(),
                spans.checked_ok,
                spans.end_to_end.percentile(0.50),
                spans.end_to_end.percentile(0.99),
                spans.end_to_end.max,
                if conserved && cross_mode {
                    "ok"
                } else {
                    "FAIL"
                }
            );
            benign_rows.push(benign_row_json(firmware, depth, &spans, cross_mode));
        }
    }

    // --- Detection-latency sweep: corruption classes. ---
    let mut detection_rows = Vec::new();

    // Class 1: the classic stack-smash, looped for a population.
    let smash_iters = if opts.smoke { 8 } else { 64 };
    let smash = riscv_asm::assemble(
        &loop_smash_source(smash_iters),
        riscv_isa::Xlen::Rv64,
        0x8000_0000,
    )
    .expect("loop-smash assembles");
    let spans = run_with_latency(
        &smash,
        SocConfig {
            mem_size: KERNEL_MEM,
            queue_depth: 8,
            ..SocConfig::default()
        },
        budget,
    );
    detection_rows.push(DetectionRow {
        scenario: "loop-smash",
        conserved: spans.conservation_ok(),
        spans,
    });

    // Class 2: fuzz-generated return hijacks, several seeds merged.
    let seeds: &[u64] = if opts.smoke { &[1] } else { &[1, 2, 3, 4] };
    let mut merged: Option<LatencySpans> = None;
    let mut fuzz_conserved = true;
    for &seed in seeds {
        let fuzz = FuzzProgram::generate(seed).with_corruption();
        let program = assemble_fuzz(&fuzz.emit(), fuzz.compressed).expect("fuzz assembles");
        let spans = run_with_latency(
            &program,
            SocConfig {
                mem_size: KERNEL_MEM,
                queue_depth: 8,
                ..SocConfig::default()
            },
            budget,
        );
        fuzz_conserved &= spans.conservation_ok();
        match merged.as_mut() {
            Some(m) => m.merge(&spans),
            None => merged = Some(spans),
        }
    }
    detection_rows.push(DetectionRow {
        scenario: "return-hijack-fuzz",
        conserved: fuzz_conserved,
        spans: merged.expect("at least one seed"),
    });

    // Class 3: a wedged transport — every doorbell ring dropped; the
    // fail-closed watchdog turns each undeliverable log into a forced
    // violation, whose detection window is escalation-minus-accept.
    let spans = run_with_latency(
        &kernel,
        SocConfig {
            mem_size: KERNEL_MEM,
            queue_depth: 8,
            faults: Some(FaultConfig::only(FaultClass::DoorbellDrop, 1, 0xD00B)),
            resilience: ResilienceConfig {
                watchdog_timeout: 200,
                max_attempts: 2,
                backoff: 16,
                policy: FailPolicy::FailClosed,
            },
            ..SocConfig::default()
        },
        budget,
    );
    detection_rows.push(DetectionRow {
        scenario: "transport-wedge",
        conserved: spans.conservation_ok(),
        spans,
    });

    for row in &detection_rows {
        if row.spans.detection.count == 0 {
            eprintln!(
                "latency: `{}` produced no detections — corruption did not reach the RoT",
                row.scenario
            );
            failed = true;
        }
        if !row.conserved {
            eprintln!("latency: CONSERVATION FAILURE in `{}`", row.scenario);
            failed = true;
        }
        println!(
            "{:<20} detections {:>5}  window p50 {:>6} p99 {:>7} max {:>7}  {}",
            row.scenario,
            row.spans.detection.count,
            row.spans.detection.percentile(0.50),
            row.spans.detection.percentile(0.99),
            row.spans.detection.max,
            if row.conserved && row.spans.detection.count > 0 {
                "ok"
            } else {
                "FAIL"
            }
        );
    }

    let json = Json::obj(vec![
        ("schema", Json::Num(1.0)),
        ("mode", Json::Str(mode.to_string())),
        ("budget_cycles", Json::Num(budget as f64)),
        ("benign", Json::Arr(benign_rows)),
        (
            "detection",
            Json::Arr(detection_rows.iter().map(detection_row_json).collect()),
        ),
    ]);
    if let Err(e) = std::fs::write(&opts.out, json.encode() + "\n") {
        eprintln!("latency: cannot write {}: {e}", opts.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {}", opts.out);

    if failed {
        eprintln!("latency: attribution gate FAILED");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
