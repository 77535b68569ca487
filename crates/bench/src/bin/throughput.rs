//! Simulator-throughput benchmark: simulated-cycles/sec and retired
//! instructions/sec across representative kernels, with the fast path
//! (predecode + block-compiled dispatch) on and off.
//!
//! ```text
//! cargo run --release -p titancfi-bench --bin throughput -- \
//!     --smoke --out BENCH_throughput.json --baseline BENCH_throughput.json
//! ```
//!
//! Every scenario runs twice — fast path off, then on — and the two runs
//! must produce byte-identical result fingerprints (halt reason, cycle
//! counts, filter statistics, violations, and the serialized latency spans
//! of the `observed` scenario, which attaches a collector to the
//! call-dense kernel and so keeps its speedup only while observed runs take
//! block dispatch). A mismatch is a correctness bug
//! and exits nonzero. The JSON report records per-scenario speedup, which
//! is machine-portable; `--baseline` compares against a previous report and
//! fails if any scenario's speedup regressed by more than 20 %, or if the
//! baseline is missing or unparseable.

use std::process::ExitCode;
use std::time::Instant;
use titancfi_bench::gate::Baseline;
use titancfi_harness::Json;
use titancfi_soc::{DualHostSoc, SocConfig, SystemOnChip};
use titancfi_workloads::kernels::{all_kernels, Kernel, KERNEL_MEM};

const USAGE: &str = "\
usage: throughput [options]

      --smoke         reduced cycle budgets (CI smoke run)
      --out PATH      write the JSON report to PATH (default: BENCH_throughput.json)
      --baseline P    compare speedups against a previous report; fail on
                      a >20% regression, or if P is missing or unparseable
  -h, --help          this text
";

struct Options {
    smoke: bool,
    out: String,
    baseline: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        smoke: false,
        out: "BENCH_throughput.json".to_string(),
        baseline: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--out" => opts.out = args.next().ok_or("missing value for --out")?,
            "--baseline" => {
                opts.baseline = Some(args.next().ok_or("missing value for --baseline")?);
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// One measured run: deterministic result fingerprint + work counters.
///
/// `wall_secs` covers only the simulation loop itself — assembly, core
/// construction, and firmware boot happen before the clock starts, so the
/// reported speedup is the interpreter's, not the setup path's.
struct RunOutcome {
    fingerprint: String,
    sim_cycles: u64,
    instret: u64,
    wall_secs: f64,
}

fn kernel(name: &str) -> &'static Kernel {
    Kernel::by_name(name).unwrap_or_else(|| panic!("kernel {name}?"))
}

/// A bare CVA6 core (no CFI transport): measures the interpreter itself.
fn run_bare_core(name: &str, fast: bool, budget: u64) -> RunOutcome {
    let prog = kernel(name).program().expect("assembles");
    let mut core =
        cva6_model::Cva6Core::new(&prog, KERNEL_MEM, cva6_model::TimingConfig::default());
    core.set_predecode(fast);
    let t = Instant::now();
    let halt = core.run_silent(budget);
    let wall_secs = t.elapsed().as_secs_f64();
    let stats = core.stats();
    RunOutcome {
        fingerprint: format!("{halt:?}|{stats:?}|a0={:#x}", core.reg(riscv_isa::Reg::A0)),
        sim_cycles: core.cycle(),
        instret: stats.instret,
        wall_secs,
    }
}

/// Every assembly kernel on the bare core, back to back — the native-suite
/// aggregate the acceptance criteria track.
fn run_native_suite(fast: bool, budget: u64) -> RunOutcome {
    let mut fingerprint = String::new();
    let mut sim_cycles = 0;
    let mut instret = 0;
    let mut wall_secs = 0.0;
    for k in all_kernels() {
        let out = run_bare_core(k.name, fast, budget);
        fingerprint.push_str(k.name);
        fingerprint.push(':');
        fingerprint.push_str(&out.fingerprint);
        fingerprint.push('\n');
        sim_cycles += out.sim_cycles;
        instret += out.instret;
        wall_secs += out.wall_secs;
    }
    RunOutcome {
        fingerprint,
        sim_cycles,
        instret,
        wall_secs,
    }
}

/// The full SoC (host + CFI transport + RoT firmware): measures block
/// dispatch and event-driven background scheduling on top of predecode.
/// With `observe` a latency collector rides along, which must keep block
/// dispatch; its serialized spans join the fingerprint, so strict and
/// block runs must stamp every log identically.
fn run_soc(name: &str, observe: bool, fast: bool, budget: u64) -> RunOutcome {
    let prog = kernel(name).program().expect("assembles");
    let config = SocConfig {
        mem_size: KERNEL_MEM,
        fast_path: fast,
        ..SocConfig::default()
    };
    let mut soc = SystemOnChip::new(&prog, config);
    if observe {
        soc.attach_latency();
    }
    let t = Instant::now();
    let r = soc.run(budget);
    let wall_secs = t.elapsed().as_secs_f64();
    let spans = soc
        .take_latency()
        .map(|c| format!("|spans={}", c.spans.to_json().encode()));
    RunOutcome {
        fingerprint: format!(
            "{:?}|{}|{:?}|{:?}|logs={}|viol={}|hw={}|qf={}|dcf={}{}",
            r.halt,
            r.cycles,
            r.core,
            r.filter,
            r.logs_checked,
            r.violations.len(),
            r.queue_high_water,
            r.stalls_queue_full,
            r.stalls_dual_cf,
            spans.unwrap_or_default()
        ),
        sim_cycles: r.cycles,
        instret: r.core.instret,
        wall_secs,
    }
}

/// Two hosts sharing one RoT: measures the multi-core scheduler fast path.
fn run_multicore(fast: bool, budget: u64) -> RunOutcome {
    let a = kernel("fib").program().expect("assembles");
    let b = kernel("towers").program().expect("assembles");
    let mut soc = DualHostSoc::new([&a, &b], KERNEL_MEM, 8);
    soc.set_fast_path(fast);
    let t = Instant::now();
    let r = soc.run(budget);
    let wall_secs = t.elapsed().as_secs_f64();
    RunOutcome {
        fingerprint: format!("{r:?}"),
        sim_cycles: r.cores[0].cycles + r.cores[1].cycles,
        instret: r.cores.iter().map(|c| c.instret).sum(),
        wall_secs,
    }
}

struct Row {
    scenario: &'static str,
    sim_cycles: u64,
    instret: u64,
    wall_ms_fast: f64,
    wall_ms_slow: f64,
    speedup: f64,
    fingerprint_match: bool,
}

fn measure(scenario: &'static str, min_wall: f64, run: impl Fn(bool) -> RunOutcome) -> Row {
    // Short kernels finish in microseconds, far below timer noise on a
    // shared host — repeat each setting until `min_wall` seconds of actual
    // simulation accumulate and report the *fastest* lap. The minimum is
    // the uncontended cost: a preemption spike inflates the laps it hits,
    // which a mean dutifully averages in, while the min shrugs it off.
    // Every repetition must reproduce the first run's fingerprint exactly.
    let timed = |setting: bool| {
        let first = run(setting);
        let mut wall = first.wall_secs;
        let mut best = first.wall_secs;
        let mut laps = 1u32;
        while wall < min_wall && laps < 1000 {
            let r = run(setting);
            assert_eq!(
                r.fingerprint, first.fingerprint,
                "`{scenario}` is nondeterministic across repetitions"
            );
            wall += r.wall_secs;
            best = best.min(r.wall_secs);
            laps += 1;
        }
        (first, best)
    };
    let (slow, wall_slow) = timed(false);
    let (fast, wall_fast) = timed(true);
    let matches = slow.fingerprint == fast.fingerprint
        && slow.sim_cycles == fast.sim_cycles
        && slow.instret == fast.instret;
    if !matches {
        eprintln!("throughput: FINGERPRINT MISMATCH in `{scenario}`");
        eprintln!(
            "  fast-off: {}",
            slow.fingerprint.replace('\n', "\n            ")
        );
        eprintln!(
            "  fast-on:  {}",
            fast.fingerprint.replace('\n', "\n            ")
        );
    }
    let row = Row {
        scenario,
        sim_cycles: fast.sim_cycles,
        instret: fast.instret,
        wall_ms_fast: wall_fast * 1e3,
        wall_ms_slow: wall_slow * 1e3,
        speedup: if wall_fast > 0.0 {
            wall_slow / wall_fast
        } else {
            0.0
        },
        fingerprint_match: matches,
    };
    println!(
        "{:<16} {:>12} sim-cycles  {:>10.1} ms off  {:>10.1} ms on  {:>6.2}x  {:>12.0} cyc/s  {}",
        row.scenario,
        row.sim_cycles,
        row.wall_ms_slow,
        row.wall_ms_fast,
        row.speedup,
        row.sim_cycles as f64 / (wall_fast.max(1e-9)),
        if matches { "ok" } else { "MISMATCH" }
    );
    row
}

/// Report schema (v2):
///   - `sim_cycles`, `instret`: work done by the fast run (multicore sums
///     both cores; `instret` is never zero on a scenario that retired
///     instructions).
///   - `wall_ms_slow` / `wall_ms_fast`: fastest lap per setting (min over
///     repetitions — robust to preemption spikes on a shared host);
///     `speedup` = slow/fast: the only machine-portable number (same
///     binary, same host, back to back).
///   - `regressed`: the fast path was a net slowdown beyond measurement
///     noise — `speedup < 0.8`, the same 20 % tolerance the `--baseline`
///     gate applies, so a 0.97x wall-clock wobble on a tiny kernel does
///     not read as a regression.
///   - `fingerprint_match`: fast and strict runs produced byte-identical
///     result fingerprints.
fn report_json(mode: &str, rows: &[Row]) -> Json {
    Json::obj(vec![
        ("schema", Json::Num(2.0)),
        ("mode", Json::Str(mode.to_string())),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("scenario", Json::Str(r.scenario.to_string())),
                            ("sim_cycles", Json::Num(r.sim_cycles as f64)),
                            ("instret", Json::Num(r.instret as f64)),
                            ("wall_ms_slow", Json::Num(r.wall_ms_slow)),
                            ("wall_ms_fast", Json::Num(r.wall_ms_fast)),
                            (
                                "cycles_per_sec",
                                Json::Num(r.sim_cycles as f64 / (r.wall_ms_fast / 1e3).max(1e-9)),
                            ),
                            (
                                "instret_per_sec",
                                Json::Num(r.instret as f64 / (r.wall_ms_fast / 1e3).max(1e-9)),
                            ),
                            ("speedup", Json::Num(r.speedup)),
                            ("regressed", Json::Bool(r.speedup < REGRESSED_TOLERANCE)),
                            ("fingerprint_match", Json::Bool(r.fingerprint_match)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Wall-clock tolerance shared by the per-row `regressed` flag and the
/// `--baseline` gate: anything within 20 % is measurement noise, anything
/// beyond it is a real slowdown.
const REGRESSED_TOLERANCE: f64 = 0.8;

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("throughput: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Read the baseline up front: CI passes the same path for --baseline
    // and --out, so it must be consumed before the report overwrites it.
    let baseline = match opts.baseline.as_deref().map(Baseline::load).transpose() {
        Ok(baseline) => baseline,
        Err(e) => {
            eprintln!("throughput: {e}");
            return ExitCode::FAILURE;
        }
    };

    let budget: u64 = if opts.smoke { 3_000_000 } else { 20_000_000 };
    let mode = if opts.smoke { "smoke" } else { "full" };
    println!("simulator throughput ({mode}, budget {budget} cycles/kernel)");
    let min_wall = if opts.smoke { 0.25 } else { 1.5 };
    let rows = vec![
        measure("fib-recursion", min_wall, |fast| {
            run_bare_core("fib", fast, budget)
        }),
        measure("call-dense", min_wall, |fast| {
            run_soc("dhry-calls", false, fast, budget)
        }),
        measure("branch-chain", min_wall, |fast| {
            run_soc("crc32", false, fast, budget)
        }),
        measure("observed", min_wall, |fast| {
            run_soc("dhry-calls", true, fast, budget)
        }),
        measure("multicore", min_wall, |fast| run_multicore(fast, budget)),
        measure("native-suite", min_wall, |fast| {
            run_native_suite(fast, budget)
        }),
    ];

    // A speedup below the noise tolerance means the fast path *slowed that
    // scenario down*. It is not a failure (tiny kernels can lose more to
    // cache setup than batching saves), but it must never pass silently:
    // the row carries an explicit `regressed` flag and the run prints a
    // warning. Sub-1.0 wobbles within the tolerance are timer noise, not
    // regressions.
    for row in rows.iter().filter(|r| r.speedup < REGRESSED_TOLERANCE) {
        println!(
            "throughput: WARNING `{}` fast path is a net slowdown ({:.2}x < {REGRESSED_TOLERANCE:.2}x)",
            row.scenario, row.speedup
        );
    }

    let json = report_json(mode, &rows);
    if let Err(e) = std::fs::write(&opts.out, json.encode() + "\n") {
        eprintln!("throughput: cannot write {}: {e}", opts.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {}", opts.out);

    if !rows.iter().all(|r| r.fingerprint_match) {
        eprintln!("throughput: fast path diverged from strict stepping");
        return ExitCode::FAILURE;
    }
    match baseline {
        Some(base) => {
            // Speedup (wall off / wall on, same machine, same binary) is the
            // only machine-portable number in the report: absolute
            // cycles/sec are not comparable across hosts.
            let rows = json.get("rows").and_then(Json::as_arr).unwrap_or(&[]);
            if !base
                .check(rows, &["scenario"], "speedup", REGRESSED_TOLERANCE)
                .passed("throughput")
            {
                return ExitCode::FAILURE;
            }
            println!("speedups within 20% of baseline");
        }
        None => println!("no --baseline given — regression gate not run"),
    }
    ExitCode::SUCCESS
}
