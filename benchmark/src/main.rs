//! TitanCFI benchmark: the simulated cost of CFI checking in the RoT and
//! the simulator's own speed, on five workloads.
//!
//! ```text
//! # every workload, each in its own child process, results saved
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --seed 1 --out r1.json
//! # one workload; the last stdout line is the JSON result
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload call-dense --seed 1 --seconds 10 --trace 0
//! # compare result files of two commits
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     compare --base a1.json a2.json --head b1.json b2.json
//! ```
//!
//! See `benchmark/README.md` for the workloads and metrics.

mod alloc;
mod compare;
mod fleet;
mod guest;
mod hosts;
mod result;
mod run;
mod stats;
mod trace;

use result::WorkloadResult;
use run::{Options, NAMES};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use titancfi_harness::Json;

const USAGE: &str = "\
usage: titancfi-benchmark [options]
       titancfi-benchmark compare --base FILE... --head FILE... [--benchmark PATH]

  --workload W    run one of suite, call-dense, observed, dual-host, fleet
                  (default: all of them, each in its own child process)
  --seed N        seed the guest programs are generated from (default 1)
  --seconds S     seconds of timed laps per workload (default 15)
  --trace 0|1     1: traced run, reporting per-layer metrics (default 0)
  --spans DIR     directory a traced run writes its spans to, as
                  spans-<workload>-seed<N>.json (default benchmark/out)
  --out PATH      save every workload's result as one JSON file
  --quick         a tenth of the seconds and two set-ups per workload
  -h, --help      this text
";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
    out: Option<PathBuf>,
    quick: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        spans: None,
        out: None,
        quick: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("missing value for {arg}"));
        match arg.as_str() {
            "--workload" => {
                let w = value()?;
                if !NAMES.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}`"));
                }
                args.workload = Some(w.clone());
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| format!("invalid --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("invalid --seconds `{v}`"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                };
            }
            "--spans" => args.spans = Some(PathBuf::from(value()?)),
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Writes the results to `--out`, if given, in the form `compare` reads.
fn save(args: &Args, workloads: Vec<(String, Json)>) -> Result<(), String> {
    let Some(out) = &args.out else {
        return Ok(());
    };
    let json = Json::obj(vec![
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("workloads", Json::Obj(workloads)),
    ]);
    write_file(out, &(json.encode() + "\n"))?;
    println!("results written to {}", out.display());
    Ok(())
}

fn owned(metrics: &[(&str, f64, &str)]) -> Vec<result::Metric> {
    metrics
        .iter()
        .map(|&(n, v, u)| (n.to_string(), v, u.to_string()))
        .collect()
}

/// One workload in this process. Prints every metric, then a `detail`
/// line, then the summary JSON as the last line.
fn run_one(name: &str, args: &Args) -> ExitCode {
    let opts = Options {
        seed: args.seed,
        seconds: if args.quick {
            args.seconds / 10.0
        } else {
            args.seconds
        },
        trace: args.trace,
        setup_reps: if args.quick { 2 } else { 5 },
    };
    let outcome = match run::run(name, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let result = WorkloadResult {
        correct: outcome.correct,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: owned(&outcome.metrics),
        info: owned(&outcome.info),
        laps: outcome.laps as u64,
        failures: outcome.failures.clone(),
    };
    println!(
        "{name} (seed {}, {} laps, {} operations, {} failed)",
        args.seed, result.laps, result.attempted, result.failed
    );
    for (n, v, u) in &result.metrics {
        println!("  {n:<30} {v:>18.6} {u}");
    }
    for (n, v, u) in &result.info {
        println!("  {n:<30} {v:>18.6} {u}  (not gated)");
    }
    for f in &result.failures {
        println!("  FAILED {f}");
    }
    if args.trace {
        let path = args
            .spans
            .clone()
            .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("out"))
            .join(format!("spans-{name}-seed{}.json", args.seed));
        let spans = outcome.tracer.to_json(name, args.seed).encode();
        match write_file(&path, &spans) {
            Ok(()) => println!(
                "  {} spans written to {}",
                outcome.tracer.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("benchmark: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if let Err(e) = save(args, vec![(name.to_string(), result.to_json())]) {
        eprintln!("benchmark: {e}");
        return ExitCode::from(2);
    }
    println!("detail {}", result.detail_json().encode());
    println!("{}", result.summary_json().encode());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, each in a child process of this binary, so each gets a
/// fresh heap and its own peak RSS.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut all_ok = true;
    let mut saved = Vec::new();
    for name in NAMES {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        if args.quick {
            cmd.arg("--quick");
        }
        if let Some(dir) = &args.spans {
            cmd.arg("--spans").arg(dir);
        }
        let output = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("benchmark: cannot run {name}: {e}");
                return ExitCode::from(2);
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let summary = lines.pop().and_then(|l| Json::parse(l).ok());
        let detail = lines
            .iter()
            .find_map(|l| l.strip_prefix("detail "))
            .and_then(|d| Json::parse(d).ok());
        for line in lines.iter().filter(|l| !l.starts_with("detail ")) {
            println!("{line}");
        }
        let merged = match (summary, detail) {
            (Some(Json::Obj(mut s)), Some(Json::Obj(d))) => {
                s.extend(d);
                Json::Obj(s)
            }
            _ => {
                eprintln!("benchmark: {name} printed no result ({})", output.status);
                all_ok = false;
                continue;
            }
        };
        all_ok &= output.status.success();
        saved.push((name.to_string(), merged));
    }
    if let Err(e) = save(args, saved) {
        eprintln!("benchmark: {e}");
        return ExitCode::from(2);
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: at least one workload failed its checks");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    if argv.iter().any(|a| a == "-h" || a == "--help") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => {
            alloc::keep_freed_memory();
            run_one(name, &args)
        }
        None => run_all(&args),
    }
}
