//! The fault-injection campaign driver: runs seeded fault scenarios
//! through the worker pool and prints the per-class detection / recovery
//! matrix.
//!
//! ```text
//! cargo run --release -p titancfi-bench --bin faults -- --smoke
//! ```
//!
//! Exit status is nonzero if any injected fault was neither detected nor
//! recovered, or any scenario hung (exhausted its cycle budget) — which is
//! what the CI smoke step keys on. Scenarios are deterministic per
//! (kernel, class, rate, seed, policy), and every invocation runs them all.

use std::path::PathBuf;
use std::process::ExitCode;

use titancfi::FailPolicy;
use titancfi_bench::fault_campaign::{FaultPlan, DEFAULT_KERNELS, DEFAULT_SEEDS};
use titancfi_harness::{run_campaign, CampaignConfig, Telemetry, TelemetrySink};

const USAGE: &str = "\
usage: faults [options]

  -j, --jobs N        worker threads (default: all cores)
      --smoke         small fixed grid (1 kernel, 1 seed, both policies)
      --kernels LIST  comma-separated kernel names (default: fib,dispatch)
      --seeds LIST    comma-separated seeds (default: 11,12,13)
      --out P         also write the matrix to file P
      --verbose       include the per-scenario detail table
      --telemetry P   write a JSONL event stream to P ('-' for stderr)
  -h, --help          this text
";

struct Options {
    workers: usize,
    smoke: bool,
    kernels: Vec<&'static str>,
    seeds: Vec<u64>,
    out: Option<PathBuf>,
    verbose: bool,
    telemetry: Option<String>,
}

/// Resolves a user-supplied kernel name to the static name in the kernel
/// registry (jobs carry `&'static str`).
fn static_kernel_name(name: &str) -> Result<&'static str, String> {
    titancfi_workloads::all_kernels()
        .map(|k| k.name)
        .find(|n| *n == name)
        .ok_or_else(|| format!("unknown kernel `{name}`"))
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workers: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        smoke: false,
        kernels: DEFAULT_KERNELS.to_vec(),
        seeds: DEFAULT_SEEDS.to_vec(),
        out: None,
        verbose: false,
        telemetry: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-j" | "--jobs" => {
                let v = args.next().ok_or("missing value for -j")?;
                opts.workers = v.parse().map_err(|_| format!("bad worker count `{v}`"))?;
            }
            "--smoke" => opts.smoke = true,
            "--kernels" => {
                let v = args.next().ok_or("missing value for --kernels")?;
                opts.kernels = v
                    .split(',')
                    .map(static_kernel_name)
                    .collect::<Result<_, _>>()?;
            }
            "--seeds" => {
                let v = args.next().ok_or("missing value for --seeds")?;
                opts.seeds = v
                    .split(',')
                    .map(|s| s.parse().map_err(|_| format!("bad seed `{s}`")))
                    .collect::<Result<_, _>>()?;
            }
            "--out" => {
                opts.out = Some(PathBuf::from(args.next().ok_or("missing value for --out")?));
            }
            "--verbose" => opts.verbose = true,
            "--telemetry" => {
                opts.telemetry = Some(args.next().ok_or("missing value for --telemetry")?);
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

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("faults: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let plan = if opts.smoke {
        FaultPlan::smoke()
    } else {
        FaultPlan::build(
            &opts.kernels,
            &opts.seeds,
            &[FailPolicy::FailClosed, FailPolicy::FailOpen],
        )
    };
    eprintln!("faults: {} scenarios", plan.len());

    let sink = match opts.telemetry.as_deref() {
        None => TelemetrySink::Null,
        Some("-") => TelemetrySink::Stderr,
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => TelemetrySink::File(f),
            Err(e) => {
                eprintln!("faults: cannot open telemetry file {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let telemetry = Telemetry::new(sink);

    let cfg = CampaignConfig {
        workers: opts.workers,
        ..CampaignConfig::default()
    };
    let outcome = run_campaign(plan.jobs(), &cfg, &telemetry);
    let matrix = plan.assemble(&outcome);
    let text = matrix.render(opts.verbose);
    print!("{text}");
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("faults: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    eprint!("{}", outcome.report.render());

    if matrix.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
