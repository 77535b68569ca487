//! The parallel campaign driver: regenerates every evaluation artifact —
//! Tables I–IV, the design-space sweep, and the native kernel suite —
//! through the `titancfi-harness` worker pool, with JSONL telemetry.
//!
//! ```text
//! cargo run --release -p titancfi-bench --bin campaign -- -j 4
//! ```
//!
//! Output is byte-identical to the serial `table1`..`table4`, `sweep` and
//! `native_suite` binaries, regardless of `-j`. Every invocation runs
//! every job.

use std::process::ExitCode;
use std::sync::Arc;

use titancfi_bench::campaign::{CampaignPlan, PlanSpec, PoisonJob};
use titancfi_harness::{run_campaign, CampaignConfig, Job, Telemetry, TelemetrySink};

const USAGE: &str = "\
usage: campaign [options]

  -j, --jobs N        worker threads (default: all cores)
      --telemetry P   write a JSONL event stream to P ('-' for stderr)
      --tables-only   only Tables I-IV (skip sweep and native suite)
      --skip-native   skip the native kernel suite (the slowest jobs)
      --poison        append a deliberately panicking job (isolation demo)
  -h, --help          this text
";

struct Options {
    workers: usize,
    telemetry: Option<String>,
    spec: PlanSpec,
    poison: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workers: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        telemetry: None,
        spec: PlanSpec {
            tables: true,
            sweep: true,
            native: true,
        },
        poison: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-j" | "--jobs" => {
                let v = args.next().ok_or("missing value for -j")?;
                opts.workers = v.parse().map_err(|_| format!("bad worker count `{v}`"))?;
            }
            "--telemetry" => {
                opts.telemetry = Some(args.next().ok_or("missing value for --telemetry")?);
            }
            "--tables-only" => {
                opts.spec.sweep = false;
                opts.spec.native = false;
            }
            "--skip-native" => opts.spec.native = false,
            "--poison" => opts.poison = true,
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
            eprintln!("campaign: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let plan = CampaignPlan::build(opts.spec);
    let mut jobs = plan.jobs();
    if opts.poison {
        jobs.push(Arc::new(PoisonJob) as Arc<dyn Job>);
    }

    let sink = match opts.telemetry.as_deref() {
        None => TelemetrySink::Null,
        Some("-") => TelemetrySink::Stderr,
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => TelemetrySink::File(f),
            Err(e) => {
                eprintln!("campaign: cannot open telemetry file {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let telemetry = Telemetry::new(sink);

    let cfg = CampaignConfig {
        workers: opts.workers,
        ..CampaignConfig::default()
    };
    let outcome = run_campaign(jobs, &cfg, &telemetry);
    let artifacts = plan.assemble(&outcome);

    let wanted = [
        (true, &artifacts.table1, "Table I"),
        (true, &artifacts.table2, "Table II"),
        (true, &artifacts.table3, "Table III"),
        (true, &artifacts.table4, "Table IV"),
        (opts.spec.sweep, &artifacts.sweep, "design-space sweep"),
        (opts.spec.native, &artifacts.native, "native suite"),
    ];
    let mut complete = true;
    let mut first = true;
    for (wanted, artifact, name) in wanted {
        if !wanted {
            continue;
        }
        match artifact {
            Some(text) => {
                if !first {
                    println!();
                }
                first = false;
                print!("{text}");
            }
            None => {
                complete = false;
                eprintln!("campaign: {name} is incomplete (see failures below)");
            }
        }
    }

    eprint!("{}", outcome.report.render());
    if complete {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
