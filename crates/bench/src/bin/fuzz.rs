//! The differential fuzzing driver: seeds fanned through the worker pool,
//! each seed running the full cross-configuration oracle (benign program +
//! corruption variants) on every invocation.
//!
//! ```text
//! cargo run --release -p titancfi-bench --bin fuzz -- --seeds 0..200
//! ```
//!
//! Exit status is nonzero if any seed diverged (or, under
//! `--mutate-decode-cache`, if the planted bug was *not* caught) — which is
//! what the CI smoke and nightly steps key on. Divergences are shrunk to a
//! minimal program and written as self-contained reproducers.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use titancfi_fuzz::{
    check, shrink, write_repro, CorruptionVariant, FuzzProgram, GenOptions, MatrixConfig,
    ReproContext,
};
use titancfi_harness::{run_campaign, CampaignConfig, Job, JobOutput, Telemetry, TelemetrySink};

const USAGE: &str = "\
usage: fuzz [options]

      --seeds A..B    seed range (default: 0..50)
      --smoke         quick PR gate: seeds 0..16
  -j, --jobs N        worker threads (default: all cores)
      --time-box S    stop dispatching new seed waves after S seconds
      --budget N      per-run host cycle budget (default: 4000000)
      --mutate-decode-cache
                      arm the planted decode-cache bug; the run then MUST
                      find and shrink a divergence (oracle self-test)
      --repro-dir P   reproducer directory (default: tests/repros, or
                      target/fuzz-repros under --mutate-decode-cache)
      --telemetry P   write a JSONL event stream to P ('-' for stderr)
  -h, --help          this text
";

struct Options {
    seeds: std::ops::Range<u64>,
    workers: usize,
    time_box: Option<Duration>,
    budget: u64,
    mutate: bool,
    repro_dir: Option<PathBuf>,
    telemetry: Option<String>,
}

fn parse_range(v: &str) -> Result<std::ops::Range<u64>, String> {
    let (a, b) = v
        .split_once("..")
        .ok_or_else(|| format!("bad seed range `{v}` (want A..B)"))?;
    let lo: u64 = a.parse().map_err(|_| format!("bad seed `{a}`"))?;
    let hi: u64 = b.parse().map_err(|_| format!("bad seed `{b}`"))?;
    if lo >= hi {
        return Err(format!("empty seed range `{v}`"));
    }
    Ok(lo..hi)
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        seeds: 0..50,
        workers: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        time_box: None,
        budget: MatrixConfig::default().budget,
        mutate: false,
        repro_dir: None,
        telemetry: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => {
                let v = args.next().ok_or("missing value for --seeds")?;
                opts.seeds = parse_range(&v)?;
            }
            "--smoke" => opts.seeds = 0..16,
            "-j" | "--jobs" => {
                let v = args.next().ok_or("missing value for -j")?;
                opts.workers = v.parse().map_err(|_| format!("bad worker count `{v}`"))?;
            }
            "--time-box" => {
                let v = args.next().ok_or("missing value for --time-box")?;
                let secs: u64 = v.parse().map_err(|_| format!("bad time box `{v}`"))?;
                opts.time_box = Some(Duration::from_secs(secs));
            }
            "--budget" => {
                let v = args.next().ok_or("missing value for --budget")?;
                opts.budget = v.parse().map_err(|_| format!("bad budget `{v}`"))?;
            }
            "--mutate-decode-cache" => opts.mutate = true,
            "--repro-dir" => {
                opts.repro_dir = Some(PathBuf::from(
                    args.next().ok_or("missing value for --repro-dir")?,
                ));
            }
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

/// One seed through the oracle: benign program (must agree everywhere,
/// zero violations) plus every corruption variant of the policy axis
/// (each must be flagged by exactly the predicted policies everywhere).
/// On divergence the job shrinks the program, writes a reproducer, and
/// fails with the divergence detail.
struct FuzzSeedJob {
    seed: u64,
    matrix: MatrixConfig,
    mutate: bool,
    repro_dir: PathBuf,
}

impl FuzzSeedJob {
    fn check_variant(&self, prog: &FuzzProgram, what: &str) -> Result<usize, String> {
        match check(prog, &self.matrix) {
            Ok(ok) => Ok(ok.reference.stream.len()),
            Err(divergence) => {
                let shrunk = shrink(prog, &self.matrix);
                let detail = check(&shrunk, &self.matrix)
                    .err()
                    .unwrap_or_else(|| divergence.clone());
                let ctx = ReproContext {
                    seed: self.seed,
                    divergence: &detail,
                    mutation_hook: self.mutate,
                };
                let written = match write_repro(&self.repro_dir, &shrunk, &ctx) {
                    Ok(path) => format!("reproducer: {}", path.display()),
                    Err(e) => format!("(reproducer write failed: {e})"),
                };
                Err(format!(
                    "seed {} {what} diverged: {detail}\n{written}",
                    self.seed
                ))
            }
        }
    }
}

impl Job for FuzzSeedJob {
    fn label(&self) -> String {
        format!("fuzz:{}", self.seed)
    }

    fn run(&self) -> Result<JobOutput, String> {
        let benign = if self.mutate {
            FuzzProgram::generate_opts(
                self.seed,
                GenOptions {
                    force_self_modify: true,
                },
            )
        } else {
            FuzzProgram::generate(self.seed)
        };
        let logs = self.check_variant(&benign, "benign")?;
        for variant in CorruptionVariant::ALL {
            let corrupted = benign.with_corruption_variant(variant);
            let _ = self.check_variant(&corrupted, &format!("{variant:?}"))?;
        }
        Ok(JobOutput {
            artifact: format!("seed {}: ok ({logs} logs)\n", self.seed),
            metrics: vec![("stream_logs".to_string(), logs as f64)],
        })
    }
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("fuzz: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if opts.mutate {
        riscv_isa::predecode::set_mutate_skip_store_invalidation(true);
        eprintln!("fuzz: planted decode-cache bug ARMED (oracle self-test)");
    }
    let repro_dir = opts.repro_dir.clone().unwrap_or_else(|| {
        if opts.mutate {
            PathBuf::from("target/fuzz-repros")
        } else {
            PathBuf::from("tests/repros")
        }
    });

    let matrix = MatrixConfig {
        budget: opts.budget,
        multicore: true,
    };
    let sink = match opts.telemetry.as_deref() {
        None => TelemetrySink::Null,
        Some("-") => TelemetrySink::Stderr,
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => TelemetrySink::File(f),
            Err(e) => {
                eprintln!("fuzz: cannot open telemetry file {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let telemetry = Telemetry::new(sink);

    // The time box bounds dispatch, not a single job: seeds go to the pool
    // in waves and the deadline is checked between waves.
    let started = Instant::now();
    let wave = (opts.workers.max(1) * 8) as u64;
    let total = opts.seeds.end - opts.seeds.start;
    let mut dispatched = 0u64;
    let mut divergent: Vec<String> = Vec::new();
    let mut checked = 0u64;
    eprintln!(
        "fuzz: seeds {}..{} ({} seeds), {} workers{}",
        opts.seeds.start,
        opts.seeds.end,
        total,
        opts.workers,
        opts.time_box
            .map_or_else(String::new, |d| format!(", time box {}s", d.as_secs())),
    );

    while dispatched < total {
        if let Some(limit) = opts.time_box {
            if started.elapsed() >= limit {
                eprintln!(
                    "fuzz: time box reached after {checked} seeds; {} not dispatched",
                    total - dispatched
                );
                break;
            }
        }
        let lo = opts.seeds.start + dispatched;
        let hi = (lo + wave).min(opts.seeds.end);
        let jobs: Vec<Arc<dyn Job>> = (lo..hi)
            .map(|seed| {
                Arc::new(FuzzSeedJob {
                    seed,
                    matrix,
                    mutate: opts.mutate,
                    repro_dir: repro_dir.clone(),
                }) as Arc<dyn Job>
            })
            .collect();
        let cfg = CampaignConfig {
            workers: opts.workers,
            retries: 0,
            ..CampaignConfig::default()
        };
        let outcome = run_campaign(jobs, &cfg, &telemetry);
        for record in &outcome.records {
            checked += 1;
            if let titancfi_harness::JobStatus::Failed { error, .. } = &record.status {
                eprintln!("fuzz: DIVERGENCE {}\n{error}", record.label);
                divergent.push(record.label.clone());
            }
        }
        dispatched = hi - opts.seeds.start;
    }

    if opts.mutate {
        riscv_isa::predecode::set_mutate_skip_store_invalidation(false);
        if divergent.is_empty() {
            eprintln!(
                "fuzz: planted decode-cache bug was NOT caught over {checked} seeds — oracle is blind"
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "fuzz: planted bug caught on {} of {checked} seeds; reproducers in {}",
            divergent.len(),
            repro_dir.display()
        );
        return ExitCode::SUCCESS;
    }
    if divergent.is_empty() {
        eprintln!("fuzz: {checked} seeds, zero divergences");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "fuzz: {} divergent seeds of {checked}: {}",
            divergent.len(),
            divergent.join(", ")
        );
        ExitCode::FAILURE
    }
}
