//! The differential fuzzing driver: seeds mapped through the worker pool,
//! each seed running the full cross-configuration oracle (benign program +
//! corruption variants) on every invocation.
//!
//! ```text
//! cargo run --release -p titancfi-bench --bin fuzz -- --seeds 0..200
//! ```
//!
//! Exit status is nonzero if any seed fails: it diverged, panicked, or hung
//! past the pool's watchdog. Under `--mutate-decode-cache` it is nonzero if
//! the planted bug was *not* caught. The CI smoke and nightly steps key on
//! it. Divergences are shrunk to a minimal program and written as
//! self-contained reproducers.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use titancfi_fuzz::{
    check, shrink, write_repro, CorruptionVariant, FuzzProgram, GenOptions, MatrixConfig,
    ReproContext,
};
use titancfi_harness::pool::{self, WATCHDOG};

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
  -h, --help          this text
";

struct Options {
    seeds: std::ops::Range<u64>,
    workers: usize,
    time_box: Option<Duration>,
    budget: u64,
    mutate: bool,
    repro_dir: Option<PathBuf>,
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
/// On divergence the seed shrinks the program, writes a reproducer, and
/// fails with the divergence detail.
struct FuzzSeed {
    seed: u64,
    matrix: MatrixConfig,
    mutate: bool,
    repro_dir: PathBuf,
}

impl FuzzSeed {
    fn check_variant(&self, prog: &FuzzProgram, what: &str) -> Result<(), String> {
        match check(prog, &self.matrix) {
            Ok(_) => Ok(()),
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

    fn run(&self) -> Result<(), String> {
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
        self.check_variant(&benign, "benign")?;
        for variant in CorruptionVariant::ALL {
            let corrupted = benign.with_corruption_variant(variant);
            self.check_variant(&corrupted, &format!("{variant:?}"))?;
        }
        Ok(())
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
    // The time box bounds dispatch, not a single seed (the pool's watchdog
    // does that): seeds go to the pool in waves and the deadline is checked
    // between waves.
    let started = Instant::now();
    let wave = (opts.workers.max(1) * 8) as u64;
    let total = opts.seeds.end - opts.seeds.start;
    let mut dispatched = 0u64;
    let mut failed: Vec<String> = Vec::new();
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
        let seeds: Vec<FuzzSeed> = (lo..hi)
            .map(|seed| FuzzSeed {
                seed,
                matrix,
                mutate: opts.mutate,
                repro_dir: repro_dir.clone(),
            })
            .collect();
        let results = pool::map(seeds, opts.workers, WATCHDOG, |seed| seed.run());
        for (seed, result) in (lo..hi).zip(results) {
            checked += 1;
            if let Err(error) = result {
                eprintln!("fuzz: seed {seed} FAILED\n{error}");
                failed.push(seed.to_string());
            }
        }
        dispatched = hi - opts.seeds.start;
    }

    if opts.mutate {
        riscv_isa::predecode::set_mutate_skip_store_invalidation(false);
        if failed.is_empty() {
            eprintln!(
                "fuzz: planted decode-cache bug was NOT caught over {checked} seeds — oracle is blind"
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "fuzz: planted bug caught on {} of {checked} seeds; reproducers in {}",
            failed.len(),
            repro_dir.display()
        );
        return ExitCode::SUCCESS;
    }
    if failed.is_empty() {
        eprintln!("fuzz: {checked} seeds, zero divergences");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "fuzz: {} failed seeds of {checked}: {}",
            failed.len(),
            failed.join(", ")
        );
        ExitCode::FAILURE
    }
}
