//! `compare`: medians, quartiles and a verdict per workload and metric,
//! from several result files (`--out`) per side.

use crate::result::WorkloadResult;
use crate::run::{EXACT, NAMES};
use crate::stats::{exact_verdict, quartiles, verdict, Verdict};
use std::path::PathBuf;
use std::process::ExitCode;
use titancfi_harness::Json;

const USAGE: &str = "\
usage: titancfi-benchmark compare --base FILE... --head FILE... [--benchmark PATH]

  --base FILE...    result files (--out) of the parent commit
  --head FILE...    result files of the change, run with the same settings
  --benchmark PATH  bounds and directions (default: BENCHMARK.json next to
                    the benchmark directory)

Runs are paired in the order given; alternate which side runs first.
When every pair shares its seed, the exact simulated metrics (sim_cycles,
cfi_overhead_pct, fw_check_err_pct) must match pair by pair; any
difference is a change, whatever the bound.
";

/// A gated metric: lower-is-better and the bound.
struct Gate {
    lower: bool,
    bound: f64,
}

fn load_json(path: &PathBuf) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `(name, gate)` for every end-to-end metric of a BENCHMARK.json.
fn load_gates(path: &PathBuf) -> Result<Vec<(String, Gate)>, String> {
    let spec = load_json(path)?;
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no end_to_end list", path.display()))?;
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_num);
            match (name, better, bound) {
                (Some(n), Some(b), Some(bound)) => Ok((
                    n.to_string(),
                    Gate {
                        lower: b == "lower",
                        bound,
                    },
                )),
                _ => Err(format!("{}: malformed end_to_end entry", path.display())),
            }
        })
        .collect()
}

/// One result file: its seed and workload name → result.
struct ResultFile {
    seed: u64,
    workloads: Vec<(String, WorkloadResult)>,
}

fn load_results(path: &PathBuf) -> Result<ResultFile, String> {
    let json = load_json(path)?;
    let seed = json
        .get("seed")
        .and_then(Json::as_num)
        .ok_or_else(|| format!("{}: no seed", path.display()))? as u64;
    let Some(Json::Obj(workloads)) = json.get("workloads") else {
        return Err(format!("{}: no workloads object", path.display()));
    };
    let workloads = workloads
        .iter()
        .map(|(name, r)| {
            WorkloadResult::from_json(r)
                .map(|r| (name.clone(), r))
                .map_err(|e| format!("{}: {name}: {e}", path.display()))
        })
        .collect::<Result<_, _>>()?;
    Ok(ResultFile { seed, workloads })
}

/// The metric's value in the file, if the file ran the workload.
fn value(file: &ResultFile, workload: &str, metric: &str) -> Option<f64> {
    let (_, r) = file.workloads.iter().find(|(w, _)| w == workload)?;
    r.metrics
        .iter()
        .chain(&r.info)
        .find(|(name, _, _)| name == metric)
        .map(|&(_, v, _)| v)
}

fn values(side: &[ResultFile], workload: &str, metric: &str) -> Vec<f64> {
    side.iter()
        .filter_map(|file| value(file, workload, metric))
        .collect()
}

/// `(base, head)` values of the pairs of files run at the same seed, or
/// `None` when any pair's seeds differ or a file lacks the metric.
fn same_seed_pairs(
    base: &[ResultFile],
    head: &[ResultFile],
    workload: &str,
    metric: &str,
) -> Option<Vec<(f64, f64)>> {
    base.iter()
        .zip(head)
        .map(|(b, h)| {
            (b.seed == h.seed).then_some(())?;
            Some((value(b, workload, metric)?, value(h, workload, metric)?))
        })
        .collect()
}

/// `v` with six significant digits.
fn sig(v: f64) -> String {
    let digits = if v == 0.0 {
        0
    } else {
        v.abs().log10().floor() as i32
    };
    format!("{v:.*}", (5 - digits).max(0) as usize)
}

pub fn main(args: &[String]) -> ExitCode {
    let mut base = Vec::new();
    let mut head = Vec::new();
    let mut spec = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let mut side: Option<&mut Vec<PathBuf>> = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--base" => side = Some(&mut base),
            "--head" => side = Some(&mut head),
            "--benchmark" => match args.next() {
                Some(p) => spec = PathBuf::from(p),
                None => {
                    eprintln!("compare: --benchmark needs a path\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            file if !file.starts_with("--") && side.is_some() => {
                side.as_mut()
                    .expect("checked above")
                    .push(PathBuf::from(file));
            }
            other => {
                eprintln!("compare: unexpected argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if base.is_empty() || head.is_empty() {
        eprintln!("compare: need at least one file per side\n{USAGE}");
        return ExitCode::from(2);
    }
    let loaded = (|| -> Result<_, String> {
        let gates = load_gates(&spec)?;
        let base: Vec<_> = base.iter().map(load_results).collect::<Result<_, _>>()?;
        let head: Vec<_> = head.iter().map(load_results).collect::<Result<_, _>>()?;
        Ok((gates, base, head))
    })();
    let (gates, base, head) = match loaded {
        Ok(l) => l,
        Err(e) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };

    let mut regressed = 0;
    let mut incorrect = 0;
    for side in [&base, &head] {
        for (workload, r) in side.iter().flat_map(|f| &f.workloads) {
            if !r.correct {
                incorrect += 1;
                eprintln!(
                    "compare: an incorrect {workload} run ({} of {} failed)",
                    r.failed, r.attempted
                );
            }
        }
    }
    println!(
        "{:<11} {:<28} {:>38}  {:>38}  verdict",
        "workload", "metric", "base q1 / median / q3", "head q1 / median / q3"
    );
    for workload in NAMES {
        let Some((_, sample)) = base
            .iter()
            .flat_map(|f| &f.workloads)
            .find(|(w, _)| w == workload)
        else {
            continue;
        };
        for (metric, _, unit) in sample.metrics.iter().chain(&sample.info) {
            let b = values(&base, workload, metric);
            let h = values(&head, workload, metric);
            let (Some(bq), Some(hq)) = (quartiles(&b), quartiles(&h)) else {
                continue;
            };
            let label = match gates.iter().find(|(name, _)| name == metric) {
                Some((_, gate)) => {
                    let exact = EXACT
                        .contains(&metric.as_str())
                        .then(|| same_seed_pairs(&base, &head, workload, metric))
                        .flatten();
                    let v = match exact {
                        Some(pairs) => exact_verdict(&pairs, gate.lower),
                        None => verdict(&b, &h, gate.bound, gate.lower),
                    };
                    regressed += usize::from(v == Verdict::Regressed);
                    v.label()
                }
                None => "-",
            };
            let fmt =
                |(q1, m, q3): (f64, f64, f64)| format!("{} / {} / {}", sig(q1), sig(m), sig(q3));
            println!(
                "{workload:<11} {:<28} {:>38}  {:>38}  {label}",
                format!("{metric} ({unit})"),
                fmt(bq),
                fmt(hq)
            );
        }
    }
    println!(
        "{} base and {} head file(s); {regressed} regression(s), {incorrect} incorrect run(s)",
        base.len(),
        head.len()
    );
    if regressed > 0 || incorrect > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
