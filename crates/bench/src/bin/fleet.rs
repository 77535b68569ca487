//! Fleet saturation benchmark: devices × commit-logs/sec.
//!
//! ```text
//! cargo run --release -p titancfi-bench --bin fleet -- \
//!     --smoke --out BENCH_fleet.json --baseline BENCH_fleet.json
//! ```
//!
//! Sweeps the fleet service over increasing device counts (the full sweep
//! tops out above 1000 simulated SoCs) and records, per count, the
//! commit-log ingest rate the monitor sustained, with the wire protocol's
//! loss accounting alongside.
//!
//! **Hermetic points.** Every sweep point runs in a fresh child process
//! (the binary re-execs itself with the hidden `--point` flag). A
//! thousand-device fleet leaves ~half a gigabyte of allocator state
//! behind; measured in-process, later points inherit the earlier points'
//! arena fragmentation and their recycle churn degenerates into
//! madvise/refault storms that have nothing to do with the service being
//! measured. One process per point gives every row the same clean heap.
//! An untimed warmup point runs first so lazily-backed VM memory is
//! host-resident before anything is timed, and each point takes the best
//! of two runs to shed residual single-CPU scheduling noise.
//!
//! Three gates, each a nonzero exit:
//!
//! * **Integrity** (absolute): a single lost, corrupt, duplicated or
//!   gapped frame — or a device left undrained at shutdown — fails the
//!   run, at every swept count and on *every* run including discarded
//!   timing samples.
//! * **Scaling** (every sweep): every row's logs/s must stay at or above
//!   the smallest-fleet row (within [`SCALING_TOLERANCE`]). The service
//!   inverse-scaled once — 29.4k logs/s at 16 devices collapsing to 7.4k
//!   at 256 — and that smell must never return.
//! * **Baseline** (`--baseline`): per-device-count logs/s must stay within
//!   [`REGRESSED_TOLERANCE`] of a previous report, so CI can pin the
//!   committed BENCH_fleet.json as a floor. A missing or unparseable
//!   baseline fails too.

use std::process::ExitCode;
use std::sync::Arc;
use titancfi_bench::gate::{Baseline, Bound};
use titancfi_fleet::{
    call_dense_workload, run_fleet, FleetConfig, FleetReport, SocDevice, SocDeviceConfig,
};
use titancfi_harness::Json;

const USAGE: &str = "\
usage: fleet [options]

      --smoke         small device counts (CI smoke run)
      --out PATH      write the JSON report to PATH (default: BENCH_fleet.json)
      --shards N      worker shard count (default: one per core, clamped 2..8)
      --baseline P    compare logs/s per device count against a previous
                      report; fail on regression beyond 20%, or if P is
                      missing or unparseable
  -h, --help          this text
";

struct Options {
    smoke: bool,
    out: String,
    shards: Option<usize>,
    baseline: Option<String>,
    /// Hidden hermetic-child mode: run one `devices:passes` point in this
    /// process and print its row JSON as the only stdout line.
    point: Option<(u32, u64)>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        smoke: false,
        out: "BENCH_fleet.json".to_string(),
        shards: None,
        baseline: None,
        point: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--out" => opts.out = args.next().ok_or("missing value for --out")?,
            "--shards" => {
                let value = args.next().ok_or("missing value for --shards")?;
                let n: usize = value
                    .parse()
                    .map_err(|_| format!("invalid --shards `{value}`"))?;
                if n == 0 {
                    return Err("--shards must be at least 1".to_string());
                }
                opts.shards = Some(n);
            }
            "--baseline" => {
                opts.baseline = Some(args.next().ok_or("missing value for --baseline")?);
            }
            "--point" => {
                let value = args.next().ok_or("missing value for --point")?;
                let (d, p) = value
                    .split_once(':')
                    .ok_or_else(|| format!("--point wants devices:passes, got `{value}`"))?;
                opts.point = Some((
                    d.parse()
                        .map_err(|_| format!("invalid --point `{value}`"))?,
                    p.parse()
                        .map_err(|_| format!("invalid --point `{value}`"))?,
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

fn shard_count() -> usize {
    // One worker shard per core (workers both simulate and ingest now —
    // there is no dedicated ingest thread to reserve a core for), clamped
    // to a useful range.
    std::thread::available_parallelism()
        .map_or(2, std::num::NonZeroUsize::get)
        .clamp(2, 8)
}

/// Outer loops in the guest workload. Long enough that steady-state
/// streaming dominates each supervised run (a run spans ~50 poll slices)
/// while clean completions — and the recycle path they exercise — still
/// occur at every swept device count.
const WORKLOAD_LOOPS: u32 = 64;

fn run_point(devices: u32, passes: u64, shards: usize) -> FleetReport {
    let program = Arc::new(call_dense_workload(WORKLOAD_LOOPS));
    let config = FleetConfig {
        devices,
        shards,
        passes,
        transport_capacity: 64,
        ..FleetConfig::default()
    };
    run_fleet(&config, move |_, seq, tx| {
        Box::new(SocDevice::new(
            SocDeviceConfig::new(Arc::clone(&program)),
            tx,
            seq,
        ))
    })
}

/// Timing samples per sweep point; the best (highest logs/s) is recorded.
/// Integrity is enforced on every sample, kept or discarded.
const SAMPLES_PER_POINT: usize = 2;

/// Spawns this binary back on itself to run one point hermetically.
/// Returns the child's row JSON.
fn run_point_hermetic(devices: u32, passes: u64, shards: usize) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = std::process::Command::new(exe)
        .arg("--point")
        .arg(format!("{devices}:{passes}"))
        .arg("--shards")
        .arg(shards.to_string())
        .output()
        .map_err(|e| format!("spawn point child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{devices}-device child produced no output"))?;
    let row = Json::parse(line)
        .map_err(|e| format!("{devices}-device child row unparseable: {e} in `{line}`"))?;
    if !output.status.success() {
        let failures: Vec<String> = row_failures(&row);
        return Err(format!(
            "{devices}-device child failed ({}): {}",
            output.status,
            if failures.is_empty() {
                String::from_utf8_lossy(&output.stderr).trim().to_string()
            } else {
                failures.join(", ")
            }
        ));
    }
    Ok(row)
}

/// Logs/s tolerance for the `--baseline` gate: anything within 20% of the
/// previous report is measurement noise, anything beyond it is a real
/// throughput regression (the same band the throughput bench uses).
const REGRESSED_TOLERANCE: f64 = 0.8;

/// Tolerance for the monotone-scaling gate: every row must sustain at
/// least 90% of the smallest fleet's logs/s. The band is tighter than the
/// baseline gate's because both numbers come from the *same* run — no
/// cross-run machine variance to absorb, only scheduler wobble.
const SCALING_TOLERANCE: f64 = 0.9;

/// The inverse-scaling gate: every row's logs/s must hold the smallest
/// fleet's rate (within [`SCALING_TOLERANCE`]). Monitors that serialize
/// ingest collapse superlinearly with fleet size; this catches the smell
/// whatever the absolute numbers are.
fn scaling_failures(points: &[(u32, f64)]) -> Vec<String> {
    let Some(&(first_devices, first_rate)) = points.first() else {
        return Vec::new();
    };
    points
        .iter()
        .skip(1)
        .filter(|&&(_, rate)| rate < first_rate * SCALING_TOLERANCE)
        .map(|&(devices, rate)| {
            format!(
                "{devices} devices: {rate:.0} logs/s < {:.0}% of the \
                 {first_devices}-device row ({first_rate:.0} logs/s) — inverse scaling",
                SCALING_TOLERANCE * 100.0
            )
        })
        .collect()
}

/// Integrity failures in one report, rendered for the gate.
fn integrity_failures(r: &FleetReport) -> Vec<String> {
    let mut out = Vec::new();
    if r.frames_lost > 0 {
        out.push(format!("{} frames lost", r.frames_lost));
    }
    if r.frames_corrupt > 0 {
        out.push(format!("{} frames corrupt", r.frames_corrupt));
    }
    if r.seq_duplicates > 0 {
        out.push(format!("{} duplicate seqs", r.seq_duplicates));
    }
    if r.seq_gaps > 0 {
        out.push(format!("{} seq gaps", r.seq_gaps));
    }
    if r.undrained_devices > 0 {
        out.push(format!("{} undrained devices", r.undrained_devices));
    }
    if r.supervision.permanent_failures > 0 {
        out.push(format!(
            "{} unreaped (permanently failed) devices",
            r.supervision.permanent_failures
        ));
    }
    out
}

/// Integrity failures re-derived from a row JSON (the hermetic parent's
/// view of a child's report).
fn row_failures(row: &Json) -> Vec<String> {
    let field = |name: &str| row.get(name).and_then(Json::as_num).unwrap_or(0.0) as u64;
    let mut out = Vec::new();
    for (name, what) in [
        ("frames_lost", "frames lost"),
        ("frames_corrupt", "frames corrupt"),
        ("seq_duplicates", "duplicate seqs"),
        ("seq_gaps", "seq gaps"),
        ("undrained_devices", "undrained devices"),
        (
            "permanent_failures",
            "unreaped (permanently failed) devices",
        ),
    ] {
        let n = field(name);
        if n > 0 {
            out.push(format!("{n} {what}"));
        }
    }
    out
}

fn row_json(r: &FleetReport) -> Json {
    Json::obj(vec![
        ("devices", Json::Num(f64::from(r.devices))),
        ("shards", Json::Num(r.shards as f64)),
        ("frames_ok", Json::Num(r.frames_ok as f64)),
        ("logs_per_sec", Json::Num(r.logs_per_second())),
        ("boot_ms", Json::Num(r.boot_seconds * 1e3)),
        ("wall_ms", Json::Num(r.wall_seconds * 1e3)),
        ("sim_cycles", Json::Num(r.sim_cycles as f64)),
        ("turns", Json::Num(r.turns as f64)),
        (
            "completed_runs",
            Json::Num(r.supervision.completed_runs as f64),
        ),
        (
            "permanent_failures",
            Json::Num(r.supervision.permanent_failures as f64),
        ),
        ("send_stalls", Json::Num(r.send_stalls as f64)),
        ("steals", Json::Num(r.steals as f64)),
        ("frames_lost", Json::Num(r.frames_lost as f64)),
        ("frames_corrupt", Json::Num(r.frames_corrupt as f64)),
        ("seq_duplicates", Json::Num(r.seq_duplicates as f64)),
        ("seq_gaps", Json::Num(r.seq_gaps as f64)),
        (
            "undrained_devices",
            Json::Num(f64::from(r.undrained_devices)),
        ),
        (
            "transport",
            Json::obj(vec![
                ("sent", Json::Num(r.transport.sent as f64)),
                ("received", Json::Num(r.transport.received as f64)),
                ("corrupt", Json::Num(r.transport.corrupt as f64)),
                ("would_block", Json::Num(r.transport.would_block as f64)),
            ]),
        ),
    ])
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("fleet: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Hermetic-child mode: one point, row JSON on stdout, exit code is the
    // integrity verdict. Everything else stays in the parent.
    if let Some((devices, passes)) = opts.point {
        let shards = opts.shards.unwrap_or_else(shard_count);
        let report = run_point(devices, passes, shards);
        let failures = integrity_failures(&report);
        println!("{}", row_json(&report).encode());
        for failure in &failures {
            eprintln!("fleet: INTEGRITY {devices} devices: {failure}");
        }
        return if failures.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // Passes shrink as device counts grow so every point does comparable
    // total work and the sweep measures *scaling*, not just more work.
    let sweep: Vec<(u32, u64)> = if opts.smoke {
        vec![(8, 200), (32, 100)]
    } else {
        vec![(16, 800), (64, 400), (256, 150), (1024, 60)]
    };
    let shards = opts.shards.unwrap_or_else(shard_count);
    let mode = if opts.smoke { "smoke" } else { "full" };
    println!("fleet saturation ({mode}, {shards} worker shards, sharded ingest, hermetic points)");

    // Read the baseline up front: CI passes the same path for --baseline
    // and --out, so it must be parsed before the new report overwrites it.
    let baseline = match opts.baseline.as_deref().map(Baseline::load).transpose() {
        Ok(baseline) => baseline,
        Err(e) => {
            eprintln!("fleet: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Untimed warmup at the largest count: fault the VM's lazily-backed
    // memory host-resident once so no timed point pays first-touch costs.
    let &(warm_devices, warm_passes) = sweep.last().expect("sweep is never empty");
    if let Err(e) = run_point_hermetic(warm_devices, warm_passes.div_ceil(2).max(1), shards) {
        eprintln!("fleet: {e}");
        return ExitCode::FAILURE;
    }

    let mut rows = Vec::new();
    let mut points: Vec<(u32, f64)> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for &(devices, passes) in &sweep {
        let mut best: Option<Json> = None;
        for _ in 0..SAMPLES_PER_POINT {
            let row = match run_point_hermetic(devices, passes, shards) {
                Ok(row) => row,
                Err(e) => {
                    eprintln!("fleet: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for failure in row_failures(&row) {
                failures.push(format!("INTEGRITY {devices} devices: {failure}"));
            }
            let rate = |r: &Json| r.get("logs_per_sec").and_then(Json::as_num).unwrap_or(0.0);
            if best.as_ref().is_none_or(|b| rate(&row) > rate(b)) {
                best = Some(row);
            }
        }
        let row = best.expect("at least one sample per point");
        let field = |name: &str| row.get(name).and_then(Json::as_num).unwrap_or(0.0);
        println!(
            "{:>5} devices  {:>9} logs  {:>12.0} logs/s  {:>9.0} ms  {:>6} runs  {:>7} stalls  {:>4} steals  {}",
            devices,
            field("frames_ok") as u64,
            field("logs_per_sec"),
            field("wall_ms"),
            field("completed_runs") as u64,
            field("send_stalls") as u64,
            field("steals") as u64,
            if row_failures(&row).is_empty() {
                "ok"
            } else {
                "INTEGRITY FAIL"
            },
        );
        points.push((devices, field("logs_per_sec")));
        rows.push(row);
    }

    // The scaling gate runs on every sweep (the smoke sweep's two points
    // gate too — cheap CI coverage for the same smell).
    for failure in scaling_failures(&points) {
        failures.push(format!("SCALING {failure}"));
    }
    let baseline_ok = baseline.as_ref().is_none_or(|base| {
        base.check(
            &rows,
            &["devices"],
            "logs_per_sec",
            Bound::AtLeast(REGRESSED_TOLERANCE),
        )
        .passed("fleet")
    });

    let json = Json::obj(vec![
        ("schema", Json::Num(3.0)),
        ("mode", Json::Str(mode.to_string())),
        ("shards", Json::Num(shards as f64)),
        ("rows", Json::Arr(rows)),
    ]);
    if let Err(e) = std::fs::write(&opts.out, json.encode() + "\n") {
        eprintln!("fleet: cannot write {}: {e}", opts.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {}", opts.out);

    for f in &failures {
        eprintln!("fleet: {f}");
    }
    if !failures.is_empty() || !baseline_ok {
        return ExitCode::FAILURE;
    }
    println!("every swept count lossless (integrity word verified at ingest), scaling monotone");
    ExitCode::SUCCESS
}
