//! One benchmark run of one workload: set-up, a warm-up lap, untimed
//! reference checks, timed laps for the requested seconds, and (traced run
//! only) the per-layer probes.
//!
//! The load is closed-loop with a single client: a lap starts when the
//! previous one has finished. Every lap does the same work, so the median
//! lap time is comparable between commits however many laps fit.

use crate::fleet::Fleet;
use crate::hosts::{DualHost, SingleHost};
use crate::stats;
use crate::trace::Tracer;
use cva6_model::{Cva6Core, Halt, TimingConfig};
use riscv_asm::Program;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use titancfi::firmware::{build_firmware, FirmwareKind, FirmwareRunner};
use titancfi::wire::Frame;
use titancfi::CommitLog;
use titancfi_fleet::transport::InProcRing;
use titancfi_fleet::{
    Device, DeviceCounters, DeviceStatus, HealthConfig, HealthMonitor, SocDevice, SocDeviceConfig,
    Transport,
};
use titancfi_obs::LatencySpans;
use titancfi_workloads::published::LATENCY_POLL;

/// Workload names, in run order.
pub const NAMES: [&str; 5] = ["suite", "call-dense", "observed", "dual-host", "fleet"];

/// End-to-end metrics (untraced run): name and unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("lap_ms", "ms"),
    ("sim_mcyc_per_s", "Mcyc/s"),
    ("logs_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("sim_cycles", "cycles"),
    ("cfi_overhead_pct", "%"),
    ("fw_check_err_pct", "%"),
];

/// The end-to-end metrics the simulator computes exactly: the same seed
/// gives the same value on every run.
pub const EXACT: [&str; 3] = ["sim_cycles", "cfi_overhead_pct", "fw_check_err_pct"];

/// Per-layer metrics (traced run): name and unit. A layer a workload does
/// not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("riscv_asm.assemble_ms", "ms"),
    ("firmware.build_ms", "ms"),
    ("soc.new_ms", "ms"),
    ("soc.new_rss_kib", "KiB"),
    ("soc.run_s", "s"),
    ("soc.background_share", "ratio"),
    ("cva6.run_s", "s"),
    ("cva6.block_hit_ratio", "ratio"),
    ("cva6.block_resets", "count"),
    ("firmware.check_host_us", "us"),
    ("firmware.check_cycles_mean", "cycles"),
    ("latency.queue_wait_mean", "cycles"),
    ("latency.axi_write_mean", "cycles"),
    ("latency.fw_check_mean", "cycles"),
    ("latency.verdict_read_mean", "cycles"),
    ("latency.end_to_end_mean", "cycles"),
    ("latency.end_to_end_max", "cycles"),
    ("latency.detect_mean", "cycles"),
    ("latency.detect_max", "cycles"),
    ("soc.queue_high_water", "count"),
    ("soc.stalls_queue_full", "cycles"),
    ("soc.stalls_dual_cf", "count"),
    ("fleet.steals", "count"),
    ("fleet.send_stalls", "count"),
    ("device.poll_us", "us"),
    ("transport.send_ns_per_frame", "ns"),
    ("transport.recv_ns_per_frame", "ns"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("health.evaluate_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Simulated-cycle budget of one guest run; every guest halts far sooner.
pub const BUDGET: u64 = 200_000_000;

/// Fewest timed laps of a run, however short `--seconds` is.
const MIN_LAPS: usize = 3;

/// Seconds between the set-ups repeated during the timed laps.
const SETUP_EVERY_S: f64 = 1.0;

/// How one run is measured.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub setup_reps: usize,
}

/// Counters the single-host SoC reports per run, summed over a lap's
/// guests (high water: the maximum).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SocCounters {
    pub queue_high_water: u64,
    pub stalls_queue_full: u64,
    pub stalls_dual_cf: u64,
}

impl SocCounters {
    pub fn add(&mut self, r: &titancfi_soc::SocReport) {
        self.queue_high_water = self.queue_high_water.max(r.queue_high_water as u64);
        self.stalls_queue_full += r.stalls_queue_full;
        self.stalls_dual_cf += r.stalls_dual_cf;
    }
}

/// One lap's outcome.
#[derive(Debug, Clone, Default)]
pub struct Lap {
    /// Result fingerprints (halt, cycles, logs, violations, `a0`, ...), one
    /// per guest; every lap must reproduce the first lap's.
    pub prints: Vec<String>,
    pub sim_cycles: u64,
    /// Operations: commit logs checked (frames ingested on `fleet`).
    pub ops: u64,
    pub violations: u64,
    /// Failed per-lap checks.
    pub problems: Vec<String>,
    pub soc: SocCounters,
    pub latency: Option<LatencySpans>,
}

/// What the untimed reference runs establish.
#[derive(Debug, Default)]
pub struct Reference {
    pub failures: Vec<String>,
    /// Simulated cycles of one run of every guest, with and without CFI.
    pub cfi_cycles: u64,
    pub baseline_cycles: u64,
    /// One lap's commit-log stream per monitored core.
    pub streams: Vec<Vec<CommitLog>>,
    pub latency: Option<LatencySpans>,
    pub soc: SocCounters,
}

/// A workload after set-up.
pub trait Bench {
    /// One lap.
    fn lap(&mut self, tr: &mut Tracer) -> Lap;
    /// Violations every lap must flag: the planted hijacks.
    fn expected_violations(&self) -> u64;
    /// Untimed reference runs, checked against the first lap.
    fn verify(&mut self, first: &Lap) -> Reference;
    /// The guests one lap runs, their RAM, and the host-core simulator
    /// cache sizes (decode, block) the lap uses.
    fn guests(&self) -> (Vec<Arc<Program>>, usize, Option<(usize, usize)>);
    /// The RoT firmware image the workload boots.
    fn firmware(&self) -> Program {
        build_firmware(FirmwareKind::Polling)
    }
    /// Resident-set growth per SoC instance of the workload's kind, in KiB.
    fn soc_rss_kib(&self) -> f64;
    /// Workload-specific per-layer metrics (traced run, after the laps).
    fn layers(&mut self, _first: &Lap, _reference: &Reference, _layers: &mut Layers) {}
    /// Extra informational lines (name, value, unit).
    fn info(&self) -> Vec<(&'static str, f64, &'static str)> {
        Vec::new()
    }
}

/// The per-layer metric values of a traced run.
#[derive(Debug, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect())
    }

    /// Sets a metric declared in [`PER_LAYER`].
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name.
    pub fn set(&mut self, name: &'static str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric {name}")) = value;
    }

    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

/// Everything one run reports.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced), with
    /// units, in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Values printed and saved but not gated.
    pub info: Vec<(&'static str, f64, &'static str)>,
    pub laps: usize,
    pub tracer: Tracer,
}

fn status_kib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0.0)
}

/// Resident-set growth per instance while 32 instances built by `make`
/// are alive, in KiB.
pub fn rss_per_instance<T>(mut make: impl FnMut() -> T) -> f64 {
    let n = 32;
    let before = status_kib("VmRSS:");
    let keep: Vec<T> = (0..n).map(|_| make()).collect();
    let after = status_kib("VmRSS:");
    drop(keep);
    (after - before) / n as f64
}

/// Replays the streams through the Polling firmware, one fresh runner per
/// stream: (checks, RoT cycles, violations, host seconds).
fn replay(streams: &[Vec<CommitLog>], tr: &mut Tracer) -> (u64, u64, u64, f64) {
    let (mut checks, mut cycles, mut violations, mut host_s) = (0, 0, 0, 0.0);
    for stream in streams {
        let mut runner = FirmwareRunner::new(FirmwareKind::Polling);
        let t = Instant::now();
        tr.span("firmware.check", |_| {
            for log in stream {
                let m = runner.check(log);
                cycles += m.latency;
                violations += u64::from(m.violation);
            }
        });
        host_s += t.elapsed().as_secs_f64();
        checks += stream.len() as u64;
    }
    (checks, cycles, violations, host_s)
}

/// Generates and assembles the workload's guests and constructs the SoCs
/// of one lap once, cold.
fn build(name: &str, seed: u64, tr: &mut Tracer) -> Result<Box<dyn Bench>, String> {
    Ok(match name {
        "suite" => Box::new(SingleHost::suite(seed, tr)),
        "call-dense" => Box::new(SingleHost::generated(seed, false, tr)),
        "observed" => Box::new(SingleHost::generated(seed, true, tr)),
        "dual-host" => Box::new(DualHost::new(seed, tr)),
        "fleet" => Box::new(Fleet::new(seed, tr)),
        other => {
            return Err(format!(
                "unknown workload `{other}` (one of: {})",
                NAMES.join(", ")
            ))
        }
    })
}

/// One set-up: the built workload and the host seconds it took.
fn set_up(name: &str, seed: u64, tr: &mut Tracer) -> Result<(Box<dyn Bench>, f64), String> {
    let t = Instant::now();
    let bench = tr.span("setup", |tr| build(name, seed, tr))?;
    Ok((bench, t.elapsed().as_secs_f64()))
}

/// Runs one workload.
///
/// # Errors
///
/// Returns an error for an unknown workload name.
pub fn run(name: &str, opts: &Options) -> Result<Outcome, String> {
    let mut tr = Tracer::new(opts.trace);
    let (mut bench, first_setup_s) = set_up(name, opts.seed, &mut tr)?;
    let mut setup_s = vec![first_setup_s];
    for _ in 1..opts.setup_reps {
        setup_s.push(set_up(name, opts.seed, &mut tr)?.1);
    }
    let expected = bench.expected_violations();
    // Measured before any lap has left freed memory behind for the
    // instances to reuse.
    let soc_rss_kib = if opts.trace { bench.soc_rss_kib() } else { 0.0 };

    // Warm-up lap: untimed, untraced, and the fingerprint every later lap
    // must reproduce.
    tr.set_enabled(false);
    let first = bench.lap(&mut tr);
    tr.set_enabled(opts.trace);
    let mut failures = Vec::new();
    check_lap(&first, &first, expected, &mut failures);
    let reference = bench.verify(&first);
    failures.extend(reference.failures.iter().cloned());
    let (checks, fw_cycles, fw_violations, fw_host_s) = replay(&reference.streams, &mut tr);
    if fw_violations != expected {
        failures.push(format!(
            "firmware replay flagged {fw_violations} violations, {expected} planted"
        ));
    }
    if let Some(lat) = &reference.latency {
        if !lat.conservation_ok() {
            failures.push("latency stages do not sum to end-to-end".to_string());
        }
        if lat.violations != expected || lat.detection.count != expected {
            failures.push(format!(
                "latency collector saw {} violations / {} detections, {expected} planted",
                lat.violations, lat.detection.count
            ));
        }
    }

    let reference_ok = failures.is_empty();

    // Timed laps. In a traced run every other lap is traced, so the
    // untraced laps in between measure the tracing overhead.
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    let mut last_setup = start;
    let mut i = 0usize;
    while i < MIN_LAPS || start.elapsed().as_secs_f64() < opts.seconds {
        // Further set-ups spread over the run, so the set-up median samples
        // the same machine conditions as the laps.
        if last_setup.elapsed().as_secs_f64() >= SETUP_EVERY_S {
            tr.set_enabled(opts.trace);
            setup_s.push(set_up(name, opts.seed, &mut tr)?.1);
            last_setup = Instant::now();
        }
        let traced = opts.trace && i % 2 == 1;
        tr.set_enabled(traced);
        let t = Instant::now();
        let lap = tr.span("lap", |tr| bench.lap(tr));
        let dt = t.elapsed().as_secs_f64();
        if traced {
            traced_s.push(dt);
        } else {
            plain_s.push(dt);
        }
        attempted += lap.ops;
        let mut problems = Vec::new();
        check_lap(&lap, &first, expected, &mut problems);
        if !problems.is_empty() {
            failed += lap.ops.max(1);
            if failures.len() < 10 {
                failures.push(format!("lap {i}: {}", problems.join("; ")));
            }
        }
        i += 1;
    }
    tr.set_enabled(opts.trace);
    if !reference_ok {
        // A failed reference check puts every operation in doubt.
        failed = attempted.max(1);
    }

    let lap_s = stats::median(&plain_s).expect("at least one untraced lap");
    let overhead =
        (reference.cfi_cycles as f64 / reference.baseline_cycles.max(1) as f64 - 1.0) * 100.0;
    let check_mean = fw_cycles as f64 / checks.max(1) as f64;
    let e2e = [
        stats::median(&setup_s).expect("at least one set-up"),
        lap_s * 1e3,
        first.sim_cycles as f64 / lap_s / 1e6,
        first.ops as f64 / lap_s,
        status_kib("VmHWM:") / 1024.0,
        first.sim_cycles as f64,
        overhead,
        (check_mean - LATENCY_POLL as f64).abs() / LATENCY_POLL as f64 * 100.0,
    ];
    let mut info = vec![
        (
            "lap_p90_ms",
            stats::quantiles(&plain_s, 10).expect("laps")[8] * 1e3,
            "ms",
        ),
        ("laps", plain_s.len() as f64, "count"),
        ("setups", setup_s.len() as f64, "count"),
        (
            "failed_frac",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ];
    // The collector's histograms have power-of-two buckets, so their
    // percentiles are bucket bounds; the mean and the maximum are exact.
    if let Some(lat) = &reference.latency {
        info.extend([
            ("check_mean_cycles", lat.end_to_end.mean(), "cycles"),
            ("check_max_cycles", lat.end_to_end.max as f64, "cycles"),
        ]);
        if expected > 0 {
            info.extend([
                ("detect_mean_cycles", lat.detection.mean(), "cycles"),
                ("detect_max_cycles", lat.detection.max as f64, "cycles"),
            ]);
        }
    }
    info.extend(bench.info());

    let metrics = if opts.trace {
        let mut layers = Layers::new();
        layers.set("riscv_asm.assemble_ms", {
            let total: f64 = tr.durations_s("riscv_asm.assemble").iter().sum();
            total / tr.durations_s("setup").len().max(1) as f64 * 1e3
        });
        layers.set("soc.new_ms", tr.mean_self_s("soc.new") * 1e3);
        let traced_laps = traced_s.len().max(1) as f64;
        let engine_s: f64 = ["soc.run", "multicore.run"]
            .iter()
            .map(|name| tr.durations_s(name).iter().sum::<f64>())
            .sum();
        layers.set("soc.run_s", engine_s / traced_laps);
        layers.set(
            "firmware.check_host_us",
            fw_host_s / checks.max(1) as f64 * 1e6,
        );
        layers.set("firmware.check_cycles_mean", check_mean);
        if let Some(lat) = &reference.latency {
            layers.set("latency.queue_wait_mean", lat.queue_wait.mean());
            layers.set("latency.axi_write_mean", lat.axi_write.mean());
            layers.set("latency.fw_check_mean", lat.fw_check.mean());
            layers.set("latency.verdict_read_mean", lat.verdict_read.mean());
            layers.set("latency.end_to_end_mean", lat.end_to_end.mean());
            layers.set("latency.end_to_end_max", lat.end_to_end.max as f64);
            layers.set("latency.detect_mean", lat.detection.mean());
            layers.set("latency.detect_max", lat.detection.max as f64);
        }
        layers.set(
            "soc.queue_high_water",
            reference.soc.queue_high_water as f64,
        );
        layers.set(
            "soc.stalls_queue_full",
            reference.soc.stalls_queue_full as f64,
        );
        layers.set("soc.stalls_dual_cf", reference.soc.stalls_dual_cf as f64);
        layers.set("soc.new_rss_kib", soc_rss_kib);
        probe_layers(&mut *bench, &mut tr, &reference, &mut layers);
        bench.layers(&first, &reference, &mut layers);
        let cva6 = layers.get("cva6.run_s");
        let engine = layers.get("soc.run_s");
        if engine > 0.0 {
            layers.set("soc.background_share", 1.0 - cva6 / engine);
        }
        let traced_lap_s = stats::median(&traced_s).expect("at least one traced lap");
        layers.set("trace.overhead_pct", (traced_lap_s / lap_s - 1.0) * 100.0);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layers.get(name), unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect()
    };
    if opts.trace {
        info.extend(
            END_TO_END
                .iter()
                .zip(e2e)
                .map(|(&(name, unit), value)| (name, value, unit)),
        );
    }
    Ok(Outcome {
        correct: failures.is_empty() && failed == 0,
        attempted,
        failed,
        failures,
        metrics,
        info,
        laps: plain_s.len() + traced_s.len(),
        tracer: tr,
    })
}

fn check_lap(lap: &Lap, first: &Lap, expected: u64, failures: &mut Vec<String>) {
    failures.extend(lap.problems.iter().cloned());
    if lap.prints != first.prints {
        failures.push("lap result differs from the first lap".to_string());
    }
    if lap.violations != expected {
        failures.push(format!(
            "lap flagged {} violations, {expected} planted",
            lap.violations
        ));
    }
}

/// The layer probes every workload shares; they run the workload's own
/// guests and commit-log stream, after the timed laps.
fn probe_layers(
    bench: &mut dyn Bench,
    tr: &mut Tracer,
    reference: &Reference,
    layers: &mut Layers,
) {
    const REPS: usize = 5;
    for _ in 0..REPS {
        std::hint::black_box(tr.span("firmware.build", |_| bench.firmware()));
    }
    layers.set("firmware.build_ms", tr.mean_self_s("firmware.build") * 1e3);

    // The bare host core on the lap's guests: the part of a lap that is
    // pure host-core simulation.
    let (programs, mem, caches) = bench.guests();
    let (mut hits, mut misses, mut resets) = (0u64, 0u64, 0u64);
    for program in &programs {
        let mut core = Cva6Core::new(program, mem, TimingConfig::default());
        if let Some((decode, block)) = caches {
            core.resize_caches(decode, block);
        }
        let halt = tr.span("cva6.run_silent", |_| core.run_silent(BUDGET));
        assert_eq!(halt, Halt::Breakpoint, "bare-core guest must halt cleanly");
        let s = core.block_cache_stats();
        hits += s.hits;
        misses += s.misses;
        resets += s.resets;
    }
    tr.count("cva6.block_hits", hits);
    tr.count("cva6.block_misses", misses);
    layers.set("cva6.run_s", tr.durations_s("cva6.run_silent").iter().sum());
    layers.set(
        "cva6.block_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    layers.set("cva6.block_resets", resets as f64);

    // One fleet device running the first guest to completion.
    let tx: Arc<dyn Transport> = Arc::new(InProcRing::new(4096));
    let config = SocDeviceConfig {
        mem_size: mem,
        max_run_cycles: BUDGET,
        ..SocDeviceConfig::new(Arc::clone(&programs[0]))
    };
    let mut device = SocDevice::new(config, Arc::clone(&tx), 0);
    let mut buf = [Frame {
        seq: 0,
        log: CommitLog::default(),
    }; 64];
    loop {
        let out = tr.span("device.poll", |_| device.poll());
        while tx.try_recv_many(&mut buf).received == buf.len() {}
        match out.status {
            DeviceStatus::Running => {}
            DeviceStatus::Completed => break,
            DeviceStatus::Trapped(why) => panic!("probe device trapped: {why}"),
        }
    }
    layers.set("device.poll_us", tr.mean_self_s("device.poll") * 1e6);

    // Transport and wire format over the workload's own stream.
    let frames: Vec<Frame> = reference
        .streams
        .iter()
        .flatten()
        .take(1 << 16)
        .enumerate()
        .map(|(i, log)| Frame {
            seq: i as u16,
            log: *log,
        })
        .collect();
    let ring = InProcRing::new(64);
    let (mut send_s, mut recv_s) = (0.0, 0.0);
    tr.span("transport.probe", |_| {
        for batch in frames.chunks(64) {
            let t = Instant::now();
            let sent = ring.send_many(batch);
            send_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let got = ring.try_recv_many(&mut buf);
            recv_s += t.elapsed().as_secs_f64();
            assert_eq!((sent, got.received), (batch.len(), batch.len()));
        }
    });
    let n = frames.len().max(1) as f64;
    layers.set("transport.send_ns_per_frame", send_s / n * 1e9);
    layers.set("transport.recv_ns_per_frame", recv_s / n * 1e9);
    let encoded: Vec<_> = tr.span("wire.encode", |_| {
        frames.iter().map(Frame::encode).collect()
    });
    let decoded = tr.span("wire.decode", |_| {
        encoded
            .iter()
            .filter(|bytes| Frame::decode(&bytes[..]).is_ok())
            .count()
    });
    assert_eq!(decoded, frames.len(), "every encoded frame decodes");
    layers.set("wire.encode_ns", tr.mean_self_s("wire.encode") / n * 1e9);
    layers.set("wire.decode_ns", tr.mean_self_s("wire.decode") / n * 1e9);

    // Health evaluation over a fleet-sized counter snapshot.
    const SLOTS: usize = 256;
    let mut monitor = HealthMonitor::new(SLOTS, HealthConfig::default());
    for round in 0..200u64 {
        let counters: Vec<DeviceCounters> = (0..SLOTS as u64)
            .map(|slot| DeviceCounters {
                frames_ok: round * 64 + slot,
                ..DeviceCounters::default()
            })
            .collect();
        std::hint::black_box(tr.span("health.evaluate", |_| {
            monitor.evaluate(&counters, Some(1200))
        }));
    }
    layers.set(
        "health.evaluate_us",
        tr.mean_self_s("health.evaluate") * 1e6,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use titancfi_harness::Json;

    fn names(spec: &Json, key: &str) -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_a_run_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec =
            Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&spec, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&spec, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, NAMES);
    }
}
