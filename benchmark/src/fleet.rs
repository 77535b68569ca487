//! The `fleet` workload: the fleet service over seeded benign guests.

use crate::alloc::live_bytes;
use crate::guest::{self, FLEET};
use crate::hosts::{merge, reference_run, soc_print, strict};
use crate::run::{rss_per_instance, Bench, Lap, Layers, Reference};
use crate::trace::Tracer;
use cva6_model::Halt;
use riscv_asm::Program;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use titancfi_fleet::transport::InProcRing;
use titancfi_fleet::{
    run_fleet, Backend, Device, FleetConfig, FleetReport, PollOutcome, SocDevice, SocDeviceConfig,
    Transport,
};
use titancfi_soc::{run_baseline, SocConfig, SystemOnChip};

/// Device slots.
const DEVICES: u32 = 256;
/// Worker shards. Pinned rather than taken from the core count, so runs
/// on different machines do the same work.
const SHARDS: usize = 2;
/// Distinct guests; slot `i` runs guest `i % GUESTS`.
const GUESTS: usize = 8;
/// Working supervision turns per slot and lap.
const PASSES: u64 = 150;
/// The simulator cache sizes (decode, block) a fleet device runs with.
/// `SocDevice` does not expose them, so [`check_device_caches`] confirms
/// them against a constructed device on every run.
const DEVICE_CACHES: (usize, usize) = (1024, 256);

/// Host time spent in device construction and polls during traced laps.
#[derive(Debug, Default)]
struct DeviceTimer {
    news: AtomicU64,
    new_ns: AtomicU64,
    polls: AtomicU64,
    poll_ns: AtomicU64,
}

impl DeviceTimer {
    fn add(count: &AtomicU64, total: &AtomicU64, since: Instant) {
        count.fetch_add(1, Ordering::Relaxed);
        total.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// A [`SocDevice`] whose polls are timed.
struct TimedDevice {
    inner: SocDevice,
    timer: Arc<DeviceTimer>,
}

impl Device for TimedDevice {
    fn poll(&mut self) -> PollOutcome {
        let t = Instant::now();
        let out = self.inner.poll();
        DeviceTimer::add(&self.timer.polls, &self.timer.poll_ns, t);
        out
    }

    fn flush(&mut self) -> usize {
        self.inner.flush()
    }

    fn last_seq(&self) -> u16 {
        self.inner.last_seq()
    }

    fn frames_sent(&self) -> u64 {
        self.inner.frames_sent()
    }
}

pub struct Fleet {
    programs: Vec<Arc<Program>>,
    timer: Arc<DeviceTimer>,
    traced_laps: u64,
    reports: Vec<FleetReport>,
}

/// The single-host SoC configuration a fleet device running `program`
/// builds, and the device's per-run cycle limit.
fn device_soc_config(program: &Arc<Program>) -> (SocConfig, u64) {
    let device = SocDeviceConfig::new(Arc::clone(program));
    let config = SocConfig {
        mem_size: device.mem_size,
        fast_path: true,
        block_compile: true,
        decode_cache_slots: DEVICE_CACHES.0,
        block_cache_slots: DEVICE_CACHES.1,
        ..SocConfig::default()
    };
    (config, device.max_run_cycles)
}

/// Checks that `caches` (decode, block) are the sizes a [`SocDevice`]
/// builds its caches with: the bytes a new device holds must be closer to
/// those of a SoC built like [`device_soc_config`] with `caches` than to
/// those of the same SoC with either cache halved or doubled.
fn check_device_caches(program: &Arc<Program>, caches: (usize, usize)) -> Result<(), String> {
    let tx: Arc<dyn Transport> = Arc::new(InProcRing::new(64));
    let config = SocDeviceConfig::new(Arc::clone(program));
    let (_device, device) = live_bytes(|| SocDevice::new(config, tx, 0));
    let gap = |(decode, block): (usize, usize)| {
        let config = SocConfig {
            decode_cache_slots: decode,
            block_cache_slots: block,
            ..device_soc_config(program).0
        };
        let (_soc, bytes) = live_bytes(|| {
            let mut soc = SystemOnChip::new(program, config);
            soc.enable_log_tap();
            soc
        });
        (device - bytes).abs()
    };
    let (d, b) = caches;
    let own = gap(caches);
    for other in [(d / 2, b), (d * 2, b), (d, b / 2), (d, b * 2)] {
        if gap(other) <= own {
            return Err(format!(
                "a fleet device's memory matches cache sizes {other:?} at least as well as \
                 {caches:?}"
            ));
        }
    }
    Ok(())
}

impl Fleet {
    pub fn new(seed: u64, tr: &mut Tracer) -> Fleet {
        let programs: Vec<Arc<Program>> = (0..GUESTS as u64)
            .map(|i| {
                let g = tr.span("guest.generate", |_| {
                    guest::generate(&FLEET, seed.wrapping_mul(GUESTS as u64).wrapping_add(i))
                });
                Arc::new(tr.span("riscv_asm.assemble", |_| g.assemble()))
            })
            .collect();
        for program in &programs {
            let tx: Arc<dyn Transport> = Arc::new(InProcRing::new(64));
            let config = SocDeviceConfig::new(Arc::clone(program));
            drop(tr.span("soc.new", |_| SocDevice::new(config, tx, 0)));
        }
        Fleet {
            programs,
            timer: Arc::default(),
            traced_laps: 0,
            reports: Vec::new(),
        }
    }
}

impl Bench for Fleet {
    fn lap(&mut self, tr: &mut Tracer) -> Lap {
        let config = FleetConfig {
            devices: DEVICES,
            shards: SHARDS,
            passes: PASSES,
            transport_capacity: 64,
            backend: Some(Backend::InProcRing),
            ..FleetConfig::default()
        };
        let programs = self.programs.clone();
        let timer = tr.enabled().then(|| Arc::clone(&self.timer));
        self.traced_laps += u64::from(timer.is_some());
        let r = tr.span("fleet.run", |_| {
            run_fleet(&config, move |slot, seq, tx| {
                let program = Arc::clone(&programs[slot as usize % programs.len()]);
                let config = SocDeviceConfig::new(program);
                match &timer {
                    Some(timer) => {
                        let t = Instant::now();
                        let inner = SocDevice::new(config, tx, seq);
                        DeviceTimer::add(&timer.news, &timer.new_ns, t);
                        Box::new(TimedDevice {
                            inner,
                            timer: Arc::clone(timer),
                        }) as Box<dyn Device>
                    }
                    None => Box::new(SocDevice::new(config, tx, seq)),
                }
            })
        });
        tr.count("fleet.frames_ok", r.frames_ok);
        let mut lap = Lap {
            prints: vec![format!(
                "frames={} cycles={} runs={} violations={}",
                r.frames_ok, r.sim_cycles, r.supervision.completed_runs, r.supervision.violations
            )],
            sim_cycles: r.sim_cycles,
            ops: r.frames_ok,
            violations: r.supervision.violations,
            ..Lap::default()
        };
        if !r.is_lossless() || r.seq_duplicates > 0 || r.seq_gaps > 0 {
            lap.problems.push(format!(
                "fleet lost data: {} lost, {} corrupt, {} duplicate, {} gaps, {} undrained",
                r.frames_lost, r.frames_corrupt, r.seq_duplicates, r.seq_gaps, r.undrained_devices
            ));
        }
        if r.supervision.permanent_failures > 0 {
            lap.problems.push(format!(
                "{} devices failed permanently",
                r.supervision.permanent_failures
            ));
        }
        self.reports.push(r);
        lap
    }

    fn expected_violations(&self) -> u64 {
        0
    }

    fn verify(&mut self, _: &Lap) -> Reference {
        let mut r = Reference::default();
        if let Err(e) = check_device_caches(&self.programs[0], DEVICE_CACHES) {
            r.failures.push(format!("{e}: update DEVICE_CACHES"));
        }
        for (i, program) in self.programs.iter().enumerate() {
            let (config, max_cycles) = device_soc_config(program);
            let (block, a0, logs, _) = reference_run(program, config, false);
            let (reference, ref_a0, _, latency) = reference_run(program, strict(config), true);
            let (block_print, strict_print) =
                (soc_print(&block, a0), soc_print(&reference, ref_a0));
            if block_print != strict_print {
                r.failures.push(format!(
                    "guest {i}: block {block_print} != strict {strict_print}"
                ));
            }
            if block.halt != Halt::Breakpoint || block.cycles >= max_cycles {
                r.failures.push(format!(
                    "guest {i}: {:?} after {} cycles, device limit {max_cycles}",
                    block.halt, block.cycles
                ));
            }
            let (halt, baseline) = run_baseline(program, &config);
            if halt != Halt::Breakpoint {
                r.failures
                    .push(format!("guest {i}: baseline halted with {halt:?}"));
            }
            r.cfi_cycles += block.cycles;
            r.baseline_cycles += baseline;
            r.streams.push(logs);
            r.soc.add(&block);
            if let Some(spans) = latency {
                merge(&mut r.latency, spans);
            }
        }
        r
    }

    fn guests(&self) -> (Vec<Arc<Program>>, usize, Option<(usize, usize)>) {
        let mem = device_soc_config(&self.programs[0]).0.mem_size;
        (self.programs.clone(), mem, Some(DEVICE_CACHES))
    }

    fn soc_rss_kib(&self) -> f64 {
        rss_per_instance(|| {
            let tx: Arc<dyn Transport> = Arc::new(InProcRing::new(64));
            SocDevice::new(SocDeviceConfig::new(Arc::clone(&self.programs[0])), tx, 0)
        })
    }

    fn layers(&mut self, first: &Lap, reference: &Reference, layers: &mut Layers) {
        let t = &self.timer;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
        layers.set("soc.new_ms", load(&t.new_ns) / load(&t.news).max(1.0) / 1e6);
        layers.set(
            "soc.run_s",
            load(&t.poll_ns) / self.traced_laps.max(1) as f64 / 1e9,
        );
        layers.set(
            "device.poll_us",
            load(&t.poll_ns) / load(&t.polls).max(1.0) / 1e3,
        );
        // The bare-core probe ran each guest once; a lap simulates many
        // runs, so scale it to the lap's simulated cycles.
        let scale = first.sim_cycles as f64 / reference.cfi_cycles.max(1) as f64;
        layers.set("cva6.run_s", layers.get("cva6.run_s") * scale);
        let mean = |f: fn(&FleetReport) -> u64| {
            self.reports.iter().map(|r| f(r) as f64).sum::<f64>() / self.reports.len().max(1) as f64
        };
        layers.set("fleet.steals", mean(|r| r.steals));
        layers.set("fleet.send_stalls", mean(|r| r.send_stalls));
    }

    fn info(&self) -> Vec<(&'static str, f64, &'static str)> {
        let n = self.reports.len().max(1) as f64;
        vec![
            (
                "fleet.boot_s",
                self.reports.iter().map(|r| r.boot_seconds).sum::<f64>() / n,
                "s",
            ),
            (
                "fleet.wall_s",
                self.reports.iter().map(|r| r.wall_seconds).sum::<f64>() / n,
                "s",
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_cache_sizes_are_the_devices_own() {
        let program = Arc::new(guest::generate(&FLEET, 1).assemble());
        assert_eq!(check_device_caches(&program, DEVICE_CACHES), Ok(()));
        // The check tells neighbouring sizes apart.
        let (d, b) = DEVICE_CACHES;
        for wrong in [(d * 2, b), (d, b / 2)] {
            assert!(check_device_caches(&program, wrong).is_err(), "{wrong:?}");
        }
    }
}
