//! The fleet service: N supervised devices, sharded over a worker pool
//! with work-stealing, one transport per device, *sharded* ingest workers
//! verifying and aggregating every frame in batches.
//!
//! Lifecycle of a run:
//!
//! 1. **Boot** — one [`InProcRing`] per slot, the supervisor boots every
//!    slot through the device factory, slot ids are dealt across the shard
//!    queues.
//! 2. **Run** — each shard worker pops a slot and runs a *burst* of up to
//!    [`FleetConfig::turn_burst`] supervision turns on it before
//!    re-enqueueing, so a device's working set (its simulated RAM, decode
//!    and block caches) stays cache-hot across consecutive slices instead
//!    of being evicted by a round-robin pass over the whole fleet. Idle
//!    workers steal from the most loaded shard.
//! 3. **Ingest** — sharded with the workers, not serialized behind one
//!    thread. Every frame is integrity-verified at ingest
//!    ([`titancfi::wire::Frame`]) through batched
//!    [`Transport::try_recv_many`] bursts. The hot path is *poll-coupled*:
//!    the worker that just ran a turn on a slot immediately drains that
//!    slot's transport (the frames it just produced are still in cache,
//!    and the ring's producer and consumer cursors never contend). Each
//!    worker additionally owns a fixed partition of slots
//!    (`slot % shards == shard`) which it sweeps while idle and during
//!    shutdown, so no transport depends on its poller for liveness.
//!    Per-slot sequence trackers and counters live behind per-slot locks,
//!    uncontended in steady state; they are the only copy of each count.
//! 4. **Monitor** — the main thread ingests nothing: it wakes on a fixed
//!    sweep cadence, samples every slot's counters under the same locks,
//!    and evaluates the health monitor.
//! 5. **Drain** — after the workers join (each drains its own partition
//!    dry once supervision quiesces), the service alternates device
//!    flushes with full ingest sweeps until every buffered frame is out of
//!    every device *and* every transport is empty, then verifies
//!    frames-in == frames-out.
//!
//! The [`FleetReport`] carries every counter the acceptance gate needs:
//! zero `frames_lost`, zero `frames_corrupt` on a clean fleet.

use crate::device::Device;
use crate::health::{Alert, DeviceCounters, HealthConfig, HealthMonitor};
use crate::supervisor::{
    fold_histogram, DeviceFactory, FailureRecord, SupervisionConfig, SupervisionStats, Supervisor,
    Turn,
};
use crate::transport::{Backend, InProcRing, Transport, TransportStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use titancfi::wire::{Frame, SeqTracker};
use titancfi_harness::StealQueues;
use titancfi_obs::Histogram;

/// Fleet-wide configuration.
pub struct FleetConfig {
    /// Number of device slots. Zero is legal: the service boots, finds no
    /// work, and reports an all-zero run (the quiescence-protocol
    /// regression case).
    pub devices: u32,
    /// Worker shards (threads) driving the devices *and* ingesting their
    /// partitions of the transports.
    pub shards: usize,
    /// Supervision turns each slot is scheduled for. The run phase ends
    /// when every slot has consumed its passes (or parked).
    pub passes: u64,
    /// Per-transport capacity in frames.
    pub transport_capacity: usize,
    /// Consecutive supervision turns a worker runs on one slot before
    /// re-enqueueing it. Bursts keep a device's simulated RAM and decode
    /// caches hot; without them a thousand-device fleet round-robins its
    /// entire working set through the host cache every pass.
    pub turn_burst: u64,
    /// The transport kind. Every slot gets an [`InProcRing`] whatever this
    /// says; the field stays only because the benchmark package sets it.
    pub backend: Option<Backend>,
    /// Supervision policy.
    pub supervision: SupervisionConfig,
    /// Health-monitor thresholds; the monitor evaluates once every 64
    /// fleet-wide ingest sweeps plus once after the drain phase.
    pub health: HealthConfig,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            devices: 8,
            shards: 4,
            passes: 64,
            transport_capacity: 64,
            turn_burst: 8,
            backend: None,
            supervision: SupervisionConfig::default(),
            health: HealthConfig::default(),
        }
    }
}

/// Everything a finished fleet run reports.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Device slots.
    pub devices: u32,
    /// Worker shards.
    pub shards: usize,
    /// Frames accepted by the transports (device side).
    pub frames_sent: u64,
    /// Frames verified and ingested (monitor side).
    pub frames_ok: u64,
    /// Frames rejected by the integrity word at ingest.
    pub frames_corrupt: u64,
    /// `frames_sent - frames_ok - frames_corrupt`: anything a transport
    /// accepted but never delivered. Zero on a healthy fleet.
    pub frames_lost: u64,
    /// Duplicate sequence numbers observed at ingest.
    pub seq_duplicates: u64,
    /// Sequence gaps observed at ingest.
    pub seq_gaps: u64,
    /// Sends refused with `WouldBlock` (explicit backpressure stalls).
    pub send_stalls: u64,
    /// Work-stealing operations between shards.
    pub steals: u64,
    /// Supervision turns executed.
    pub turns: u64,
    /// Simulated cycles advanced across the whole fleet.
    pub sim_cycles: u64,
    /// Supervision counters (escalations, respawns, completions,
    /// violations).
    pub supervision: SupervisionStats,
    /// Permanent-failure ledger.
    pub ledger: Vec<FailureRecord>,
    /// Devices whose buffers could not be fully drained at shutdown.
    /// Nonzero means the shutdown protocol failed — an unreaped device.
    pub undrained_devices: u32,
    /// Wall-clock seconds spent booting the fleet (transports plus every
    /// slot's first device: firmware boot, program load, predecode). A
    /// one-time setup cost proportional to fleet size — kept out of
    /// [`FleetReport::wall_seconds`] so the throughput figure measures the
    /// sustained service, not the cold start.
    pub boot_seconds: f64,
    /// Wall-clock seconds for the run+drain phases (excludes boot).
    pub wall_seconds: f64,
    /// Transport counters summed over every slot's ring.
    pub transport: TransportStats,
    /// Final per-device health scores (0–100).
    pub health_scores: Vec<u8>,
    /// Every alert the health monitor raised, in fire order.
    pub alerts: Vec<Alert>,
    /// Merged end-to-end latency histogram across every run of every
    /// device that collected one
    /// ([`crate::device::SocDeviceConfig::latency`]), finished runs
    /// included.
    pub latency_e2e: Option<Histogram>,
}

impl FleetReport {
    /// The acceptance predicate: every accepted frame delivered and
    /// verified, nothing corrupt, nobody left undrained.
    #[must_use]
    pub fn is_lossless(&self) -> bool {
        self.frames_lost == 0 && self.frames_corrupt == 0 && self.undrained_devices == 0
    }

    /// Commit logs ingested per wall-clock second of run+drain (boot
    /// excluded — see [`FleetReport::boot_seconds`]).
    #[must_use]
    pub fn logs_per_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.frames_ok as f64 / self.wall_seconds
        } else {
            0.0
        }
    }
}

/// Frames per batched receive on the ingest path.
const INGEST_BATCH: usize = 64;

/// Fleet-wide ingest sweeps between health evaluations.
const HEALTH_EVERY_SWEEPS: u64 = 64;

/// A zeroed frame for receive-buffer initialization.
const ZERO_FRAME: Frame = Frame {
    seq: 0,
    log: titancfi::CommitLog {
        pc: 0,
        insn: 0,
        next: 0,
        target: 0,
    },
};

/// Per-slot ingest state: the sequence tracker plus exact counters. Locked
/// by whichever worker currently drains the slot's transport — its poller
/// on the hot path, the partition owner on idle/drain sweeps — and by the
/// monitor thread once per health tick, so the lock is uncontended in
/// steady state.
struct SlotIngest {
    tracker: SeqTracker,
    frames_ok: u64,
    frames_corrupt: u64,
}

/// Sharded ingest state over every slot.
struct Ingest<'a> {
    transports: &'a [Arc<InProcRing>],
    slots: Vec<Mutex<SlotIngest>>,
    /// Total per-slot drain operations — the health cadence's clock.
    sweeps: AtomicU64,
}

impl<'a> Ingest<'a> {
    fn new(transports: &'a [Arc<InProcRing>]) -> Ingest<'a> {
        Ingest {
            transports,
            slots: (0..transports.len())
                .map(|_| {
                    Mutex::new(SlotIngest {
                        tracker: SeqTracker::new(),
                        frames_ok: 0,
                        frames_corrupt: 0,
                    })
                })
                .collect(),
            sweeps: AtomicU64::new(0),
        }
    }

    fn lock(&self, slot: usize) -> MutexGuard<'_, SlotIngest> {
        self.slots[slot]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Drains one slot's transport to empty in [`INGEST_BATCH`]-frame
    /// bursts, verifying sequence continuity. Returns frames moved
    /// (corrupt frames count — they are progress for quiescence purposes).
    fn drain_slot(&self, slot: usize) -> u64 {
        let mut state = self.lock(slot);
        let mut buf = [ZERO_FRAME; INGEST_BATCH];
        let mut moved = 0u64;
        loop {
            let batch = self.transports[slot].try_recv_many(&mut buf);
            for frame in &buf[..batch.received] {
                state.tracker.observe(frame.seq);
            }
            state.frames_ok += batch.received as u64;
            state.frames_corrupt += batch.corrupt as u64;
            moved += batch.moved() as u64;
            if batch.moved() < INGEST_BATCH {
                break;
            }
        }
        self.sweeps.fetch_add(1, Ordering::Relaxed);
        moved
    }

    /// Sweeps the fixed partition a shard owns (`slot % shards == shard`).
    fn sweep_partition(&self, shard: usize, shards: usize) -> u64 {
        let mut moved = 0;
        let mut slot = shard;
        while slot < self.transports.len() {
            moved += self.drain_slot(slot);
            slot += shards;
        }
        moved
    }

    /// Sweeps every slot (single-threaded drain phase).
    fn sweep_all(&self) -> u64 {
        (0..self.transports.len())
            .map(|slot| self.drain_slot(slot))
            .sum()
    }

    /// Exact totals from the per-slot states (quiescent side only).
    fn totals(&self) -> (u64, u64, u64, u64) {
        let mut ok = 0;
        let mut corrupt = 0;
        let mut dups = 0;
        let mut gaps = 0;
        for slot in 0..self.slots.len() {
            let state = self.lock(slot);
            ok += state.frames_ok;
            corrupt += state.frames_corrupt;
            dups += state.tracker.duplicates;
            gaps += state.tracker.gaps;
        }
        (ok, corrupt, dups, gaps)
    }
}

/// Runs a fleet to completion: boot, run, ingest, drain, report.
///
/// The `factory` is called for every boot and respawn with
/// `(slot, start_seq, transport)` and must return a device wired to that
/// transport.
#[allow(clippy::too_many_lines)]
pub fn run_fleet<F>(config: &FleetConfig, factory: F) -> FleetReport
where
    F: Fn(u32, u16, Arc<dyn Transport>) -> Box<dyn Device> + Send + Sync + 'static,
{
    let started = std::time::Instant::now();
    let devices = config.devices;
    let shards = config.shards.max(1);
    let turn_burst = config.turn_burst.max(1);

    let transports: Vec<Arc<InProcRing>> = (0..devices)
        .map(|_| Arc::new(InProcRing::new(config.transport_capacity)))
        .collect();

    let supervisor = {
        let transports = transports.clone();
        Supervisor::new(
            devices,
            config.supervision,
            Box::new(move |slot, seq| {
                let tx: Arc<dyn Transport> = transports[slot as usize].clone();
                factory(slot, seq, tx)
            }) as DeviceFactory,
        )
    };

    let boot_seconds = started.elapsed().as_secs_f64();
    let run_started = std::time::Instant::now();

    let queues: StealQueues<u32> = StealQueues::new(shards);
    for slot in 0..devices {
        queues.push(slot as usize % shards, slot);
    }

    let turns_done: Vec<AtomicU64> = (0..devices).map(|_| AtomicU64::new(0)).collect();
    let sim_cycles = AtomicU64::new(0);
    let total_turns = AtomicU64::new(0);
    // Workers hold `in_flight` while they own a popped slot; supervision
    // is quiescent only when the queues are empty AND nothing is in
    // flight — an in-flight slot may still be re-enqueued, so "empty"
    // alone is not quiescence. The check uses the `fetch_sub` return
    // value itself: only the worker whose decrement empties the in-flight
    // set can observe quiescence, so two workers can never both reason
    // from a stale later load and race past a slot that is about to be
    // re-enqueued. `sup_done` counts workers past supervision; `finished`
    // counts workers that have also drained their ingest partitions dry.
    let in_flight = AtomicU64::new(0);
    let sup_done = AtomicU64::new(0);
    let finished = AtomicU64::new(0);
    let ingest = Ingest::new(&transports);
    let mut monitor = HealthMonitor::new(devices as usize, config.health);

    std::thread::scope(|scope| {
        // Shard workers: supervision turns in cache-friendly bursts, each
        // followed by a poll-coupled drain of the slot's transport; the
        // shard's fixed ingest partition is swept while idle and after
        // supervision quiesces.
        for shard in 0..shards {
            let queues = &queues;
            let supervisor = &supervisor;
            let turns_done = &turns_done;
            let sim_cycles = &sim_cycles;
            let total_turns = &total_turns;
            let in_flight = &in_flight;
            let sup_done = &sup_done;
            let finished = &finished;
            let ingest = &ingest;
            let passes = config.passes;
            scope.spawn(move || {
                loop {
                    in_flight.fetch_add(1, Ordering::AcqRel);
                    let Some(slot) = queues.pop(shard) else {
                        // The fetch_sub result is the whole quiescence
                        // check: if this decrement leaves the in-flight
                        // set non-empty, some worker may yet re-enqueue.
                        let remaining = in_flight.fetch_sub(1, Ordering::AcqRel);
                        if remaining == 1 && queues.is_empty() {
                            break;
                        }
                        // Nothing to supervise right now: help drain the
                        // shard's partition instead of busy-waiting.
                        if ingest.sweep_partition(shard, shards) == 0 {
                            std::thread::yield_now();
                        }
                        continue;
                    };
                    let mut requeue = true;
                    let mut burst_worked = false;
                    for _ in 0..turn_burst {
                        let turn = supervisor.turn(slot);
                        total_turns.fetch_add(1, Ordering::Relaxed);
                        // A pass is consumed only by *work* (cycles
                        // simulated, frames moved, a respawn). A
                        // backpressured or idle poll reschedules for free —
                        // burning the budget on busy-waits would end the
                        // run phase before ingest relieved the transports.
                        let worked = match turn {
                            Turn::Progress(out) | Turn::Recycled(out) => {
                                sim_cycles.fetch_add(out.cycles, Ordering::Relaxed);
                                Some(out.cycles > 0 || out.frames > 0)
                            }
                            Turn::Respawned(_) => Some(true),
                            Turn::Parked(_) | Turn::Dead => None,
                        };
                        // Poll-coupled ingest: drain the frames this turn
                        // just produced while they are still cache-hot.
                        ingest.drain_slot(slot as usize);
                        match worked {
                            Some(true) => {
                                burst_worked = true;
                                let done =
                                    turns_done[slot as usize].fetch_add(1, Ordering::Relaxed) + 1;
                                if done >= passes {
                                    requeue = false;
                                    break;
                                }
                            }
                            Some(false) => break, // idle: give the slot up
                            None => {
                                requeue = false; // parked/dead
                                break;
                            }
                        }
                    }
                    // The re-enqueue (if any) happens before the in-flight
                    // drop, so quiescence checks never miss a live slot.
                    if requeue {
                        queues.push(shard, slot);
                    }
                    in_flight.fetch_sub(1, Ordering::AcqRel);
                    if !burst_worked {
                        std::thread::yield_now();
                    }
                }
                // Supervision quiescent: no worker will run another turn.
                // Drain this shard's partition until it stays dry after
                // every worker has stopped producing.
                sup_done.fetch_add(1, Ordering::Release);
                loop {
                    let moved = ingest.sweep_partition(shard, shards);
                    if moved == 0 {
                        if sup_done.load(Ordering::Acquire) == shards as u64 {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
                finished.fetch_add(1, Ordering::Release);
            });
        }

        // Monitor loop on the scope's main thread: no ingest work, just
        // health evaluations on the sweep cadence until every worker has
        // finished. `ingest.sweeps` counts *per-slot* drains, so one
        // fleet-wide sweep equivalent is `devices` drains — the cadence
        // must scale with fleet size or a thousand-device fleet ticks on
        // every wakeup, and each tick walks every slot's supervisor and
        // ingest locks (health counters, latency merge) in direct
        // contention with the workers.
        let cadence = HEALTH_EVERY_SWEEPS * u64::from(devices.max(1));
        let mut last_tick = 0u64;
        // 2ms per wakeup: on a single-CPU microVM each timer expiry is a
        // context switch stolen from a worker mid-slice, so the monitor
        // polls coarsely — the health cadence is sweep-counted, not
        // wall-clock-counted, and loses nothing to a lazy poller.
        while finished.load(Ordering::Acquire) < shards as u64 {
            std::thread::sleep(std::time::Duration::from_millis(2));
            let tick = ingest.sweeps.load(Ordering::Relaxed) / cadence;
            if tick > last_tick {
                last_tick = tick;
                let latency = merged_latency(&supervisor, devices);
                monitor.evaluate(
                    &device_counters(&ingest, &supervisor, devices),
                    latency.as_ref().map(|h| h.percentile(0.99)),
                );
            }
        }
    });

    // Drain phase: no more sim work; alternate flushes with sweeps until
    // every device buffer and every transport is empty (or stops making
    // progress, which the report then calls out as undrained).
    let mut undrained_devices = 0u32;
    loop {
        let buffered: usize = (0..devices).map(|s| supervisor.flush(s)).sum();
        let moved = ingest.sweep_all();
        if buffered == 0 && moved == 0 {
            break;
        }
        if moved == 0 && buffered > 0 {
            // Flushes are blocked yet ingest moves nothing: wedged buffers.
            undrained_devices = (0..devices).filter(|&s| supervisor.flush(s) > 0).count() as u32;
            break;
        }
    }

    // Final health evaluation: even a run shorter than one health
    // cadence gets its counters through the alert engine, and the drain
    // phase's last gaps/violations are visible to it.
    let latency_e2e = merged_latency(&supervisor, devices);
    monitor.evaluate(
        &device_counters(&ingest, &supervisor, devices),
        latency_e2e.as_ref().map(|h| h.percentile(0.99)),
    );

    let mut transport = TransportStats::default();
    for tx in &transports {
        let s = tx.stats();
        transport.sent += s.sent;
        transport.received += s.received;
        transport.corrupt += s.corrupt;
        transport.would_block += s.would_block;
    }

    let frames_sent = transport.sent;
    let send_stalls = transport.would_block;
    let supervision = supervisor.stats();
    let wall_seconds = run_started.elapsed().as_secs_f64();
    let (frames_ok, frames_corrupt, seq_duplicates, seq_gaps) = ingest.totals();

    let frames_lost = frames_sent.saturating_sub(frames_ok + frames_corrupt);

    FleetReport {
        devices,
        shards,
        frames_sent,
        frames_ok,
        frames_corrupt,
        frames_lost,
        seq_duplicates,
        seq_gaps,
        send_stalls,
        steals: queues.steals(),
        turns: total_turns.load(Ordering::Relaxed),
        sim_cycles: sim_cycles.load(Ordering::Relaxed),
        supervision,
        ledger: supervisor.ledger(),
        undrained_devices,
        boot_seconds,
        wall_seconds,
        transport,
        health_scores: monitor.scores().to_vec(),
        alerts: monitor.alerts().to_vec(),
        latency_e2e,
    }
}

/// Snapshots every slot's cumulative counters for the health monitor. Each
/// slot's supervisor and ingest locks are taken one after the other, never
/// together.
fn device_counters(
    ingest: &Ingest<'_>,
    supervisor: &Supervisor,
    devices: u32,
) -> Vec<DeviceCounters> {
    (0..devices)
        .map(|slot| {
            let health = supervisor.slot_health(slot);
            let state = ingest.lock(slot as usize);
            DeviceCounters {
                frames_ok: state.frames_ok,
                violations: health.violations,
                seq_gaps: state.tracker.gaps,
                seq_duplicates: state.tracker.duplicates,
                escalated_hung: health.escalated_hung,
                escalated_trapped: health.escalated_trapped,
                restarts_used: health.restarts_used,
                parked: health.parked,
            }
        })
        .collect()
}

/// Merges the end-to-end latency histograms of every slot — its finished
/// runs and its live device — whose devices collect one; `None` when
/// latency collection is off fleet-wide.
fn merged_latency(supervisor: &Supervisor, devices: u32) -> Option<Histogram> {
    let mut merged: Option<Histogram> = None;
    for slot in 0..devices {
        if let Some(hist) = supervisor.slot_latency_e2e(slot) {
            fold_histogram(&mut merged, hist);
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{call_dense_workload, SocDevice, SocDeviceConfig};

    #[test]
    fn small_soc_fleet_is_lossless() {
        let program = Arc::new(call_dense_workload(4));
        let config = FleetConfig {
            devices: 6,
            shards: 3,
            passes: 2_000,
            transport_capacity: 16,
            ..FleetConfig::default()
        };
        let report = run_fleet(&config, move |_, seq, tx| {
            Box::new(SocDevice::new(
                SocDeviceConfig::new(Arc::clone(&program)),
                tx,
                seq,
            ))
        });
        assert!(report.frames_ok > 0, "fleet must stream commit logs");
        assert!(
            report.is_lossless(),
            "lost={} corrupt={} undrained={}",
            report.frames_lost,
            report.frames_corrupt,
            report.undrained_devices
        );
        assert_eq!(report.seq_duplicates, 0);
        assert_eq!(report.seq_gaps, 0);
        let t = report.transport;
        assert_eq!(
            (t.sent, t.received, t.corrupt),
            (report.frames_sent, report.frames_ok, 0),
            "ring counters sum to the report"
        );
        assert!(report.supervision.completed_runs > 0, "runs recycle");
        assert_eq!(report.supervision.permanent_failures, 0);
        // A clean fleet: perfect health, zero alerts.
        assert!(report.health_scores.iter().all(|&s| s == 100));
        assert!(report.alerts.is_empty(), "clean fleet must not page");
    }

    #[test]
    fn drain_during_active_ingest_loses_zero_frames() {
        // Tiny transports + large passes: the drain phase starts while
        // device buffers and transports still hold frames in flight.
        let program = Arc::new(call_dense_workload(16));
        let config = FleetConfig {
            devices: 4,
            shards: 2,
            passes: 40, // cut the run phase off mid-stream
            transport_capacity: 4,
            ..FleetConfig::default()
        };
        let report = run_fleet(&config, move |_, seq, tx| {
            Box::new(SocDevice::new(
                SocDeviceConfig::new(Arc::clone(&program)),
                tx,
                seq,
            ))
        });
        assert!(report.frames_ok > 0);
        assert_eq!(report.frames_lost, 0, "count in == count out across drain");
        assert_eq!(report.frames_corrupt, 0);
        assert_eq!(report.undrained_devices, 0);
        assert!(report.send_stalls > 0, "capacity-4 rings must backpressure");
    }

    #[test]
    fn zero_device_fleet_terminates_with_an_empty_report() {
        // The quiescence-protocol regression case: with no slots at all,
        // every worker must detect supervision quiescence from its own
        // fetch_sub result and exit without hanging the drain.
        for shards in [1, 2, 4] {
            let config = FleetConfig {
                devices: 0,
                shards,
                passes: 100,
                ..FleetConfig::default()
            };
            let report = run_fleet(&config, move |_, _, _| -> Box<dyn Device> {
                unreachable!("no slots, no boots")
            });
            assert_eq!(report.devices, 0, "{shards} shards");
            assert_eq!(report.frames_sent, 0);
            assert_eq!(report.frames_ok, 0);
            assert_eq!(report.turns, 0);
            assert!(report.is_lossless());
            assert!(report.alerts.is_empty());
        }
    }

    #[test]
    fn single_shard_single_burst_fleet_still_drains() {
        // turn_burst 1 degenerates to the old schedule; one shard means
        // the same worker supervises and ingests everything.
        let program = Arc::new(call_dense_workload(4));
        let config = FleetConfig {
            devices: 3,
            shards: 1,
            passes: 300,
            turn_burst: 1,
            transport_capacity: 8,
            ..FleetConfig::default()
        };
        let report = run_fleet(&config, move |_, seq, tx| {
            Box::new(SocDevice::new(
                SocDeviceConfig::new(Arc::clone(&program)),
                tx,
                seq,
            ))
        });
        assert!(report.frames_ok > 0);
        assert!(report.is_lossless());
        assert_eq!((report.seq_duplicates, report.seq_gaps), (0, 0));
    }
}
