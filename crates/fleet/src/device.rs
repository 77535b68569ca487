//! Fleet devices: the unit the supervisor schedules.
//!
//! A device is anything that makes bounded progress per [`Device::poll`]
//! and streams commit-log frames into its [`Transport`]. The production
//! implementation is [`SocDevice`] — a full [`SystemOnChip`] co-simulation
//! advanced one cycle-slice at a time (a cheap resumable snapshot: the sim
//! stays live between polls, so "snapshotting" a device costs nothing) —
//! but the supervisor tests also plug in scripted doubles (hanging,
//! trapping, flaky) through the same trait.

use crate::transport::Transport;
use cva6_model::Halt;
use riscv_asm::Program;
use std::collections::VecDeque;
use std::sync::Arc;
use titancfi::wire::Frame;
use titancfi::CommitLog;
use titancfi_faults::FaultConfig;
use titancfi_soc::{SocConfig, SystemOnChip};

/// What a device looks like after one poll.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceStatus {
    /// Still making progress; poll again.
    Running,
    /// The guest program finished cleanly (its report is folded into the
    /// poll's counters); the slot may respawn a fresh run.
    Completed,
    /// The device is wedged or its RoT trapped — `Halt::FirmwareTrap`
    /// semantics surfaced to the fleet layer. Must be escalated.
    Trapped(String),
}

/// One poll's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PollOutcome {
    /// Simulated cycles advanced by this poll.
    pub cycles: u64,
    /// Frames pushed into the transport by this poll.
    pub frames: u64,
    /// Violations flagged by the RoT during this poll.
    pub violations: u64,
    /// Whether the transport pushed back (`WouldBlock`) during this poll.
    pub stalled: bool,
    /// Device state after the poll.
    pub status: DeviceStatus,
}

impl PollOutcome {
    /// Zero progress counts as "idle" for the liveness deadline: no cycles
    /// advanced and no frames moved. A backpressured poll (`stalled`) is
    /// *not* idle — the device is healthy, the transport is full; only the
    /// ingest side can relieve it, and escalating it would lose frames.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.cycles == 0 && self.frames == 0 && !self.stalled
    }
}

/// A schedulable fleet device.
pub trait Device: Send {
    /// Advances the device one bounded step and flushes what it can into
    /// the transport.
    fn poll(&mut self) -> PollOutcome;
    /// Flushes buffered frames without simulating further — the shutdown
    /// drain path. Returns the number of frames still buffered after the
    /// attempt (zero means fully drained).
    fn flush(&mut self) -> usize;
    /// Last wire sequence number this device assigned (for seq continuity
    /// across a respawn in the same slot).
    fn last_seq(&self) -> u16;
    /// Total frames this device has pushed into its transport.
    fn frames_sent(&self) -> u64;
    /// The device's end-to-end per-log latency histogram, when it collects
    /// one (opt-in; the default device collects nothing and returns
    /// `None`, keeping the hot path free of instrumentation).
    fn latency_e2e(&self) -> Option<titancfi_obs::Histogram> {
        None
    }
}

/// Configuration for [`SocDevice`].
#[derive(Clone)]
pub struct SocDeviceConfig {
    /// Simulated cycles per poll slice.
    pub slice_cycles: u64,
    /// Hard per-run cycle ceiling; a run past it is wedged and reported
    /// [`DeviceStatus::Trapped`] (the in-sim analog of a liveness breach).
    pub max_run_cycles: u64,
    /// Guest program every run executes (shared, pre-assembled).
    pub program: Arc<Program>,
    /// Host RAM per device — small, so thousand-device fleets fit.
    pub mem_size: usize,
    /// Optional fault schedule for the device's CFI transport.
    pub faults: Option<FaultConfig>,
    /// Log Writer watchdog/retry/escalation policy (`None` = SoC default).
    pub resilience: Option<titancfi::ResilienceConfig>,
    /// Collect per-log latency spans ([`SystemOnChip::attach_latency`]) so
    /// the fleet health monitor can aggregate end-to-end percentiles. The
    /// device keeps block dispatch; off by default.
    pub latency: bool,
}

impl SocDeviceConfig {
    /// A config running `program` with fleet-scale defaults.
    #[must_use]
    pub fn new(program: Arc<Program>) -> SocDeviceConfig {
        SocDeviceConfig {
            slice_cycles: 2_000,
            max_run_cycles: 4_000_000,
            program,
            mem_size: 1 << 16,
            faults: None,
            resilience: None,
            latency: false,
        }
    }

    /// The single-host SoC configuration a [`SocDevice`] built from this
    /// config runs.
    #[must_use]
    pub fn soc_config(&self) -> SocConfig {
        let mut soc_config = SocConfig {
            mem_size: self.mem_size,
            faults: self.faults,
            // Fleet devices always ride the fast path: predecoded
            // instruction caches plus block-compiled stepping, pinned on
            // explicitly rather than inherited from the process-wide
            // default (a test flipping the global toggle must not quietly
            // put a whole fleet back on strict stepping). A latency
            // collector keeps block dispatch; a fault injector makes
            // `run_slice` fall back to per-cycle scheduling — the flags are
            // preconditions, not overrides, so faulted devices stay
            // cycle-exact per commit.
            fast_path: true,
            block_compile: true,
            // Fleet workloads are a few hundred instructions, not kernels;
            // the default caches (8192 decode slots per core, 4096 block
            // slots per host core) would dominate per-device memory at 1024-device scale and
            // turn the sweep into a page-fault benchmark. Right-size them —
            // architecturally invisible, entries re-predecode on demand.
            decode_cache_slots: 1024,
            block_cache_slots: 256,
            ..SocConfig::default()
        };
        if let Some(resilience) = self.resilience {
            soc_config.resilience = resilience;
        }
        soc_config
    }
}

/// Frames encoded per [`Transport::send_many`] call from the pending
/// buffer — big enough to cover a whole poll slice's typical output, small
/// enough to live comfortably on the reused batch buffer.
const PUMP_BATCH: usize = 64;

/// A simulated SoC as a fleet device.
///
/// Each poll advances the co-simulation by one slice, drains the commit-log
/// tap, assigns wire sequence numbers *at send time* (so backpressured
/// frames buffered locally never create seq gaps), and pushes frames until
/// the transport pushes back.
pub struct SocDevice {
    soc: SystemOnChip,
    tx: Arc<dyn Transport>,
    config: SocDeviceConfig,
    /// Next slice's absolute cycle limit.
    cursor: u64,
    /// Logs drained from the tap but not yet accepted by the transport.
    pending: VecDeque<CommitLog>,
    /// Reused frame batch for [`Transport::send_many`] bursts.
    batch: Vec<Frame>,
    /// Last assigned wire seq (continues across respawns via `start_seq`).
    seq: u16,
    frames_sent: u64,
    violations_seen: u64,
    halted: bool,
}

impl SocDevice {
    /// Boots a fresh device. `start_seq` is the last seq the previous run
    /// in this slot assigned (0 for a brand-new slot), so the monitor-side
    /// sequence tracker sees one continuous stream per slot.
    #[must_use]
    pub fn new(config: SocDeviceConfig, tx: Arc<dyn Transport>, start_seq: u16) -> SocDevice {
        let mut soc = SystemOnChip::new(&config.program, config.soc_config());
        soc.enable_log_tap();
        if config.latency {
            soc.attach_latency();
        }
        let cursor = config.slice_cycles;
        SocDevice {
            soc,
            tx,
            config,
            cursor,
            pending: VecDeque::new(),
            batch: Vec::with_capacity(PUMP_BATCH),
            seq: start_seq,
            frames_sent: 0,
            violations_seen: 0,
            halted: false,
        }
    }

    /// Sends buffered logs until the transport pushes back, in batches of
    /// [`PUMP_BATCH`] so one transport synchronization episode covers a
    /// whole burst. Sequence numbers are still assigned *at accept time*:
    /// the batch is built with tentative consecutive seqs and only the
    /// accepted prefix advances `self.seq`, so a partial batch never burns
    /// a number and the monitor-side stream stays gap-free. Returns
    /// (frames sent, stalled?).
    fn pump(&mut self) -> (u64, bool) {
        let mut sent = 0u64;
        while !self.pending.is_empty() {
            self.batch.clear();
            for (i, log) in self.pending.iter().take(PUMP_BATCH).enumerate() {
                self.batch.push(Frame {
                    seq: self.seq.wrapping_add(i as u16 + 1),
                    log: *log,
                });
            }
            let accepted = self.tx.send_many(&self.batch);
            self.seq = self.seq.wrapping_add(accepted as u16);
            self.pending.drain(..accepted);
            sent += accepted as u64;
            if accepted < self.batch.len() {
                self.frames_sent += sent;
                return (sent, true);
            }
        }
        self.frames_sent += sent;
        (sent, false)
    }
}

impl Device for SocDevice {
    fn poll(&mut self) -> PollOutcome {
        if self.halted {
            // Nothing left to simulate; just keep flushing the backlog.
            let (frames, stalled) = self.pump();
            return PollOutcome {
                cycles: 0,
                frames,
                violations: 0,
                stalled,
                status: if self.pending.is_empty() {
                    DeviceStatus::Completed
                } else {
                    DeviceStatus::Running
                },
            };
        }
        let before_cycles = self.soc.cycles();
        let before_violations = self.soc.violation_count() as u64;
        let halt = self.soc.run_slice(self.cursor);
        self.cursor += self.config.slice_cycles;
        self.pending.extend(self.soc.drain_log_tap());
        let (frames, stalled) = self.pump();
        let cycles = self.soc.cycles() - before_cycles;
        let violations = self.soc.violation_count() as u64 - before_violations;
        self.violations_seen += violations;
        let status = match halt {
            None if self.soc.cycles() >= self.config.max_run_cycles => {
                self.halted = true;
                DeviceStatus::Trapped(format!(
                    "wedged: no halt within {} cycles",
                    self.config.max_run_cycles
                ))
            }
            None => DeviceStatus::Running,
            Some(halt) => {
                // Close out the run: the drain loop inside `finish` lets the
                // RoT check the last queued logs, and the final tap drain
                // catches anything pushed during it.
                let report = self.soc.finish(halt);
                self.pending.extend(self.soc.drain_log_tap());
                self.halted = true;
                match report.halt {
                    Halt::FirmwareTrap(trap) => {
                        DeviceStatus::Trapped(format!("firmware trap: {trap:?}"))
                    }
                    Halt::Fault(trap) => DeviceStatus::Trapped(format!("host fault: {trap:?}")),
                    Halt::Breakpoint | Halt::Ecall | Halt::Budget => {
                        if self.pending.is_empty() {
                            DeviceStatus::Completed
                        } else {
                            // Completed the sim but still holds frames; stay
                            // Running until the backlog drains.
                            DeviceStatus::Running
                        }
                    }
                }
            }
        };
        PollOutcome {
            cycles,
            frames,
            violations,
            stalled,
            status,
        }
    }

    fn flush(&mut self) -> usize {
        if !self.halted {
            // Capture whatever the tap holds even mid-run, so a drained
            // shutdown loses nothing that was already committed.
            self.pending.extend(self.soc.drain_log_tap());
        }
        self.pump();
        self.pending.len()
    }

    fn last_seq(&self) -> u16 {
        self.seq
    }

    fn frames_sent(&self) -> u64 {
        self.frames_sent
    }

    fn latency_e2e(&self) -> Option<titancfi_obs::Histogram> {
        self.soc.latency_spans().map(|s| s.end_to_end.clone())
    }
}

/// Assembles the fleet's default guest: a benign, call-dense kernel (nested
/// direct calls + returns) sized by `outer_loops`, chosen to exercise
/// exactly the instruction classes the CFI filter streams.
///
/// # Panics
///
/// Panics if the built-in source fails to assemble (a bug, not an input
/// condition).
#[must_use]
pub fn call_dense_workload(outer_loops: u32) -> Program {
    let source = format!(
        "
        _start:
            li s0, {outer_loops}
        outer:
            call work
            addi s0, s0, -1
            bnez s0, outer
            ebreak
        work:
            addi s1, ra, 0
            li t0, 4
        inner:
            call leaf
            addi t0, t0, -1
            bnez t0, inner
            addi ra, s1, 0
            ret
        leaf:
            addi a0, a0, 1
            ret
        "
    );
    riscv_asm::assemble(&source, riscv_isa::Xlen::Rv64, 0x8000_0000)
        .expect("fleet workload assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InProcRing;
    use titancfi::wire::SeqTracker;

    fn small_device(tx: Arc<dyn Transport>) -> SocDevice {
        let program = Arc::new(call_dense_workload(8));
        SocDevice::new(SocDeviceConfig::new(program), tx, 0)
    }

    /// Drains `tx` dry through `try_recv_many`, feeding every frame's seq
    /// to `tracker`; returns the frames received.
    fn drain(tx: &dyn Transport, tracker: &mut SeqTracker) -> u64 {
        let mut buf = [Frame {
            seq: 0,
            log: CommitLog::default(),
        }; 32];
        let mut got = 0u64;
        loop {
            let batch = tx.try_recv_many(&mut buf);
            assert_eq!(batch.corrupt, 0, "clean ring");
            for f in &buf[..batch.received] {
                assert!(tracker.observe(f.seq), "seq break");
            }
            got += batch.received as u64;
            if batch.received < buf.len() {
                return got;
            }
        }
    }

    #[test]
    fn soc_config_pins_fleet_caches_and_the_fast_path() {
        let config = SocDeviceConfig::new(Arc::new(call_dense_workload(1)));
        let soc = config.soc_config();
        assert_eq!((soc.decode_cache_slots, soc.block_cache_slots), (1024, 256));
        assert!(soc.fast_path && soc.block_compile);
        assert_eq!(soc.mem_size, config.mem_size);
    }

    #[test]
    fn soc_device_streams_its_whole_run_without_loss() {
        let tx: Arc<dyn Transport> = Arc::new(InProcRing::new(16));
        let mut dev = small_device(Arc::clone(&tx));
        let mut tracker = SeqTracker::new();
        let mut got = 0u64;
        let mut polls = 0;
        loop {
            polls += 1;
            assert!(polls < 10_000, "device never completed");
            let outcome = dev.poll();
            got += drain(tx.as_ref(), &mut tracker);
            match outcome.status {
                DeviceStatus::Completed => break,
                DeviceStatus::Trapped(why) => panic!("trapped: {why}"),
                DeviceStatus::Running => {}
            }
        }
        assert_eq!(got, dev.frames_sent(), "every sent frame ingested");
        assert!(got > 0, "call-dense guest must stream logs");
        assert_eq!((tracker.duplicates, tracker.gaps), (0, 0));
    }

    #[test]
    fn backpressure_buffers_locally_and_never_skips_seq() {
        // Capacity 1 forces backpressure constantly; the device must buffer
        // and retry without ever burning a sequence number.
        let tx: Arc<dyn Transport> = Arc::new(InProcRing::new(1));
        let mut dev = small_device(Arc::clone(&tx));
        let mut tracker = SeqTracker::new();
        let mut got = 0u64;
        let mut stalled_at_least_once = false;
        for _ in 0..200_000 {
            let outcome = dev.poll();
            stalled_at_least_once |= outcome.stalled;
            got += drain(tx.as_ref(), &mut tracker);
            if outcome.status == DeviceStatus::Completed {
                break;
            }
        }
        assert!(stalled_at_least_once, "capacity-1 ring must stall");
        assert_eq!(got, dev.frames_sent());
        assert_eq!((tracker.duplicates, tracker.gaps), (0, 0));
        assert!(tx.stats().would_block > 0);
    }

    #[test]
    fn batched_recv_preserves_order_and_seq_continuity_across_respawns() {
        // Three back-to-back runs in the same slot, drained through
        // `try_recv_many`: the monitor must see one gap-free,
        // duplicate-free, in-order stream across every respawn boundary.
        let tx: Arc<dyn Transport> = Arc::new(InProcRing::new(512));
        let mut tracker = SeqTracker::new();
        let mut last_seq = 0u16;
        let mut expected_next = 1u16;
        let mut total = 0u64;
        for run in 0..3 {
            let program = Arc::new(call_dense_workload(2));
            let mut dev = SocDevice::new(SocDeviceConfig::new(program), Arc::clone(&tx), last_seq);
            for _ in 0..10_000 {
                if dev.poll().status == DeviceStatus::Completed {
                    break;
                }
            }
            last_seq = dev.last_seq();
            let mut buf = [Frame {
                seq: 0,
                log: CommitLog::default(),
            }; 32];
            loop {
                let batch = tx.try_recv_many(&mut buf);
                assert_eq!(batch.corrupt, 0, "run {run}");
                for f in &buf[..batch.received] {
                    assert_eq!(f.seq, expected_next, "run {run}: wire order");
                    expected_next = expected_next.wrapping_add(1);
                    assert!(
                        tracker.observe(f.seq),
                        "run {run}: seq break across respawn"
                    );
                    total += 1;
                }
                if batch.received < buf.len() {
                    break;
                }
            }
            assert_eq!((tracker.duplicates, tracker.gaps), (0, 0), "run {run}");
        }
        assert!(total > 0, "runs must stream frames");
    }

    #[test]
    fn seq_continues_across_respawn_in_the_same_slot() {
        // Drained one frame at a time: the first frame of each respawned
        // device follows the last seq its predecessor handed over.
        let tx: Arc<dyn Transport> = Arc::new(InProcRing::new(512));
        let mut tracker = SeqTracker::new();
        let mut last_seq = 0u16;
        for run in 0..3 {
            let program = Arc::new(call_dense_workload(2));
            let mut dev = SocDevice::new(SocDeviceConfig::new(program), Arc::clone(&tx), last_seq);
            for _ in 0..10_000 {
                if dev.poll().status == DeviceStatus::Completed {
                    break;
                }
            }
            let mut buf = [Frame {
                seq: 0,
                log: CommitLog::default(),
            }];
            let mut expected_next = last_seq.wrapping_add(1);
            loop {
                let batch = tx.try_recv_many(&mut buf);
                assert_eq!(batch.corrupt, 0, "run {run}");
                if batch.received == 0 {
                    break;
                }
                assert_eq!(buf[0].seq, expected_next, "run {run}: seq after respawn");
                expected_next = expected_next.wrapping_add(1);
                assert!(
                    tracker.observe(buf[0].seq),
                    "run {run}: seq break across respawn"
                );
            }
            last_seq = dev.last_seq();
            assert_eq!(
                expected_next,
                last_seq.wrapping_add(1),
                "run {run}: drained"
            );
            assert_eq!((tracker.duplicates, tracker.gaps), (0, 0), "run {run}");
        }
    }
}
