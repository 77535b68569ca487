//! The CFI Log Writer: the FSM draining the queue into the CFI mailbox.
//!
//! Paper §IV-B3: when idle, the FSM waits for the CFI Queue to hold a log
//! and the mailbox to be ready; it then pops a log, splits it into 64-bit
//! chunks matching the AXI data bus, and issues the write transactions. The
//! final transaction sets the doorbell; the FSM parks until the RoT asserts
//! completion, reads the check verdict, raises an exception on violation,
//! and returns to idle.
//!
//! On top of the paper FSM this model adds the resilience layer: a watchdog
//! on the completion wait, bounded retry (re-write beats, re-ring the
//! doorbell, exponential backoff), a per-log sequence number plus checksum
//! stored in spare mailbox word 7, and a configurable fail-closed /
//! fail-open escalation once retries are exhausted. With no
//! [`FaultInjector`] attached and a responsive RoT the added machinery is
//! inert: the fault-free path takes exactly the same cycles as the plain
//! paper FSM.
//!
//! Word 7 carries that integrity word only while the mailbox verifies it.
//! Otherwise it carries the id of the host core that retired the log,
//! which the banked multi-core firmware reads to pick a shadow stack.

use crate::commit_log::{CommitLog, BEATS, WORDS};
use crate::queue::{CfiQueue, TaggedLog};
use opentitan_model::CfiMailbox;
use titancfi_faults::{BeatFault, FaultClass, FaultInjector, RingFault};
use titancfi_obs::{NoProbe, Probe, Track};

/// AXI timing for the Log Writer's master port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AxiTiming {
    /// Cycles per 64-bit write beat (address + data + response, pipelined).
    pub write_beat: u64,
    /// Cycles for the verdict read after completion.
    pub read: u64,
}

impl Default for AxiTiming {
    fn default() -> AxiTiming {
        AxiTiming {
            write_beat: 4,
            read: 8,
        }
    }
}

/// What the Log Writer does with a log whose delivery exhausted retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailPolicy {
    /// Treat the undeliverable log as a violation: the host takes the CFI
    /// exception (`mcause` 24 path) rather than run unchecked. Secure
    /// default — an attacker who can wedge the transport gains nothing.
    #[default]
    FailClosed,
    /// Drop the log, count it, and keep the host running (availability over
    /// security; every dropped log is visible in the report).
    FailOpen,
}

/// Watchdog / retry / escalation parameters for the Log Writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Cycles to wait for the RoT's completion before declaring the
    /// attempt failed. `u64::MAX` disables the watchdog entirely.
    pub watchdog_timeout: u64,
    /// Total delivery attempts per log (first try included) before the
    /// escalation policy fires.
    pub max_attempts: u32,
    /// Base backoff in cycles before a retry; doubles on each subsequent
    /// failure of the same log.
    pub backoff: u64,
    /// What to do once `max_attempts` deliveries have failed.
    pub policy: FailPolicy,
}

impl Default for ResilienceConfig {
    fn default() -> ResilienceConfig {
        ResilienceConfig {
            watchdog_timeout: 100_000,
            max_attempts: 3,
            backoff: 512,
            policy: FailPolicy::FailClosed,
        }
    }
}

impl ResilienceConfig {
    /// The paper FSM verbatim: no watchdog, wait forever.
    #[must_use]
    pub fn off() -> ResilienceConfig {
        ResilienceConfig {
            watchdog_timeout: u64::MAX,
            ..ResilienceConfig::default()
        }
    }
}

/// FSM state (exposed for tests and waveform-style debugging).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriterState {
    /// Waiting for a log in the queue and a ready mailbox.
    Idle,
    /// Transmitting beat `beat` of the current log; `done_at` is the cycle
    /// the beat's AXI transaction finishes.
    Writing {
        /// Index of the beat in flight.
        beat: usize,
        /// Completion cycle of the beat in flight.
        done_at: u64,
    },
    /// Doorbell rung; waiting for the RoT's completion signal since `since`
    /// (the watchdog reference point).
    WaitCompletion {
        /// Cycle this wait started (doorbell rung or retry issued).
        since: u64,
    },
    /// A delivery attempt failed; backing off until `resume_at` before
    /// re-writing the beats and re-ringing the doorbell.
    Backoff {
        /// Cycle the retry starts.
        resume_at: u64,
    },
    /// Completion seen at `done_at - read latency`; verdict read in flight.
    ReadResult {
        /// Completion cycle of the verdict read.
        done_at: u64,
    },
}

/// Beat replays tolerated per delivery attempt before the attempt is
/// declared failed (guards against a persistently erroring interconnect
/// hanging the writer in the Writing state, out of the watchdog's reach).
const MAX_BEAT_REPLAYS: u32 = 16;

/// A detected control-flow violation (the exception the FSM raises).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// The host core that retired the offending log.
    pub core: u8,
    /// The offending commit log.
    pub log: CommitLog,
    /// Cycle at which the verdict was read.
    pub cycle: u64,
}

/// The Log Writer FSM.
#[derive(Debug, Clone)]
pub struct LogWriter {
    state: WriterState,
    timing: AxiTiming,
    resilience: ResilienceConfig,
    injector: Option<FaultInjector>,
    current: Option<TaggedLog>,
    /// Cycle the doorbell for the in-flight log was rung (latency probe).
    doorbell_rung_at: u64,
    /// Failed delivery attempts for the in-flight log.
    attempt: u32,
    /// Sequence number of the in-flight log (stored in mailbox word 7).
    seq: u16,
    /// A delayed doorbell ring lands at this cycle.
    pending_ring_at: Option<u64>,
    /// Fault drawn for the beat in flight, applied when the beat lands.
    pending_beat_fault: BeatFault,
    /// Beat replays consumed by the current delivery attempt.
    beat_replays: u32,
    /// Whether an accepted ring's `check-pending` span is open on the probe.
    ring_accepted: bool,
    /// Logs fully processed (checked by the RoT).
    pub logs_written: u64,
    /// Violations raised.
    pub violations: u64,
    /// Watchdog firings (completion wait exceeded the timeout).
    pub watchdog_timeouts: u64,
    /// Delivery retries issued (re-write + re-ring after a failure).
    pub retries: u64,
    /// AXI beat errors observed and replayed.
    pub axi_beat_errors: u64,
    /// Doorbell rings rejected by the mailbox integrity check.
    pub integrity_rejects: u64,
    /// Logs abandoned under [`FailPolicy::FailOpen`].
    pub dropped_logs: u64,
    /// Violations synthesized by [`FailPolicy::FailClosed`] escalation.
    pub forced_violations: u64,
}

impl LogWriter {
    /// A writer in the idle state with the default resilience parameters
    /// (inert unless the RoT stops responding for 100k cycles).
    #[must_use]
    pub fn new(timing: AxiTiming) -> LogWriter {
        LogWriter::with_resilience(timing, ResilienceConfig::default())
    }

    /// A writer with explicit watchdog / retry / escalation parameters.
    #[must_use]
    pub fn with_resilience(timing: AxiTiming, resilience: ResilienceConfig) -> LogWriter {
        LogWriter {
            state: WriterState::Idle,
            timing,
            resilience,
            injector: None,
            current: None,
            doorbell_rung_at: 0,
            attempt: 0,
            seq: 0,
            pending_ring_at: None,
            pending_beat_fault: BeatFault::None,
            beat_replays: 0,
            ring_accepted: false,
            logs_written: 0,
            violations: 0,
            watchdog_timeouts: 0,
            retries: 0,
            axi_beat_errors: 0,
            integrity_rejects: 0,
            dropped_logs: 0,
            forced_violations: 0,
        }
    }

    /// Attaches a fault injector; subsequent beats and rings query it.
    pub fn attach_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// The attached fault injector, if any.
    #[must_use]
    pub fn injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// Mutable access to the attached fault injector — how the SoC draws
    /// the firmware check-entry faults from the writer's PRNG stream.
    pub fn injector_mut(&mut self) -> Option<&mut FaultInjector> {
        self.injector.as_mut()
    }

    /// The writer's resilience parameters.
    #[must_use]
    pub fn resilience(&self) -> ResilienceConfig {
        self.resilience
    }

    /// Current FSM state.
    #[must_use]
    pub fn state(&self) -> WriterState {
        self.state
    }

    /// Whether the FSM is mid-transaction (a log is in flight to the RoT).
    #[must_use]
    pub fn busy(&self) -> bool {
        self.state != WriterState::Idle
    }

    /// The next cycle at which [`LogWriter::tick`] can do something on its
    /// own, given whether the queue currently holds a log — or `None` when
    /// the FSM is quiescent until an *external* event (an empty-queue idle
    /// wait, or a completion wait with the watchdog disabled). Completion
    /// arrival is external (the RoT writes it); event-driven schedulers must
    /// re-tick the writer on the cycle after any RoT mailbox access in
    /// addition to the cycle returned here. Ticks strictly before the
    /// returned cycle are guaranteed no-ops, which is what makes skipping
    /// them sound.
    #[must_use]
    pub fn next_event(&self, now: u64, queue_nonempty: bool) -> Option<u64> {
        match self.state {
            WriterState::Idle => queue_nonempty.then_some(now),
            WriterState::Writing { done_at, .. } | WriterState::ReadResult { done_at } => {
                Some(done_at)
            }
            WriterState::Backoff { resume_at } => Some(resume_at),
            WriterState::WaitCompletion { since } => {
                let watchdog = if self.resilience.watchdog_timeout == u64::MAX {
                    None
                } else {
                    Some(since.saturating_add(self.resilience.watchdog_timeout))
                };
                match (self.pending_ring_at, watchdog) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (Some(a), None) => Some(a),
                    (None, b) => b,
                }
            }
        }
    }

    /// Advances the FSM to cycle `now`.
    ///
    /// Pops from `queue` when idle, drives the host side of `mailbox`, and
    /// returns a [`Violation`] when the RoT reported one (or when
    /// fail-closed escalation synthesized one).
    pub fn tick(
        &mut self,
        now: u64,
        queue: &mut CfiQueue,
        mailbox: &mut CfiMailbox,
    ) -> Option<Violation> {
        self.tick_probed(now, queue, mailbox, &mut NoProbe)
    }

    /// Like [`LogWriter::tick`], narrating the FSM on the probe: a
    /// `drain-log` span covers pop-to-verdict, AXI beats and the
    /// doorbell-to-completion latency land in counters/histograms, and
    /// fault/retry/escalation events appear as instants.
    pub fn tick_probed(
        &mut self,
        now: u64,
        queue: &mut CfiQueue,
        mailbox: &mut CfiMailbox,
        probe: &mut dyn Probe,
    ) -> Option<Violation> {
        match self.state {
            WriterState::Idle => {
                if let Some(entry) = queue.pop_probed(now, probe) {
                    self.current = Some(entry);
                    self.seq = self.seq.wrapping_add(1);
                    self.attempt = 0;
                    self.beat_replays = 0;
                    self.schedule_beat(0, now, probe);
                    probe.log_dequeued(now);
                    probe.span_begin(Track::LogWriter, "drain-log", now);
                }
                None
            }
            WriterState::Writing { beat, done_at } => {
                if now < done_at {
                    return None;
                }
                let fault = std::mem::take(&mut self.pending_beat_fault);
                if fault == BeatFault::Error {
                    // The interconnect answered SLVERR: replay the beat —
                    // boundedly, so a persistently erroring bus becomes a
                    // failed attempt instead of an invisible hang.
                    self.axi_beat_errors += 1;
                    probe.counter_add("writer.axi_beat_errors", 1);
                    probe.instant(Track::LogWriter, "axi-beat-error", now);
                    if let Some(inj) = &mut self.injector {
                        inj.note_detected(FaultClass::AxiBeatError);
                    }
                    self.beat_replays += 1;
                    if self.beat_replays > MAX_BEAT_REPLAYS {
                        return self.retry_or_escalate(now, mailbox, probe);
                    }
                    self.schedule_beat(beat, now, probe);
                    return None;
                }
                let TaggedLog { core, log } =
                    self.current.expect("writing state implies a current log");
                let beats = log.to_beats();
                // The beat's data lands in the mailbox data words now. The
                // final beat's upper word is the spare word 7: the sequence
                // number + checksum integrity word, or the source core id
                // when the mailbox does not check integrity.
                let last = beat + 1 == BEATS;
                let mut words = [(beats[beat] as u32), (beats[beat] >> 32) as u32];
                if last {
                    debug_assert_eq!(2 * beat + 1, WORDS);
                    words[1] = if mailbox.integrity_enabled() {
                        CfiMailbox::integrity_word(self.seq, &log.to_words())
                    } else {
                        u32::from(core)
                    };
                }
                if let BeatFault::BitFlip { word, bit } = fault {
                    words[word] ^= 1 << bit;
                    probe.counter_add("writer.bit_flips", 1);
                    probe.instant(Track::LogWriter, "bit-flip", now);
                }
                mailbox.host_write_data(2 * beat, words[0]);
                mailbox.host_write_data(2 * beat + 1, words[1]);
                probe.counter_add("writer.axi_beats", 1);
                if last {
                    // Final transaction: ring the doorbell.
                    self.ring(now, mailbox, probe)
                } else {
                    self.schedule_beat(beat + 1, now, probe);
                    None
                }
            }
            WriterState::WaitCompletion { since } => {
                // A doorbell ring stuck in an interconnect buffer lands now.
                if let Some(at) = self.pending_ring_at {
                    if now >= at {
                        self.pending_ring_at = None;
                        return self.ring_now(now, mailbox, probe);
                    }
                }
                if mailbox.host_completion_probed(now, probe) {
                    self.ring_accepted = false;
                    probe.log_completion(now);
                    probe.histogram_record(
                        "mailbox.doorbell_to_completion",
                        now - self.doorbell_rung_at,
                    );
                    self.state = WriterState::ReadResult {
                        done_at: now + self.timing.read,
                    };
                    return None;
                }
                if self.resilience.watchdog_timeout != u64::MAX
                    && now.saturating_sub(since) >= self.resilience.watchdog_timeout
                {
                    self.watchdog_timeouts += 1;
                    probe.counter_add("writer.watchdog_timeouts", 1);
                    probe.instant(Track::LogWriter, "watchdog-timeout", now);
                    if self.ring_accepted {
                        probe.span_end(Track::Mailbox, now);
                        self.ring_accepted = false;
                    }
                    self.pending_ring_at = None;
                    if let Some(inj) = &mut self.injector {
                        inj.note_watchdog();
                    }
                    return self.retry_or_escalate(now, mailbox, probe);
                }
                None
            }
            WriterState::Backoff { resume_at } => {
                if now >= resume_at {
                    // Retry: re-write every beat, then re-ring.
                    self.beat_replays = 0;
                    self.schedule_beat(0, now, probe);
                }
                None
            }
            WriterState::ReadResult { done_at } => {
                if now < done_at {
                    return None;
                }
                let verdict = mailbox.host_read_data(0);
                mailbox.host_clear_completion();
                let TaggedLog { core, log } = self
                    .current
                    .take()
                    .expect("read state implies a current log");
                self.logs_written += 1;
                self.attempt = 0;
                self.state = WriterState::Idle;
                probe.log_verdict(now, verdict != 0);
                probe.counter_add("writer.logs_checked", 1);
                probe.span_end(Track::LogWriter, now);
                if let Some(inj) = &mut self.injector {
                    // Whatever faults hit this log were absorbed.
                    inj.note_completed();
                }
                if verdict != 0 {
                    self.violations += 1;
                    probe.instant(Track::LogWriter, "violation", now);
                    return Some(Violation {
                        core,
                        log,
                        cycle: now,
                    });
                }
                None
            }
        }
    }

    /// Schedules AXI write beat `beat`, drawing (and pre-applying the
    /// latency component of) any injected fault for it.
    fn schedule_beat(&mut self, beat: usize, now: u64, probe: &mut dyn Probe) {
        let mut done_at = now + self.timing.write_beat;
        self.pending_beat_fault = BeatFault::None;
        if let Some(inj) = &mut self.injector {
            match inj.beat_fault(beat) {
                BeatFault::ExtraLatency(extra) => {
                    done_at += extra;
                    probe.counter_add("writer.axi_extra_latency", 1);
                    probe.instant(Track::LogWriter, "axi-extra-latency", now);
                }
                fault => self.pending_beat_fault = fault,
            }
        }
        self.state = WriterState::Writing { beat, done_at };
    }

    /// Final-beat doorbell ring, subject to drop/delay faults.
    fn ring(
        &mut self,
        now: u64,
        mailbox: &mut CfiMailbox,
        probe: &mut dyn Probe,
    ) -> Option<Violation> {
        let fault = self
            .injector
            .as_mut()
            .map_or(RingFault::None, FaultInjector::ring_fault);
        match fault {
            RingFault::Drop => {
                // The ring is lost; only the watchdog can recover this.
                probe.counter_add("writer.doorbells_dropped", 1);
                probe.instant(Track::LogWriter, "doorbell-dropped", now);
                self.state = WriterState::WaitCompletion { since: now };
                None
            }
            RingFault::Delay(delay) => {
                probe.counter_add("writer.doorbells_delayed", 1);
                probe.instant(Track::LogWriter, "doorbell-delayed", now);
                self.pending_ring_at = Some(now + delay);
                self.state = WriterState::WaitCompletion { since: now };
                None
            }
            RingFault::None => self.ring_now(now, mailbox, probe),
        }
    }

    /// Issues the (possibly integrity-verified) doorbell ring.
    fn ring_now(
        &mut self,
        now: u64,
        mailbox: &mut CfiMailbox,
        probe: &mut dyn Probe,
    ) -> Option<Violation> {
        if mailbox.host_ring_doorbell_verified_probed(self.seq, now, probe) {
            self.ring_accepted = true;
            self.doorbell_rung_at = now;
            probe.log_doorbell(now);
            self.state = WriterState::WaitCompletion { since: now };
            None
        } else {
            // The mailbox hardware caught corrupted data before the RoT saw
            // it: rewrite the log and retry.
            self.integrity_rejects += 1;
            probe.counter_add("writer.integrity_rejects", 1);
            probe.instant(Track::LogWriter, "integrity-reject", now);
            if let Some(inj) = &mut self.injector {
                inj.note_detected(FaultClass::BitFlip);
            }
            self.retry_or_escalate(now, mailbox, probe)
        }
    }

    /// A delivery attempt failed: back off and retry, or escalate once the
    /// attempt budget is spent.
    fn retry_or_escalate(
        &mut self,
        now: u64,
        mailbox: &mut CfiMailbox,
        probe: &mut dyn Probe,
    ) -> Option<Violation> {
        self.attempt += 1;
        if self.attempt >= self.resilience.max_attempts {
            return self.escalate(now, mailbox, probe);
        }
        self.retries += 1;
        probe.counter_add("writer.retries", 1);
        probe.instant(Track::LogWriter, "retry-backoff", now);
        let exp = (self.attempt - 1).min(16);
        let backoff = self.resilience.backoff.saturating_mul(1 << exp);
        self.state = WriterState::Backoff {
            resume_at: now + backoff,
        };
        None
    }

    /// Retries exhausted: tear down the mailbox transaction and apply the
    /// configured policy to the undeliverable log.
    fn escalate(
        &mut self,
        now: u64,
        mailbox: &mut CfiMailbox,
        probe: &mut dyn Probe,
    ) -> Option<Violation> {
        mailbox.host_abort();
        if self.ring_accepted {
            probe.span_end(Track::Mailbox, now);
            self.ring_accepted = false;
        }
        if let Some(inj) = &mut self.injector {
            inj.note_escalated();
        }
        self.attempt = 0;
        self.pending_ring_at = None;
        let TaggedLog { core, log } = self
            .current
            .take()
            .expect("escalation implies a current log");
        self.state = WriterState::Idle;
        probe.span_end(Track::LogWriter, now);
        match self.resilience.policy {
            FailPolicy::FailClosed => {
                self.forced_violations += 1;
                self.violations += 1;
                probe.log_abandoned(now, true);
                probe.counter_add("writer.forced_violations", 1);
                probe.instant(Track::LogWriter, "escalate-fail-closed", now);
                Some(Violation {
                    core,
                    log,
                    cycle: now,
                })
            }
            FailPolicy::FailOpen => {
                self.dropped_logs += 1;
                probe.log_abandoned(now, false);
                probe.counter_add("writer.dropped_logs", 1);
                probe.instant(Track::LogWriter, "escalate-fail-open", now);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use titancfi_faults::FaultConfig;

    fn log(pc: u64) -> CommitLog {
        CommitLog {
            pc,
            insn: 0x0000_8067,
            next: pc + 4,
            target: 0x9000,
        }
    }

    /// Mock RoT: instantly check with `verdict` and complete.
    fn mock_rot_respond(mailbox: &mut CfiMailbox, verdict: u32) {
        if mailbox.doorbell_pending() {
            mailbox.write(
                opentitan_model::mailbox::regs::DATA0,
                riscv_isa::MemWidth::W,
                u64::from(verdict),
            );
            mailbox.write(
                opentitan_model::mailbox::regs::DOORBELL,
                riscv_isa::MemWidth::W,
                0,
            );
            mailbox.write(
                opentitan_model::mailbox::regs::COMPLETION,
                riscv_isa::MemWidth::W,
                1,
            );
        }
    }

    /// Drives the FSM while a mock "RoT" answers with `verdict` as soon as
    /// the doorbell rings.
    fn run_one(verdict: u32) -> (LogWriter, Option<Violation>, u64) {
        let mut queue = CfiQueue::new(4);
        let mut mailbox = CfiMailbox::new();
        let mut writer = LogWriter::new(AxiTiming::default());
        queue.push(log(0x8000_0000));
        let mut violation = None;
        let mut cycle = 0;
        for now in 0..10_000u64 {
            cycle = now;
            mock_rot_respond(&mut mailbox, verdict);
            if let Some(v) = writer.tick(now, &mut queue, &mut mailbox) {
                violation = Some(v);
            }
            if writer.logs_written == 1 {
                break;
            }
        }
        (writer, violation, cycle)
    }

    #[test]
    fn clean_log_processed_without_violation() {
        let (writer, violation, _) = run_one(0);
        assert_eq!(writer.logs_written, 1);
        assert_eq!(writer.violations, 0);
        assert!(violation.is_none());
        assert_eq!(writer.state(), WriterState::Idle);
    }

    #[test]
    fn violation_raises_exception() {
        let (writer, violation, _) = run_one(1);
        assert_eq!(writer.violations, 1);
        let v = violation.expect("violation raised");
        assert_eq!(v.log.pc, 0x8000_0000);
    }

    #[test]
    fn transfer_takes_beats_times_latency() {
        let (_, _, cycles) = run_one(0);
        let t = AxiTiming::default();
        assert!(
            cycles >= BEATS as u64 * t.write_beat + t.read,
            "transfer must cost at least the AXI beats: {cycles}"
        );
    }

    /// Streams one log from `core` into a fresh mailbox and returns the
    /// mailbox contents once the doorbell rings: the log and word 7.
    fn deliver(core: u8, sent: CommitLog, integrity: bool) -> (CommitLog, u32) {
        let mut queue = CfiQueue::new(1);
        let mut mailbox = CfiMailbox::new();
        if integrity {
            mailbox.enable_integrity();
        }
        let mut writer = LogWriter::new(AxiTiming::default());
        queue.push(TaggedLog { core, log: sent });
        for now in 0..1000 {
            writer.tick(now, &mut queue, &mut mailbox);
            if mailbox.doorbell_pending() {
                break;
            }
        }
        let words: Vec<u32> = (0..crate::commit_log::WORDS)
            .map(|i| mailbox.host_read_data(i))
            .collect();
        (
            CommitLog::from_words(&words.try_into().expect("7 words")),
            mailbox.host_read_data(crate::commit_log::WORDS),
        )
    }

    const SENT: CommitLog = CommitLog {
        pc: 0x1111_2222_3333_4444,
        insn: 0x0080_00ef,
        next: 0x1111_2222_3333_4448,
        target: 0x5555_6666_7777_8888,
    };

    #[test]
    fn mailbox_receives_full_log() {
        let (got, word7) = deliver(0, SENT, true);
        assert_eq!(got, SENT);
        // Spare word 7 carries the integrity word for this (first) log.
        assert_eq!(word7, CfiMailbox::integrity_word(1, &SENT.to_words()));
    }

    #[test]
    fn word7_carries_source_core_without_integrity() {
        let (got, word7) = deliver(1, SENT, false);
        assert_eq!(got, SENT);
        assert_eq!(word7, 1, "the banked firmware reads the core id here");
    }

    #[test]
    fn probed_tick_records_spans_and_latency() {
        let mut queue = CfiQueue::new(4);
        let mut mailbox = CfiMailbox::new();
        let mut writer = LogWriter::new(AxiTiming::default());
        let mut rec = titancfi_obs::Recorder::new();
        queue.push(log(0x8000_0000));
        for now in 0..10_000u64 {
            if mailbox.doorbell_pending() {
                mailbox.write(
                    opentitan_model::mailbox::regs::DATA0,
                    riscv_isa::MemWidth::W,
                    0,
                );
                mailbox.write(
                    opentitan_model::mailbox::regs::COMPLETION,
                    riscv_isa::MemWidth::W,
                    1,
                );
            }
            writer.tick_probed(now, &mut queue, &mut mailbox, &mut rec);
            if writer.logs_written == 1 {
                break;
            }
        }
        assert_eq!(rec.metrics.counter("writer.logs_checked"), 1);
        assert_eq!(rec.metrics.counter("writer.axi_beats"), BEATS as u64);
        assert_eq!(rec.metrics.counter("mailbox.doorbells"), 1);
        let latency = rec
            .metrics
            .histogram("mailbox.doorbell_to_completion")
            .expect("latency histogram");
        assert_eq!(latency.count, 1);
        let trace = rec.timeline.to_perfetto_json().encode();
        titancfi_obs::Timeline::validate(&trace).expect("balanced trace");
        assert!(trace.contains("drain-log"));
        assert!(trace.contains("check-pending"));
    }

    #[test]
    fn idle_with_empty_queue_stays_idle() {
        let mut queue = CfiQueue::new(1);
        let mut mailbox = CfiMailbox::new();
        let mut writer = LogWriter::new(AxiTiming::default());
        for now in 0..10 {
            assert!(writer.tick(now, &mut queue, &mut mailbox).is_none());
        }
        assert_eq!(writer.state(), WriterState::Idle);
        assert!(!writer.busy());
    }

    /// Drives the writer against a silent RoT and returns it when it goes
    /// idle (or after `budget` cycles).
    fn run_unanswered(resilience: ResilienceConfig, budget: u64) -> (LogWriter, u64) {
        let mut queue = CfiQueue::new(4);
        let mut mailbox = CfiMailbox::new();
        let mut writer = LogWriter::with_resilience(AxiTiming::default(), resilience);
        queue.push(log(0x8000_0000));
        for now in 0..budget {
            writer.tick(now, &mut queue, &mut mailbox);
            if now > 0 && !writer.busy() && queue.is_empty() {
                return (writer, now);
            }
        }
        (writer, budget)
    }

    #[test]
    fn watchdog_escalates_fail_closed_within_bound() {
        let resilience = ResilienceConfig {
            watchdog_timeout: 500,
            max_attempts: 3,
            backoff: 64,
            policy: FailPolicy::FailClosed,
        };
        let mut queue = CfiQueue::new(4);
        let mut mailbox = CfiMailbox::new();
        let mut writer = LogWriter::with_resilience(AxiTiming::default(), resilience);
        queue.push(log(0x8000_0000));
        let mut violation = None;
        let mut done_at = 0;
        // 3 attempts x (write + 500 wait) + backoffs is well under 4_000.
        for now in 0..4_000u64 {
            if let Some(v) = writer.tick(now, &mut queue, &mut mailbox) {
                violation = Some(v);
                done_at = now;
                break;
            }
        }
        let v = violation.expect("fail-closed escalation synthesizes a violation");
        assert_eq!(v.log.pc, 0x8000_0000);
        assert!(done_at < 4_000);
        assert_eq!(writer.watchdog_timeouts, 3);
        assert_eq!(writer.retries, 2);
        assert_eq!(writer.forced_violations, 1);
        assert_eq!(writer.violations, 1);
        assert_eq!(writer.state(), WriterState::Idle);
        // The abort left the mailbox clean for the next log.
        assert!(!mailbox.doorbell_pending());
        assert_eq!(mailbox.aborts(), 1);
    }

    #[test]
    fn watchdog_escalates_fail_open_and_drops_log() {
        let resilience = ResilienceConfig {
            watchdog_timeout: 500,
            max_attempts: 2,
            backoff: 64,
            policy: FailPolicy::FailOpen,
        };
        let (writer, _) = run_unanswered(resilience, 10_000);
        assert_eq!(writer.dropped_logs, 1);
        assert_eq!(writer.violations, 0);
        assert_eq!(writer.logs_written, 0);
        assert_eq!(writer.state(), WriterState::Idle);
    }

    #[test]
    fn watchdog_off_waits_forever() {
        let (writer, ran) = run_unanswered(ResilienceConfig::off(), 50_000);
        assert_eq!(ran, 50_000);
        assert!(writer.busy());
        assert_eq!(writer.watchdog_timeouts, 0);
    }

    #[test]
    fn retry_rings_doorbell_again_after_dropped_ring() {
        let cfg = FaultConfig::only(FaultClass::DoorbellDrop, 4, 7);
        let mut queue = CfiQueue::new(32);
        let mut mailbox = CfiMailbox::new();
        mailbox.enable_integrity();
        let mut writer = LogWriter::with_resilience(
            AxiTiming::default(),
            ResilienceConfig {
                watchdog_timeout: 200,
                max_attempts: 8,
                backoff: 32,
                policy: FailPolicy::FailClosed,
            },
        );
        writer.attach_injector(FaultInjector::new(cfg));
        for i in 0..20 {
            queue.push(log(0x8000_0000 + 8 * i));
        }
        for now in 0..2_000_000u64 {
            mock_rot_respond(&mut mailbox, 0);
            writer.tick(now, &mut queue, &mut mailbox);
            if writer.logs_written + writer.forced_violations == 20 {
                break;
            }
        }
        assert_eq!(
            writer.logs_written + writer.forced_violations,
            20,
            "every log delivered or escalated, never hung"
        );
        let report = writer.injector().expect("attached").report();
        let drops = report.class(FaultClass::DoorbellDrop);
        assert!(drops.injected > 0, "the schedule must actually drop rings");
        assert_eq!(drops.injected, drops.detected, "watchdog caught each drop");
        assert!(drops.recovered > 0, "retries must rescue dropped rings");
        assert!(report.all_resolved());
        assert_eq!(writer.watchdog_timeouts, drops.injected);
    }

    #[test]
    fn bit_flips_rejected_by_integrity_and_recovered() {
        let cfg = FaultConfig::only(FaultClass::BitFlip, 6, 11);
        let mut queue = CfiQueue::new(32);
        let mut mailbox = CfiMailbox::new();
        mailbox.enable_integrity();
        let mut writer = LogWriter::with_resilience(
            AxiTiming::default(),
            ResilienceConfig {
                watchdog_timeout: 200,
                max_attempts: 12,
                backoff: 16,
                policy: FailPolicy::FailClosed,
            },
        );
        writer.attach_injector(FaultInjector::new(cfg));
        for i in 0..20 {
            queue.push(log(0x8000_0000 + 8 * i));
        }
        for now in 0..2_000_000u64 {
            mock_rot_respond(&mut mailbox, 0);
            writer.tick(now, &mut queue, &mut mailbox);
            if writer.logs_written + writer.forced_violations == 20 {
                break;
            }
        }
        assert_eq!(writer.logs_written + writer.forced_violations, 20);
        let flips = writer
            .injector()
            .expect("attached")
            .report()
            .class(FaultClass::BitFlip);
        assert!(flips.injected > 0);
        assert_eq!(flips.unresolved, 0);
        assert!(
            writer.integrity_rejects > 0,
            "corruption must be caught at ring time, not waited out"
        );
        assert_eq!(mailbox.integrity_rejects(), writer.integrity_rejects);
    }

    #[test]
    fn fault_free_run_identical_with_and_without_resilience() {
        let run = |resilience: ResilienceConfig, injector: Option<FaultInjector>| {
            let mut queue = CfiQueue::new(32);
            let mut mailbox = CfiMailbox::new();
            mailbox.enable_integrity();
            let mut writer = LogWriter::with_resilience(AxiTiming::default(), resilience);
            if let Some(inj) = injector {
                writer.attach_injector(inj);
            }
            for i in 0..10 {
                queue.push(log(0x8000_0000 + 8 * i));
            }
            let mut trace = Vec::new();
            for now in 0..100_000u64 {
                mock_rot_respond(&mut mailbox, 0);
                writer.tick(now, &mut queue, &mut mailbox);
                if writer.logs_written == 10 {
                    trace.push(now);
                    break;
                }
            }
            (trace, writer.logs_written, writer.retries)
        };
        let baseline = run(ResilienceConfig::off(), None);
        let with_watchdog = run(ResilienceConfig::default(), None);
        let with_inert_injector = run(
            ResilienceConfig::default(),
            Some(FaultInjector::new(FaultConfig::none(99))),
        );
        assert_eq!(baseline, with_watchdog);
        assert_eq!(baseline, with_inert_injector);
    }
}
