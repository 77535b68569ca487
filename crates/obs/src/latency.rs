//! Per-log lifecycle latency spans and detection-latency attribution.
//!
//! Every commit log that enters the transport pipeline passes the same
//! five boundaries, in order:
//!
//! ```text
//! accept ──> dequeue ──> doorbell ──> completion ──> verdict
//!   (queue push) (writer pop) (ring ok)  (fw done)    (result read)
//! ```
//!
//! [`LatencySpans`] stamps each boundary in sim cycles and attributes the
//! gap between consecutive boundaries to a pipeline stage:
//!
//! | stage          | interval              | what it measures                |
//! |----------------|-----------------------|---------------------------------|
//! | `queue_wait`   | accept → dequeue      | CfiQueue residency              |
//! | `axi_write`    | dequeue → doorbell    | LogWriter AXI beats (+ replays) |
//! | `fw_check`     | doorbell → completion | RoT firmware check (+ retries)  |
//! | `verdict_read` | completion → verdict  | completion poll + result read   |
//!
//! Because the stages are differences of consecutive boundary stamps they
//! telescope: their sum equals `verdict − accept` *exactly*, per log — the
//! conservation law, enforced at finalization time (any missing or
//! non-monotonic stamp is counted in `conservation_failures`, which tests
//! and the `latency` bench pin to zero). The doorbell stamp is the *first*
//! accepted ring, so watchdog-retry machinery (re-written beats, re-rings,
//! backoff) lands in `fw_check`, keeping the telescoping exact under
//! fault injection.
//!
//! **Detection latency** — the paper's window of vulnerability — is the
//! span from a corrupt control transfer committing on the host (its
//! accept stamp) to the RoT flagging the violation: `verdict − accept`
//! for violation verdicts, and `escalation − accept` for fail-closed
//! forced violations, collected in the `detection` histogram.
//!
//! All stamps come from the simulation cycle counter, never the wall
//! clock, so every distribution here is byte-identical across reruns and
//! with the simulator fast path on or off. The
//! collector is pure bookkeeping over `u64`s: attaching it does not
//! perturb the simulation (fingerprint-pinned in `tests/latency_spans.rs`).

use std::collections::VecDeque;

use crate::metrics::Histogram;
use crate::probe::Probe;
use titancfi_harness::Json;

/// How a log left the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminal {
    /// Firmware verdict: clean.
    CheckedOk,
    /// Firmware verdict: CFI violation.
    CheckedViolation,
    /// Fail-open escalation dropped the log unverified.
    Dropped,
    /// Fail-closed escalation forced a violation without a verdict.
    Forced,
}

/// Boundary stamps for the log currently owned by the LogWriter. The
/// queue is FIFO and the writer holds exactly one log at a time, so a
/// single in-flight record plus a queue of accept stamps mirrors the
/// hardware exactly.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    accept: u64,
    dequeue: u64,
    doorbell: Option<u64>,
    completion: Option<u64>,
}

/// One finalized per-log record (kept only when `keep_records` is on —
/// the conservation test inspects these individually).
#[derive(Debug, Clone, Copy)]
pub struct LogRecord {
    /// Cycle the log was accepted into the CFI queue.
    pub accept: u64,
    /// Cycle the LogWriter popped it.
    pub dequeue: u64,
    /// Cycle of the first accepted doorbell ring (None if escalated
    /// before any ring was accepted).
    pub doorbell: Option<u64>,
    /// Cycle the firmware completion was observed.
    pub completion: Option<u64>,
    /// Cycle of the terminal event (verdict read or escalation).
    pub terminal: u64,
    /// How the log left the pipeline.
    pub kind: Terminal,
}

impl LogRecord {
    /// The per-log conservation law: for checked logs, the four stage
    /// durations exist, are non-negative, and sum exactly to
    /// `terminal − accept`. Abandoned logs conserve over the stages they
    /// reached (accept → dequeue → terminal).
    #[must_use]
    pub fn conserved(&self) -> bool {
        let Some(queue_wait) = self.dequeue.checked_sub(self.accept) else {
            return false;
        };
        let Some(e2e) = self.terminal.checked_sub(self.accept) else {
            return false;
        };
        match self.kind {
            Terminal::CheckedOk | Terminal::CheckedViolation => {
                let (Some(ring), Some(done)) = (self.doorbell, self.completion) else {
                    return false;
                };
                let Some(axi_write) = ring.checked_sub(self.dequeue) else {
                    return false;
                };
                let Some(fw_check) = done.checked_sub(ring) else {
                    return false;
                };
                let Some(verdict_read) = self.terminal.checked_sub(done) else {
                    return false;
                };
                queue_wait + axi_write + fw_check + verdict_read == e2e
            }
            Terminal::Dropped | Terminal::Forced => {
                // No verdict boundaries; the transport tail is one lump.
                self.terminal
                    .checked_sub(self.dequeue)
                    .is_some_and(|tail| queue_wait + tail == e2e)
            }
        }
    }
}

/// Per-stage and end-to-end latency distributions for one SoC run.
#[derive(Debug, Clone)]
pub struct LatencySpans {
    /// Accept stamps of logs still sitting in the CFI queue (FIFO).
    pending: VecDeque<u64>,
    current: Option<InFlight>,
    /// CfiQueue residency (accept → dequeue).
    pub queue_wait: Histogram,
    /// LogWriter AXI beats incl. replays (dequeue → first accepted ring).
    pub axi_write: Histogram,
    /// Firmware check incl. watchdog retries (ring → completion).
    pub fw_check: Histogram,
    /// Completion poll + result read (completion → verdict).
    pub verdict_read: Histogram,
    /// Accept → verdict, checked logs only.
    pub end_to_end: Histogram,
    /// Accept → escalation, abandoned (dropped/forced) logs only.
    pub abandoned_e2e: Histogram,
    /// Detection window: corrupting commit → violation flag (violation
    /// verdicts and fail-closed forced violations).
    pub detection: Histogram,
    /// Logs checked clean.
    pub checked_ok: u64,
    /// Logs flagged as violations by a firmware verdict.
    pub violations: u64,
    /// Logs dropped by fail-open escalation.
    pub dropped: u64,
    /// Logs force-flagged by fail-closed escalation.
    pub forced: u64,
    /// Terminal events whose stamps failed the conservation law. Always 0
    /// on a correct pipeline; tests pin it.
    pub conservation_failures: u64,
    /// Writer pops with no matching accept stamp (collector attached
    /// mid-run). Always 0 when attached before the run starts.
    pub orphans: u64,
    keep_records: bool,
    records: Vec<LogRecord>,
}

impl Default for LatencySpans {
    fn default() -> LatencySpans {
        LatencySpans::new()
    }
}

impl LatencySpans {
    /// An empty collector. All histograms use [`Histogram::cycles`] bounds
    /// so fleet-level [`Histogram::merge`] always type-checks.
    #[must_use]
    pub fn new() -> LatencySpans {
        LatencySpans {
            pending: VecDeque::new(),
            current: None,
            queue_wait: Histogram::cycles(),
            axi_write: Histogram::cycles(),
            fw_check: Histogram::cycles(),
            verdict_read: Histogram::cycles(),
            end_to_end: Histogram::cycles(),
            abandoned_e2e: Histogram::cycles(),
            detection: Histogram::cycles(),
            checked_ok: 0,
            violations: 0,
            dropped: 0,
            forced: 0,
            conservation_failures: 0,
            orphans: 0,
            keep_records: false,
            records: Vec::new(),
        }
    }

    /// Keep every finalized [`LogRecord`] for per-log inspection (tests).
    #[must_use]
    pub fn keeping_records(mut self) -> LatencySpans {
        self.keep_records = true;
        self
    }

    /// A log entered the CFI queue at `cycle`.
    pub fn accepted(&mut self, cycle: u64) {
        self.pending.push_back(cycle);
    }

    /// The LogWriter popped the head log at `cycle`.
    pub fn dequeued(&mut self, cycle: u64) {
        match self.pending.pop_front() {
            Some(accept) => {
                self.current = Some(InFlight {
                    accept,
                    dequeue: cycle,
                    doorbell: None,
                    completion: None,
                });
            }
            None => self.orphans += 1,
        }
    }

    /// A doorbell ring was accepted at `cycle`. Only the first ring per
    /// log is kept — retries after a watchdog stay inside `fw_check`.
    pub fn doorbell(&mut self, cycle: u64) {
        if let Some(cur) = self.current.as_mut() {
            cur.doorbell.get_or_insert(cycle);
        }
    }

    /// The firmware completion was observed at `cycle`.
    pub fn completion(&mut self, cycle: u64) {
        if let Some(cur) = self.current.as_mut() {
            cur.completion = Some(cycle);
        }
    }

    /// The verdict was read at `cycle`; `violation` is the flag.
    pub fn verdict(&mut self, cycle: u64, violation: bool) {
        let kind = if violation {
            Terminal::CheckedViolation
        } else {
            Terminal::CheckedOk
        };
        self.finalize(cycle, kind);
    }

    /// The writer escalated at `cycle` without a verdict: `forced` maps to
    /// fail-closed (forced violation), else fail-open (dropped).
    pub fn abandoned(&mut self, cycle: u64, forced: bool) {
        let kind = if forced {
            Terminal::Forced
        } else {
            Terminal::Dropped
        };
        self.finalize(cycle, kind);
    }

    fn finalize(&mut self, cycle: u64, kind: Terminal) {
        let Some(cur) = self.current.take() else {
            self.orphans += 1;
            return;
        };
        let record = LogRecord {
            accept: cur.accept,
            dequeue: cur.dequeue,
            doorbell: cur.doorbell,
            completion: cur.completion,
            terminal: cycle,
            kind,
        };
        if !record.conserved() {
            self.conservation_failures += 1;
        } else {
            match kind {
                Terminal::CheckedOk | Terminal::CheckedViolation => {
                    let ring = record.doorbell.expect("conserved implies doorbell");
                    let done = record.completion.expect("conserved implies completion");
                    self.queue_wait.record(record.dequeue - record.accept);
                    self.axi_write.record(ring - record.dequeue);
                    self.fw_check.record(done - ring);
                    self.verdict_read.record(cycle - done);
                    self.end_to_end.record(cycle - record.accept);
                }
                Terminal::Dropped | Terminal::Forced => {
                    self.queue_wait.record(record.dequeue - record.accept);
                    self.abandoned_e2e.record(cycle - record.accept);
                }
            }
        }
        match kind {
            Terminal::CheckedOk => self.checked_ok += 1,
            Terminal::CheckedViolation => {
                self.violations += 1;
                self.detection.record(cycle.saturating_sub(record.accept));
            }
            Terminal::Dropped => self.dropped += 1,
            Terminal::Forced => {
                self.forced += 1;
                self.detection.record(cycle.saturating_sub(record.accept));
            }
        }
        if self.keep_records {
            self.records.push(record);
        }
    }

    /// Logs accepted but not yet terminal (queued + writer-held).
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.pending.len() as u64 + u64::from(self.current.is_some())
    }

    /// Total logs that reached a terminal state.
    #[must_use]
    pub fn terminals(&self) -> u64 {
        self.checked_ok + self.violations + self.dropped + self.forced
    }

    /// Whether every finalized log satisfied the conservation law and no
    /// lifecycle event arrived out of pairing.
    #[must_use]
    pub fn conservation_ok(&self) -> bool {
        self.conservation_failures == 0 && self.orphans == 0
    }

    /// The finalized per-log records ([`LatencySpans::keeping_records`]).
    #[must_use]
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// The checked-log stage histograms, in pipeline order, with their
    /// report names.
    #[must_use]
    pub fn stages(&self) -> [(&'static str, &Histogram); 5] {
        [
            ("queue_wait", &self.queue_wait),
            ("axi_write", &self.axi_write),
            ("fw_check", &self.fw_check),
            ("verdict_read", &self.verdict_read),
            ("end_to_end", &self.end_to_end),
        ]
    }

    /// Folds another collector's distributions and counters into this one
    /// (fleet aggregation). In-flight bookkeeping does not transfer.
    pub fn merge(&mut self, other: &LatencySpans) {
        self.queue_wait.merge(&other.queue_wait);
        self.axi_write.merge(&other.axi_write);
        self.fw_check.merge(&other.fw_check);
        self.verdict_read.merge(&other.verdict_read);
        self.end_to_end.merge(&other.end_to_end);
        self.abandoned_e2e.merge(&other.abandoned_e2e);
        self.detection.merge(&other.detection);
        self.checked_ok += other.checked_ok;
        self.violations += other.violations;
        self.dropped += other.dropped;
        self.forced += other.forced;
        self.conservation_failures += other.conservation_failures;
        self.orphans += other.orphans;
    }

    /// Percentile summary (`p50/p95/p99/max/mean/count`) for one histogram
    /// — the shape every BENCH_latency.json cell uses.
    #[must_use]
    pub fn summary_json(h: &Histogram) -> Json {
        Json::obj(vec![
            ("count", Json::Num(h.count as f64)),
            ("p50", Json::Num(h.percentile(0.50) as f64)),
            ("p95", Json::Num(h.percentile(0.95) as f64)),
            ("p99", Json::Num(h.percentile(0.99) as f64)),
            ("max", Json::Num(h.max as f64)),
            ("mean", Json::Num(h.mean())),
        ])
    }

    /// The full collector as JSON: per-stage summaries, terminal counters,
    /// detection window, conservation verdict.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut stages: Vec<(String, Json)> = Vec::new();
        for (name, h) in self.stages() {
            stages.push((name.to_string(), LatencySpans::summary_json(h)));
        }
        Json::obj(vec![
            ("stages", Json::Obj(stages)),
            (
                "abandoned_e2e",
                LatencySpans::summary_json(&self.abandoned_e2e),
            ),
            ("detection", LatencySpans::summary_json(&self.detection)),
            ("checked_ok", Json::Num(self.checked_ok as f64)),
            ("violations", Json::Num(self.violations as f64)),
            ("dropped", Json::Num(self.dropped as f64)),
            ("forced", Json::Num(self.forced as f64)),
            ("in_flight", Json::Num(self.in_flight() as f64)),
            ("conservation_ok", Json::Bool(self.conservation_ok())),
        ])
    }
}

/// A standalone [`Probe`] that records *only* the log-lifecycle hooks —
/// the cheapest way to collect latency spans without a full
/// [`crate::Recorder`] (no timeline events, no metric registry).
/// `Probe::enabled` stays `false` so components skip building the richer
/// event payloads.
#[derive(Debug, Clone, Default)]
pub struct LatencyCollector {
    /// The collected spans.
    pub spans: LatencySpans,
}

impl LatencyCollector {
    /// An empty collector.
    #[must_use]
    pub fn new() -> LatencyCollector {
        LatencyCollector::default()
    }

    /// Keep per-log records for inspection.
    #[must_use]
    pub fn keeping_records() -> LatencyCollector {
        LatencyCollector {
            spans: LatencySpans::new().keeping_records(),
        }
    }
}

impl Probe for LatencyCollector {
    fn log_accepted(&mut self, cycle: u64) {
        self.spans.accepted(cycle);
    }

    fn log_dequeued(&mut self, cycle: u64) {
        self.spans.dequeued(cycle);
    }

    fn log_doorbell(&mut self, cycle: u64) {
        self.spans.doorbell(cycle);
    }

    fn log_completion(&mut self, cycle: u64) {
        self.spans.completion(cycle);
    }

    fn log_verdict(&mut self, cycle: u64, violation: bool) {
        self.spans.verdict(cycle, violation);
    }

    fn log_abandoned(&mut self, cycle: u64, forced: bool) {
        self.spans.abandoned(cycle, forced);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checked_log(spans: &mut LatencySpans, accept: u64, step: u64, violation: bool) {
        spans.accepted(accept);
        spans.dequeued(accept + step);
        spans.doorbell(accept + 2 * step);
        spans.completion(accept + 3 * step);
        spans.verdict(accept + 4 * step, violation);
    }

    #[test]
    fn stages_telescope_to_end_to_end() {
        let mut s = LatencySpans::new().keeping_records();
        checked_log(&mut s, 100, 7, false);
        assert_eq!(s.checked_ok, 1);
        assert!(s.conservation_ok());
        assert_eq!(s.queue_wait.sum, 7);
        assert_eq!(s.axi_write.sum, 7);
        assert_eq!(s.fw_check.sum, 7);
        assert_eq!(s.verdict_read.sum, 7);
        assert_eq!(s.end_to_end.sum, 28);
        assert_eq!(
            s.queue_wait.sum + s.axi_write.sum + s.fw_check.sum + s.verdict_read.sum,
            s.end_to_end.sum
        );
        assert!(s.records()[0].conserved());
    }

    #[test]
    fn fifo_pairing_survives_queued_backlog() {
        let mut s = LatencySpans::new();
        // Three logs accepted before the writer touches any of them.
        s.accepted(10);
        s.accepted(20);
        s.accepted(30);
        for (dequeue, accept) in [(40u64, 10u64), (50, 20), (60, 30)] {
            s.dequeued(dequeue);
            s.doorbell(dequeue + 4);
            s.completion(dequeue + 8);
            s.verdict(dequeue + 9, false);
            assert_eq!(s.queue_wait.max, dequeue - accept);
        }
        assert_eq!(s.checked_ok, 3);
        assert_eq!(s.in_flight(), 0);
        assert!(s.conservation_ok());
    }

    #[test]
    fn retry_rings_stay_inside_fw_check() {
        let mut s = LatencySpans::new();
        s.accepted(0);
        s.dequeued(10);
        s.doorbell(20); // first ring
        s.doorbell(500); // watchdog retry re-ring: ignored
        s.completion(600);
        s.verdict(610, false);
        assert!(s.conservation_ok());
        assert_eq!(s.axi_write.sum, 10, "dequeue -> first ring");
        assert_eq!(
            s.fw_check.sum, 580,
            "first ring -> completion, retries included"
        );
    }

    #[test]
    fn violation_and_forced_feed_detection() {
        let mut s = LatencySpans::new();
        checked_log(&mut s, 0, 5, true); // verdict violation at cycle 20
        s.accepted(100);
        s.dequeued(110);
        s.abandoned(400, true); // fail-closed forced violation
        s.accepted(500);
        s.dequeued(510);
        s.abandoned(800, false); // fail-open drop
        assert_eq!(s.violations, 1);
        assert_eq!(s.forced, 1);
        assert_eq!(s.dropped, 1);
        assert_eq!(s.detection.count, 2, "verdict violation + forced");
        assert_eq!(s.detection.sum, 20 + 300);
        assert_eq!(s.abandoned_e2e.count, 2);
        assert!(s.conservation_ok());
    }

    #[test]
    fn unpaired_events_count_as_orphans_not_panics() {
        let mut s = LatencySpans::new();
        s.dequeued(5); // nothing accepted
        s.verdict(10, false); // nothing in flight
        assert_eq!(s.orphans, 2);
        assert!(!s.conservation_ok());
    }

    #[test]
    fn in_flight_tracks_queue_and_writer() {
        let mut s = LatencySpans::new();
        s.accepted(1);
        s.accepted(2);
        assert_eq!(s.in_flight(), 2);
        s.dequeued(3);
        assert_eq!(s.in_flight(), 2, "one queued + one writer-held");
        s.doorbell(4);
        s.completion(5);
        s.verdict(6, false);
        assert_eq!(s.in_flight(), 1);
        assert_eq!(s.terminals(), 1);
    }

    #[test]
    fn merge_accumulates_everything() {
        let mut a = LatencySpans::new();
        checked_log(&mut a, 0, 3, false);
        let mut b = LatencySpans::new();
        checked_log(&mut b, 1000, 9, true);
        a.merge(&b);
        assert_eq!(a.checked_ok, 1);
        assert_eq!(a.violations, 1);
        assert_eq!(a.end_to_end.count, 2);
        assert_eq!(a.detection.count, 1);
        assert!(a.conservation_ok());
    }

    #[test]
    fn json_summary_has_percentiles() {
        let mut s = LatencySpans::new();
        checked_log(&mut s, 0, 4, false);
        let json = s.to_json();
        let e2e = json
            .get("stages")
            .and_then(|st| st.get("end_to_end"))
            .expect("end_to_end stage");
        assert_eq!(e2e.get("count").and_then(Json::as_num), Some(1.0));
        assert_eq!(e2e.get("max").and_then(Json::as_num), Some(16.0));
        assert_eq!(json.get("conservation_ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn collector_probe_routes_hooks() {
        let mut c = LatencyCollector::new();
        assert!(!c.enabled(), "latency-only probes skip rich payloads");
        c.log_accepted(0);
        c.log_dequeued(2);
        c.log_doorbell(4);
        c.log_completion(6);
        c.log_verdict(8, false);
        assert_eq!(c.spans.checked_ok, 1);
        assert!(c.spans.conservation_ok());
    }
}
