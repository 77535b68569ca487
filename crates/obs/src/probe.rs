//! The probe interface simulation components report into.
//!
//! Components expose `*_probed` method variants taking `&mut dyn Probe`;
//! the plain variants delegate with [`NoProbe`], whose hooks are all empty
//! defaults — the compiler sees through the no-op calls and the
//! uninstrumented hot path costs nothing. An attached
//! [`Recorder`](crate::recorder::Recorder) implements every hook.

/// Logical timeline a probe event belongs to. Each track renders as one
/// named thread row in the Perfetto UI, mirroring the paper's Figure 1
/// pipeline stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// The CVA6 commit stage (stalls, CF retirements).
    HostCommit,
    /// The CFI queue between the filters and the Log Writer.
    Queue,
    /// The Log Writer FSM and its AXI master port.
    LogWriter,
    /// The CFI mailbox (doorbell / completion handshake).
    Mailbox,
    /// The Ibex core executing the policy firmware.
    Firmware,
}

impl Track {
    /// All tracks, in display order.
    pub const ALL: [Track; 5] = [
        Track::HostCommit,
        Track::Queue,
        Track::LogWriter,
        Track::Mailbox,
        Track::Firmware,
    ];

    /// Stable thread id for trace export (tid 1..).
    #[must_use]
    pub fn tid(self) -> u32 {
        match self {
            Track::HostCommit => 1,
            Track::Queue => 2,
            Track::LogWriter => 3,
            Track::Mailbox => 4,
            Track::Firmware => 5,
        }
    }

    /// Human-readable track name (the Perfetto thread name).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Track::HostCommit => "host-commit",
            Track::Queue => "cfi-queue",
            Track::LogWriter => "log-writer",
            Track::Mailbox => "mailbox",
            Track::Firmware => "rot-firmware",
        }
    }
}

/// One retired firmware instruction, as the profiler needs it: program
/// counter, cycle cost, and enough control-flow classification to maintain
/// a shadow call stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetireSample {
    /// Program counter of the retired instruction.
    pub pc: u64,
    /// Cycles charged to it (bus latency, divider, branch bubble included).
    pub cost: u64,
    /// Cycle at which it completed.
    pub cycle: u64,
    /// The instruction was a function call (push the shadow frame).
    pub is_call: bool,
    /// The instruction was a function return (pop the shadow frame).
    pub is_ret: bool,
    /// Control-transfer destination, when `is_call` (the callee entry).
    pub target: u64,
}

/// The instrumentation sink. Every hook has an empty default body, so an
/// implementation only overrides what it wants and [`NoProbe`] is free.
pub trait Probe {
    /// Whether this probe records anything. Components may use this to
    /// skip building event payloads entirely.
    fn enabled(&self) -> bool {
        false
    }

    /// Adds `delta` to the named monotonic counter.
    fn counter_add(&mut self, _name: &'static str, _delta: u64) {}

    /// Records one `value` observation into the named histogram.
    fn histogram_record(&mut self, _name: &'static str, _value: u64) {}

    /// Records `count` identical observations (bulk form, used when the
    /// simulation fast-forwards across idle cycles).
    fn histogram_record_n(&mut self, _name: &'static str, _value: u64, _count: u64) {}

    /// Opens a span named `name` on `track` at `cycle`.
    fn span_begin(&mut self, _track: Track, _name: &'static str, _cycle: u64) {}

    /// Closes the innermost open span on `track` at `cycle`.
    fn span_end(&mut self, _track: Track, _cycle: u64) {}

    /// A point event on `track` at `cycle`.
    fn instant(&mut self, _track: Track, _name: &'static str, _cycle: u64) {}

    /// Samples the named Perfetto counter track (e.g. queue occupancy).
    fn counter_sample(&mut self, _name: &'static str, _cycle: u64, _value: u64) {}

    /// One retired firmware instruction (feeds the exact profiler).
    fn retire(&mut self, _sample: RetireSample) {}

    // Per-log lifecycle boundaries (feed `crate::latency::LatencySpans`).
    // The CFI queue is FIFO and the LogWriter owns one log at a time, so
    // these unkeyed events pair up exactly; all cycles are sim cycles.

    /// A commit log entered the CFI queue.
    fn log_accepted(&mut self, _cycle: u64) {}

    /// The LogWriter popped the head log.
    fn log_dequeued(&mut self, _cycle: u64) {}

    /// A doorbell ring was accepted by the mailbox (fires again on
    /// watchdog-retry re-rings; collectors keep the first).
    fn log_doorbell(&mut self, _cycle: u64) {}

    /// The firmware completion for the in-flight log was observed.
    fn log_completion(&mut self, _cycle: u64) {}

    /// The verdict was read back; `violation` is the flag.
    fn log_verdict(&mut self, _cycle: u64, _violation: bool) {}

    /// The writer gave up without a verdict: fail-closed (`forced`) or
    /// fail-open drop.
    fn log_abandoned(&mut self, _cycle: u64, _forced: bool) {}
}

/// The disabled probe: every hook is the empty default.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl Probe for NoProbe {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_probe_is_disabled_and_inert() {
        let mut p = NoProbe;
        assert!(!p.enabled());
        p.counter_add("x", 1);
        p.histogram_record("h", 2);
        p.span_begin(Track::Queue, "s", 0);
        p.span_end(Track::Queue, 1);
        p.retire(RetireSample {
            pc: 0,
            cost: 1,
            cycle: 1,
            is_call: false,
            is_ret: false,
            target: 0,
        });
    }

    #[test]
    fn tids_are_distinct() {
        let mut tids: Vec<u32> = Track::ALL.iter().map(|t| t.tid()).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), Track::ALL.len());
    }
}
