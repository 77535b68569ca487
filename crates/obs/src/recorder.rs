//! The everything-on [`Probe`] implementation.

use crate::latency::LatencySpans;
use crate::metrics::SimMetrics;
use crate::probe::{Probe, RetireSample, Track};
use crate::profiler::FirmwareProfiler;
use crate::timeline::Timeline;
use std::collections::BTreeMap;

/// A [`Probe`] that records into all backends: the metric registry, the
/// event timeline, the per-log latency spans, and (when firmware symbols
/// are supplied) the exact profiler. This is what
/// `SystemOnChip::attach_recorder` installs.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Counter / histogram registry.
    pub metrics: SimMetrics,
    /// Span / instant / counter-sample record for Perfetto export.
    pub timeline: Timeline,
    /// Per-log lifecycle latency attribution.
    pub latency: LatencySpans,
    /// Per-PC firmware cycle attribution, when enabled.
    pub profiler: Option<FirmwareProfiler>,
}

impl Recorder {
    /// A recorder with metrics and timeline but no profiler.
    #[must_use]
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Enables the firmware profiler, resolving PCs against `symbols`
    /// (name → address, as `Program::symbols` provides).
    #[must_use]
    pub fn with_profiler(mut self, symbols: &BTreeMap<String, u64>) -> Recorder {
        self.profiler = Some(FirmwareProfiler::new(symbols));
        self
    }
}

impl Probe for Recorder {
    fn enabled(&self) -> bool {
        true
    }

    fn counter_add(&mut self, name: &'static str, delta: u64) {
        self.metrics.add(name, delta);
    }

    fn histogram_record(&mut self, name: &'static str, value: u64) {
        self.metrics.record(name, value);
    }

    fn histogram_record_n(&mut self, name: &'static str, value: u64, count: u64) {
        self.metrics.record_n(name, value, count);
    }

    fn span_begin(&mut self, track: Track, name: &'static str, cycle: u64) {
        self.timeline.span_begin(track, name, cycle);
    }

    fn span_end(&mut self, track: Track, cycle: u64) {
        self.timeline.span_end(track, cycle);
    }

    fn instant(&mut self, track: Track, name: &'static str, cycle: u64) {
        self.timeline.instant(track, name, cycle);
    }

    fn counter_sample(&mut self, name: &'static str, cycle: u64, value: u64) {
        self.timeline.counter_sample(name, cycle, value);
    }

    fn retire(&mut self, sample: RetireSample) {
        if let Some(profiler) = &mut self.profiler {
            profiler.record(sample);
        }
    }

    fn log_accepted(&mut self, cycle: u64) {
        self.latency.accepted(cycle);
    }

    fn log_dequeued(&mut self, cycle: u64) {
        self.latency.dequeued(cycle);
    }

    fn log_doorbell(&mut self, cycle: u64) {
        self.latency.doorbell(cycle);
    }

    fn log_completion(&mut self, cycle: u64) {
        self.latency.completion(cycle);
    }

    fn log_verdict(&mut self, cycle: u64, violation: bool) {
        self.latency.verdict(cycle, violation);
    }

    fn log_abandoned(&mut self, cycle: u64, forced: bool) {
        self.latency.abandoned(cycle, forced);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_routes_to_all_backends() {
        let mut symbols = BTreeMap::new();
        symbols.insert("entry".to_string(), 0x0);
        let mut r = Recorder::new().with_profiler(&symbols);
        assert!(r.enabled());
        r.counter_add("stall.queue_full", 2);
        r.histogram_record("mailbox.latency", 40);
        r.span_begin(Track::Firmware, "cfi-check", 100);
        r.span_end(Track::Firmware, 140);
        r.retire(RetireSample {
            pc: 0x4,
            cost: 3,
            cycle: 100,
            is_call: false,
            is_ret: false,
            target: 0,
        });
        assert_eq!(r.metrics.counter("stall.queue_full"), 2);
        assert_eq!(r.metrics.histogram("mailbox.latency").unwrap().count, 1);
        assert_eq!(r.timeline.len(), 2);
        assert_eq!(r.profiler.as_ref().unwrap().total_cycles(), 3);
    }

    #[test]
    fn retire_without_profiler_is_a_no_op() {
        let mut r = Recorder::new();
        r.retire(RetireSample {
            pc: 0,
            cost: 1,
            cycle: 0,
            is_call: false,
            is_ret: false,
            target: 0,
        });
        assert!(r.profiler.is_none());
    }
}
