//! The metric registry: named counters and fixed-bucket histograms.
//!
//! Counter and histogram names are `&'static str` so the hot-path record
//! call is a `BTreeMap` lookup on a pointer-sized key with no allocation.
//! `BTreeMap` (not hashing) keeps iteration — and therefore every rendered
//! or serialized summary — deterministically ordered, which the trace
//! binary's byte-identical `--metrics` output relies on.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use titancfi_harness::Json;

/// A fixed-bucket histogram over `u64` observations.
///
/// Bucket `i` counts observations with `value <= bounds[i]` (first match
/// wins); values above the last bound land in the overflow bucket. Exact
/// totals (count, sum, min, max) are kept alongside, so means are exact
/// even though the distribution is bucketed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
}

impl Histogram {
    /// A histogram with the given upper bucket bounds (strictly
    /// increasing). An overflow bucket is appended automatically.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    #[must_use]
    pub fn new(bounds: &[u64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Default bucketing for cycle-valued quantities: powers of two up to
    /// 64 Ki cycles.
    #[must_use]
    pub fn cycles() -> Histogram {
        Histogram::new(&[
            1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536,
        ])
    }

    /// Default bucketing for small occupancy-style quantities (0..=64).
    #[must_use]
    pub fn occupancy() -> Histogram {
        Histogram::new(&[0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64])
    }

    /// Records `count` observations of `value`.
    pub fn record_n(&mut self, value: u64, count: u64) {
        if count == 0 {
            return;
        }
        let slot = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += count;
        self.count += count;
        self.sum += value * count;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Mean of the observed values (exact, from the running sum).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated p-th percentile (`p` in `0.0..=1.0`) as the upper bound of
    /// the bucket holding the p-th observation — a conservative (never
    /// under-reported) estimate, exact whenever every observation in that
    /// bucket equals its bound. The overflow bucket reports the exact
    /// tracked `max` rather than a fictitious bound. Empty histograms
    /// report 0.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0..=1.0`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "percentile wants p in 0.0..=1.0");
        if self.count == 0 {
            return 0;
        }
        // Rank of the target observation, 1-based; p = 0.0 means the first.
        let rank = ((p * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (slot, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return match self.bounds.get(slot) {
                    Some(&bound) => bound.min(self.max),
                    None => self.max, // overflow bucket: exact tracked max
                };
            }
        }
        self.max
    }

    /// Folds another histogram into this one: per-bucket counts and the
    /// exact totals (count, sum, min, max) all accumulate. This is how a
    /// fleet aggregates per-device latency distributions.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms have different bucket bounds — merging
    /// across bucketings would silently misattribute observations.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.bounds == other.bounds,
            "cannot merge histograms with mismatched bucket bounds"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The bucket contents as `(upper_bound, count)` pairs; the overflow
    /// bucket reports `u64::MAX` as its bound.
    #[must_use]
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(u64::MAX))
            .zip(self.counts.iter().copied())
            .collect()
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::Num(self.count as f64)),
            ("sum", Json::Num(self.sum as f64)),
            (
                "min",
                if self.count == 0 {
                    Json::Null
                } else {
                    Json::Num(self.min as f64)
                },
            ),
            ("max", Json::Num(self.max as f64)),
            ("mean", Json::Num(self.mean())),
            (
                "buckets",
                Json::Arr(
                    self.buckets()
                        .into_iter()
                        .filter(|&(_, c)| c > 0)
                        .map(|(bound, c)| {
                            Json::Arr(vec![
                                if bound == u64::MAX {
                                    Json::Null // the overflow bucket
                                } else {
                                    Json::Num(bound as f64)
                                },
                                Json::Num(c as f64),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The registry of every counter and histogram one simulation run records.
#[derive(Debug, Clone, Default)]
pub struct SimMetrics {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl SimMetrics {
    /// An empty registry.
    #[must_use]
    pub fn new() -> SimMetrics {
        SimMetrics::default()
    }

    /// Adds `delta` to a counter, creating it at zero on first use.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Reads a counter (0 when never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records into a histogram, creating it with [`Histogram::cycles`]
    /// bounds on first use. Use [`SimMetrics::declare_histogram`] first for
    /// custom bounds.
    pub fn record(&mut self, name: &'static str, value: u64) {
        self.record_n(name, value, 1);
    }

    /// Bulk form of [`SimMetrics::record`].
    pub fn record_n(&mut self, name: &'static str, value: u64, count: u64) {
        self.histograms
            .entry(name)
            .or_insert_with(Histogram::cycles)
            .record_n(value, count);
    }

    /// Registers a histogram with explicit bucket bounds (idempotent: an
    /// existing histogram keeps its data).
    pub fn declare_histogram(&mut self, name: &'static str, histogram: Histogram) {
        self.histograms.entry(name).or_insert(histogram);
    }

    /// Looks up a histogram.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All statically-named counters, name-ordered.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// The registry as one JSON object (`{"counters": {...},
    /// "histograms": {...}}`) — the shape the trace binary writes with
    /// `--metrics`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(&k, &v)| (k.to_string(), Json::Num(v as f64)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(&k, h)| (k.to_string(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Human-readable summary block.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<40} {value:>12}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "histograms:");
            for (name, h) in &self.histograms {
                let min = if h.count == 0 { 0 } else { h.min };
                let _ = writeln!(
                    out,
                    "  {name:<40} n={:<10} mean={:<10.1} min={min} max={}",
                    h.count,
                    h.mean(),
                    h.max
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = SimMetrics::new();
        m.add("stall.queue_full", 3);
        m.add("stall.queue_full", 4);
        assert_eq!(m.counter("stall.queue_full"), 7);
        assert_eq!(m.counter("never"), 0);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new(&[1, 10, 100]);
        h.record(0);
        h.record(1);
        h.record(5);
        h.record(1000); // overflow
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 1006);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
        let buckets = h.buckets();
        assert_eq!(buckets[0], (1, 2)); // 0 and 1
        assert_eq!(buckets[1], (10, 1)); // 5
        assert_eq!(buckets[2], (100, 0));
        assert_eq!(buckets[3], (u64::MAX, 1)); // 1000
    }

    #[test]
    fn bulk_record_matches_loop() {
        let mut a = Histogram::occupancy();
        let mut b = Histogram::occupancy();
        a.record_n(3, 500);
        for _ in 0..500 {
            b.record(3);
        }
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "increasing")]
    fn unsorted_bounds_rejected() {
        let _ = Histogram::new(&[10, 5]);
    }

    #[test]
    fn percentile_of_empty_is_zero() {
        let h = Histogram::cycles();
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.percentile(1.0), 0);
    }

    #[test]
    fn percentile_single_bucket_is_exact_for_uniform_values() {
        let mut h = Histogram::new(&[10]);
        for _ in 0..100 {
            h.record(3);
        }
        // Every observation sits in the first bucket; the bound (10) is
        // clamped to the exact max (3), so the estimate is exact.
        assert_eq!(h.percentile(0.5), 3);
        assert_eq!(h.percentile(0.99), 3);
        assert_eq!(h.percentile(1.0), 3);
    }

    #[test]
    fn percentile_reports_bucket_upper_bounds() {
        let mut h = Histogram::new(&[10, 100, 1000]);
        for _ in 0..90 {
            h.record(5); // bucket <=10
        }
        for _ in 0..10 {
            h.record(500); // bucket <=1000
        }
        assert_eq!(h.percentile(0.5), 10, "p50 lands in the <=10 bucket");
        assert_eq!(
            h.percentile(0.95),
            500,
            "p95 lands in the <=1000 bucket, clamped to the exact max"
        );
        assert_eq!(h.max, 500);
    }

    #[test]
    fn percentile_overflow_bucket_reports_exact_max() {
        let mut h = Histogram::new(&[10]);
        h.record(1);
        h.record(70_000); // overflow
        h.record(90_000); // overflow
        assert_eq!(h.percentile(0.0), 10);
        assert_eq!(
            h.percentile(1.0),
            90_000,
            "overflow percentile is the tracked max, not a fake bound"
        );
        assert_eq!(h.percentile(0.6), 90_000);
    }

    #[test]
    #[should_panic(expected = "0.0..=1.0")]
    fn percentile_rejects_out_of_range_p() {
        let _ = Histogram::cycles().percentile(1.5);
    }

    #[test]
    fn merge_accumulates_counts_and_totals() {
        let mut a = Histogram::cycles();
        let mut b = Histogram::cycles();
        a.record(4);
        a.record(100_000); // overflow
        b.record(7);
        b.record(7);
        a.merge(&b);
        assert_eq!(a.count, 4);
        assert_eq!(a.sum, 4 + 100_000 + 7 + 7);
        assert_eq!(a.min, 4);
        assert_eq!(a.max, 100_000);
        // Equivalent to recording everything into one histogram.
        let mut all = Histogram::cycles();
        for v in [4, 100_000, 7, 7] {
            all.record(v);
        }
        assert_eq!(a, all);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::occupancy();
        a.record(3);
        let before = a.clone();
        a.merge(&Histogram::occupancy());
        assert_eq!(a, before);
        let mut empty = Histogram::occupancy();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    #[should_panic(expected = "mismatched bucket bounds")]
    fn merge_rejects_mismatched_bounds() {
        let mut a = Histogram::cycles();
        a.merge(&Histogram::occupancy());
    }

    #[test]
    fn json_shape_is_stable() {
        let mut m = SimMetrics::new();
        m.add("b", 2);
        m.add("a", 1);
        m.record("lat", 7);
        let text = m.to_json().encode();
        // BTreeMap ordering: "a" before "b" regardless of insertion order.
        assert!(text.find("\"a\"").unwrap() < text.find("\"b\"").unwrap());
        let parsed = Json::parse(&text).expect("round-trips");
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("a"))
                .and_then(Json::as_num),
            Some(1.0)
        );
    }

    #[test]
    fn render_lists_everything() {
        let mut m = SimMetrics::new();
        m.add("stall.dual_cf", 1);
        m.record("queue.occupancy", 2);
        let text = m.render();
        assert!(text.contains("stall.dual_cf"));
        assert!(text.contains("queue.occupancy"));
    }
}
