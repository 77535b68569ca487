//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's calls into each layer's
//! public functions (name, start, end, and the enclosing span as parent),
//! together with counts taken at the same boundaries. Nothing is written
//! until the run ends. A disabled tracer runs the same closures and records
//! nothing, so traced and untraced laps execute identical code.

use std::collections::BTreeMap;
use std::time::Instant;
use titancfi_harness::Json;

/// One closed span. Ids start at 1; parent 0 means a top-level span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span and count recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off between laps.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        // The slot is reserved up front so ids follow start order.
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        let start_ns = self.now_ns();
        let out = f(self);
        let end_ns = self.now_ns();
        self.open.pop();
        let span = &mut self.spans[id as usize - 1];
        span.start_ns = start_ns;
        span.end_ns = end_ns;
        out
    }

    /// Adds `n` to the count `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_default() += n;
        }
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: (number of spans, total self time in seconds). A
    /// span's self time is its duration minus the time its children cover.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for span in &self.spans {
            child_ns[span.parent as usize] += span.duration_ns();
        }
        let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for span in &self.spans {
            let own = span
                .duration_ns()
                .saturating_sub(child_ns[span.id as usize]);
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += own as f64 * 1e-9;
        }
        out
    }

    /// Mean self time of the spans called `name`, in seconds (0 if none).
    #[must_use]
    pub fn mean_self_s(&self, name: &str) -> f64 {
        self.self_times()
            .get(name)
            .map_or(0.0, |&(n, total)| total / n as f64)
    }

    /// Durations in seconds of the spans called `name`, in start order.
    #[must_use]
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// The spans, counts and per-name self times as one JSON document.
    #[must_use]
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("id", Json::Num(f64::from(s.id))),
                    ("parent", Json::Num(f64::from(s.parent))),
                    ("name", Json::Str(s.name.to_string())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        let counts = self
            .counts
            .iter()
            .map(|(k, v)| ((*k).to_string(), Json::Num(*v as f64)))
            .collect();
        let self_s = self
            .self_times()
            .into_iter()
            .map(|(name, (n, total))| {
                (
                    name.to_string(),
                    Json::obj(vec![
                        ("spans", Json::Num(n as f64)),
                        ("self_s", Json::Num(total)),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::Str(workload.to_string())),
            ("seed", Json::Num(seed as f64)),
            ("spans", Json::Arr(spans)),
            ("counts", Json::Obj(counts)),
            ("self_time", Json::Obj(self_s)),
        ])
    }
}
