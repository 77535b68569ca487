//! Structured event timeline with a Chrome/Perfetto `trace_event` exporter.
//!
//! Events carry the simulation cycle; the exporter maps one cycle to one
//! microsecond (`ts` in trace_event JSON is µs), so a Perfetto timeline
//! reads directly in cycles. Each [`Track`] becomes one named thread under
//! a single "titancfi-soc" process.

use crate::probe::Track;
use titancfi_harness::Json;

/// Maximum events retained; further events are counted but dropped so a
/// long run cannot exhaust memory.
const MAX_EVENTS: usize = 4_000_000;

#[derive(Debug, Clone, PartialEq, Eq)]
enum EventKind {
    Begin { name: &'static str },
    End,
    Instant { name: &'static str },
    Counter { name: &'static str, value: u64 },
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Event {
    track: Track,
    cycle: u64,
    kind: EventKind,
}

/// An append-only record of pipeline spans, instants, and counter samples.
#[derive(Debug)]
pub struct Timeline {
    max_events: usize,
    events: Vec<Event>,
    dropped: u64,
    open_spans: [u32; Track::ALL.len()],
}

impl Default for Timeline {
    fn default() -> Timeline {
        Timeline {
            max_events: MAX_EVENTS,
            events: Vec::new(),
            dropped: 0,
            open_spans: [0; Track::ALL.len()],
        }
    }
}

impl Timeline {
    /// A timeline that keeps at most 4,000,000 events.
    #[must_use]
    pub fn new() -> Timeline {
        Timeline::default()
    }

    /// A timeline that keeps at most `max_events` events.
    #[cfg(test)]
    fn with_max_events(max_events: usize) -> Timeline {
        Timeline {
            max_events,
            ..Timeline::default()
        }
    }

    fn push(&mut self, event: Event) {
        if self.events.len() >= self.max_events {
            self.dropped += 1;
            return;
        }
        self.events.push(event);
    }

    /// Opens a span on `track`.
    pub fn span_begin(&mut self, track: Track, name: &'static str, cycle: u64) {
        self.open_spans[track.tid() as usize - 1] += 1;
        self.push(Event {
            track,
            cycle,
            kind: EventKind::Begin { name },
        });
    }

    /// Closes the innermost open span on `track`. Unbalanced ends are
    /// ignored rather than corrupting the trace.
    pub fn span_end(&mut self, track: Track, cycle: u64) {
        let open = &mut self.open_spans[track.tid() as usize - 1];
        if *open == 0 {
            return;
        }
        *open -= 1;
        self.push(Event {
            track,
            cycle,
            kind: EventKind::End,
        });
    }

    /// Records a point event on `track`.
    pub fn instant(&mut self, track: Track, name: &'static str, cycle: u64) {
        self.push(Event {
            track,
            cycle,
            kind: EventKind::Instant { name },
        });
    }

    /// Samples a counter track (rendered as a graph row in Perfetto).
    pub fn counter_sample(&mut self, name: &'static str, cycle: u64, value: u64) {
        self.push(Event {
            track: Track::Queue,
            cycle,
            kind: EventKind::Counter { name, value },
        });
    }

    /// Events recorded (excluding dropped ones).
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events discarded after hitting the event cap.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Serializes the record as Chrome/Perfetto `trace_event` JSON:
    /// `{"displayTimeUnit":"ns","traceEvents":[...]}` with one metadata
    /// `thread_name` event per track followed by the recorded events in
    /// insertion (cycle) order. One simulation cycle maps to 1 µs of `ts`.
    #[must_use]
    pub fn to_perfetto_json(&self) -> Json {
        let pid = 1.0;
        let mut events: Vec<Json> = Vec::with_capacity(self.events.len() + Track::ALL.len() + 1);
        events.push(Json::obj(vec![
            ("name", Json::Str("process_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::Num(pid)),
            ("tid", Json::Num(0.0)),
            (
                "args",
                Json::obj(vec![("name", Json::Str("titancfi-soc".into()))]),
            ),
        ]));
        for track in Track::ALL {
            events.push(Json::obj(vec![
                ("name", Json::Str("thread_name".into())),
                ("ph", Json::Str("M".into())),
                ("pid", Json::Num(pid)),
                ("tid", Json::Num(f64::from(track.tid()))),
                (
                    "args",
                    Json::obj(vec![("name", Json::Str(track.name().into()))]),
                ),
            ]));
        }
        for event in &self.events {
            let ts = event.cycle as f64;
            let tid = f64::from(event.track.tid());
            events.push(match &event.kind {
                EventKind::Begin { name } => Json::obj(vec![
                    ("name", Json::Str((*name).into())),
                    ("ph", Json::Str("B".into())),
                    ("ts", Json::Num(ts)),
                    ("pid", Json::Num(pid)),
                    ("tid", Json::Num(tid)),
                ]),
                EventKind::End => Json::obj(vec![
                    ("ph", Json::Str("E".into())),
                    ("ts", Json::Num(ts)),
                    ("pid", Json::Num(pid)),
                    ("tid", Json::Num(tid)),
                ]),
                EventKind::Instant { name } => Json::obj(vec![
                    ("name", Json::Str((*name).into())),
                    ("ph", Json::Str("i".into())),
                    ("ts", Json::Num(ts)),
                    ("pid", Json::Num(pid)),
                    ("tid", Json::Num(tid)),
                    ("s", Json::Str("t".into())),
                ]),
                EventKind::Counter { name, value } => Json::obj(vec![
                    ("name", Json::Str((*name).into())),
                    ("ph", Json::Str("C".into())),
                    ("ts", Json::Num(ts)),
                    ("pid", Json::Num(pid)),
                    ("tid", Json::Num(0.0)),
                    ("args", Json::obj(vec![("value", Json::Num(*value as f64))])),
                ]),
            });
        }
        Json::obj(vec![
            ("displayTimeUnit", Json::Str("ns".into())),
            ("traceEvents", Json::Arr(events)),
        ])
    }

    /// Validates an exported trace: must parse as a `traceEvents` object,
    /// timestamps must be non-decreasing per thread id, and every thread's
    /// `B`/`E` events must balance. Returns a description of the first
    /// problem found. Used by tests and the CI smoke step.
    pub fn validate(text: &str) -> Result<(), String> {
        let json = Json::parse(text).map_err(|e| format!("trace is not valid JSON: {e}"))?;
        let events = json
            .get("traceEvents")
            .and_then(Json::as_arr)
            .ok_or("missing traceEvents array")?;
        let mut last_ts: std::collections::BTreeMap<i64, f64> = std::collections::BTreeMap::new();
        let mut depth: std::collections::BTreeMap<i64, i64> = std::collections::BTreeMap::new();
        for (i, event) in events.iter().enumerate() {
            let ph = event
                .get("ph")
                .and_then(Json::as_str)
                .ok_or(format!("event {i}: missing ph"))?;
            if ph == "M" {
                continue;
            }
            let tid = event
                .get("tid")
                .and_then(Json::as_num)
                .ok_or(format!("event {i}: missing tid"))? as i64;
            let ts = event
                .get("ts")
                .and_then(Json::as_num)
                .ok_or(format!("event {i}: missing ts"))?;
            let last = last_ts.entry(tid).or_insert(f64::NEG_INFINITY);
            if ts < *last {
                return Err(format!(
                    "event {i}: ts {ts} goes backwards on tid {tid} (previous {last})"
                ));
            }
            *last = ts;
            match ph {
                "B" => *depth.entry(tid).or_insert(0) += 1,
                "E" => {
                    let d = depth.entry(tid).or_insert(0);
                    *d -= 1;
                    if *d < 0 {
                        return Err(format!("event {i}: unbalanced E on tid {tid}"));
                    }
                }
                "i" | "C" | "X" => {}
                other => return Err(format!("event {i}: unknown ph {other:?}")),
            }
        }
        for (tid, d) in depth {
            if d != 0 {
                return Err(format!("tid {tid}: {d} unclosed span(s)"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exported_trace_validates() {
        let mut t = Timeline::new();
        t.span_begin(Track::LogWriter, "write-log", 10);
        t.instant(Track::Mailbox, "doorbell", 14);
        t.counter_sample("queue.occupancy", 15, 3);
        t.span_end(Track::LogWriter, 18);
        let text = t.to_perfetto_json().encode();
        Timeline::validate(&text).expect("trace should validate");
    }

    #[test]
    fn unbalanced_end_is_ignored() {
        let mut t = Timeline::new();
        t.span_end(Track::Queue, 5);
        assert!(t.is_empty());
        let text = t.to_perfetto_json().encode();
        Timeline::validate(&text).expect("empty trace validates");
    }

    #[test]
    fn validate_rejects_backwards_timestamps() {
        let text = r#"{"traceEvents":[
            {"ph":"i","name":"a","ts":10,"pid":1,"tid":1,"s":"t"},
            {"ph":"i","name":"b","ts":5,"pid":1,"tid":1,"s":"t"}
        ]}"#;
        assert!(Timeline::validate(text).unwrap_err().contains("backwards"));
    }

    #[test]
    fn validate_rejects_unclosed_spans() {
        let text = r#"{"traceEvents":[
            {"ph":"B","name":"a","ts":1,"pid":1,"tid":2}
        ]}"#;
        assert!(Timeline::validate(text).unwrap_err().contains("unclosed"));
    }

    #[test]
    fn event_cap_drops_and_counts() {
        let mut t = Timeline::with_max_events(2);
        for cycle in 0..5 {
            t.instant(Track::HostCommit, "x", cycle);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn thread_metadata_names_every_track() {
        let t = Timeline::new();
        let text = t.to_perfetto_json().encode();
        for track in Track::ALL {
            assert!(text.contains(track.name()), "missing {}", track.name());
        }
    }
}
