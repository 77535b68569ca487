//! Structured campaign telemetry.
//!
//! Every pool event — job start, finish, retry, failure — is emitted
//! as one JSON object per line (JSONL) to a configurable sink, timestamped
//! in milliseconds since campaign start. The same events aggregate into a
//! [`CampaignReport`]: completion counts, wall time, total simulated
//! cycles, and end-to-end simulation throughput.

use crate::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Where JSONL events go.
pub enum TelemetrySink {
    /// Discard events (aggregation still happens in the report).
    Null,
    /// Write to standard error.
    Stderr,
    /// Write to a file (opened by the caller).
    File(std::fs::File),
}

/// A thread-safe JSONL event writer.
pub struct Telemetry {
    sink: Mutex<TelemetrySink>,
    epoch: Instant,
}

impl Telemetry {
    /// Creates a telemetry stream writing to `sink`.
    #[must_use]
    pub fn new(sink: TelemetrySink) -> Telemetry {
        Telemetry {
            sink: Mutex::new(sink),
            epoch: Instant::now(),
        }
    }

    /// Milliseconds since this stream was created.
    #[must_use]
    pub fn elapsed_ms(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1000.0
    }

    /// Emits one event. `event` is the event name; `fields` are appended
    /// after the standard `t_ms` timestamp.
    pub fn emit(&self, event: &str, fields: Vec<(&str, Json)>) {
        let mut pairs = vec![
            ("event", Json::Str(event.to_string())),
            (
                "t_ms",
                Json::Num((self.elapsed_ms() * 100.0).round() / 100.0),
            ),
        ];
        pairs.extend(fields);
        // Build the complete line (terminator included) before touching the
        // sink, then hand it over in ONE write_all: a concurrent worker on a
        // shared fd (stderr redirected to a file, or a dup'd handle) can then
        // never splice its bytes into the middle of ours.
        let mut line = Json::obj(pairs).encode();
        line.push('\n');
        let mut sink = self
            .sink
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match &mut *sink {
            TelemetrySink::Null => {}
            TelemetrySink::Stderr => {
                let _ = std::io::stderr().write_all(line.as_bytes());
            }
            TelemetrySink::File(f) => {
                let _ = f.write_all(line.as_bytes());
            }
        }
    }
}

/// Terminal status of one job after the pool is done with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Ran to completion.
    Completed,
    /// All attempts failed (error return or panic).
    Failed {
        /// The last error message.
        error: String,
        /// How many attempts were made.
        attempts: u32,
    },
    /// The watchdog gave up waiting for it.
    TimedOut {
        /// The watchdog limit that was exceeded, in milliseconds.
        limit_ms: u64,
    },
}

/// Per-job record, in submission order.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Submission index.
    pub index: usize,
    /// Human label.
    pub label: String,
    /// Terminal status.
    pub status: JobStatus,
    /// Wall-clock duration of the job, retries included.
    pub duration_ms: f64,
    /// The output, if completed.
    pub output: Option<crate::job::JobOutput>,
}

impl JobRecord {
    /// Whether the job completed.
    #[must_use]
    pub fn completed(&self) -> bool {
        self.status == JobStatus::Completed
    }
}

/// Aggregated campaign outcome.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Total jobs submitted.
    pub total: usize,
    /// Jobs that ran to completion.
    pub ran: usize,
    /// Jobs that failed after retries.
    pub failed: usize,
    /// Jobs abandoned by the watchdog.
    pub timed_out: usize,
    /// Worker count used.
    pub workers: usize,
    /// End-to-end wall time in milliseconds.
    pub wall_ms: f64,
    /// Sum of every completed job's `sim_cycles` metric.
    pub sim_cycles: f64,
    /// Sum of every completed job's metrics, by metric name. Includes
    /// `sim_cycles` alongside any instrumentation counters the jobs emit
    /// (e.g. `stall.queue_full` from a recorder-attached simulation).
    pub metric_totals: BTreeMap<String, f64>,
    /// Labels and errors of failed/timed-out jobs, in submission order.
    pub failures: Vec<(String, String)>,
}

impl CampaignReport {
    /// Aggregates per-job records into a report.
    #[must_use]
    pub fn from_records(records: &[JobRecord], workers: usize, wall_ms: f64) -> CampaignReport {
        let mut report = CampaignReport {
            total: records.len(),
            ran: 0,
            failed: 0,
            timed_out: 0,
            workers,
            wall_ms,
            sim_cycles: 0.0,
            metric_totals: BTreeMap::new(),
            failures: Vec::new(),
        };
        for rec in records {
            match &rec.status {
                JobStatus::Completed => {
                    report.ran += 1;
                    if let Some(out) = &rec.output {
                        report.sim_cycles += out.metric("sim_cycles").unwrap_or(0.0);
                        for (name, value) in &out.metrics {
                            *report.metric_totals.entry(name.clone()).or_insert(0.0) += value;
                        }
                    }
                }
                JobStatus::Failed { error, .. } => {
                    report.failed += 1;
                    report.failures.push((rec.label.clone(), error.clone()));
                }
                JobStatus::TimedOut { limit_ms } => {
                    report.timed_out += 1;
                    report.failures.push((
                        rec.label.clone(),
                        format!("watchdog timeout after {limit_ms} ms"),
                    ));
                }
            }
        }
        report
    }

    /// Simulated cycles per wall-clock second — the campaign's end-to-end
    /// simulation throughput. `None` when the wall time is zero or too close
    /// to it to divide by meaningfully (a campaign of trivial jobs on a fast
    /// clock): a throughput of `inf`/`1e15` would only mislead, so callers
    /// render it as `n/a` / JSON `null` instead.
    #[must_use]
    pub fn cycles_per_second(&self) -> Option<f64> {
        if self.wall_ms.is_finite() && self.wall_ms >= 1e-3 {
            Some(self.sim_cycles / (self.wall_ms / 1000.0))
        } else {
            None
        }
    }

    /// Human-readable summary block.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "campaign: {} jobs on {} workers",
            self.total, self.workers
        );
        let _ = writeln!(
            out,
            "  completed {}, failed {}, timed out {}",
            self.ran, self.failed, self.timed_out,
        );
        let throughput = match self.cycles_per_second() {
            Some(cps) => format!("{cps:.2e} cycles/s"),
            None => "throughput n/a".to_string(),
        };
        let _ = writeln!(
            out,
            "  wall {:.2} s, {:.2e} simulated cycles, {throughput}",
            self.wall_ms / 1000.0,
            self.sim_cycles,
        );
        for (name, total) in &self.metric_totals {
            if name != "sim_cycles" {
                let _ = writeln!(out, "  total {name}: {total}");
            }
        }
        for (label, error) in &self.failures {
            let _ = writeln!(out, "  FAILED {label}: {error}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobOutput;

    fn rec(index: usize, status: JobStatus, cycles: Option<f64>) -> JobRecord {
        JobRecord {
            index,
            label: format!("job{index}"),
            status,
            duration_ms: 1.0,
            output: cycles.map(|c| JobOutput {
                artifact: String::new(),
                metrics: vec![("sim_cycles".to_string(), c)],
            }),
        }
    }

    #[test]
    fn report_aggregates_statuses() {
        let records = vec![
            rec(0, JobStatus::Completed, Some(1000.0)),
            rec(1, JobStatus::Completed, Some(500.0)),
            rec(
                2,
                JobStatus::Failed {
                    error: "boom".to_string(),
                    attempts: 2,
                },
                None,
            ),
            rec(3, JobStatus::TimedOut { limit_ms: 10 }, None),
        ];
        let report = CampaignReport::from_records(&records, 4, 2000.0);
        assert_eq!(report.total, 4);
        assert_eq!(report.ran, 2);
        assert_eq!(report.failed, 1);
        assert_eq!(report.timed_out, 1);
        assert!((report.sim_cycles - 1500.0).abs() < f64::EPSILON);
        assert!((report.cycles_per_second().unwrap() - 750.0).abs() < 1e-9);
        let text = report.render();
        assert!(text.contains("FAILED job2: boom"));
        assert!(text.contains("watchdog timeout"));
    }

    #[test]
    fn near_zero_wall_time_yields_no_throughput() {
        let records = vec![rec(0, JobStatus::Completed, Some(1e9))];
        for wall_ms in [0.0, 1e-9, 1e-4, -1.0, f64::NAN, f64::INFINITY] {
            let report = CampaignReport::from_records(&records, 1, wall_ms);
            assert_eq!(
                report.cycles_per_second(),
                None,
                "wall_ms = {wall_ms} must not claim a throughput"
            );
            assert!(report.render().contains("throughput n/a"));
        }
        let report = CampaignReport::from_records(&records, 1, 1.0);
        assert!(report.cycles_per_second().is_some(), "1 ms wall is real");
    }

    #[test]
    fn metric_totals_merge_across_jobs() {
        let mut a = rec(0, JobStatus::Completed, Some(1000.0));
        a.output
            .as_mut()
            .unwrap()
            .metrics
            .push(("stall.queue_full".to_string(), 40.0));
        let mut b = rec(1, JobStatus::Completed, Some(500.0));
        b.output
            .as_mut()
            .unwrap()
            .metrics
            .push(("stall.queue_full".to_string(), 2.0));
        let failed = rec(
            2,
            JobStatus::Failed {
                error: "x".to_string(),
                attempts: 1,
            },
            None,
        );
        let report = CampaignReport::from_records(&[a, b, failed], 2, 100.0);
        assert_eq!(report.metric_totals["sim_cycles"], 1500.0);
        assert_eq!(report.metric_totals["stall.queue_full"], 42.0);
        assert!(report.render().contains("total stall.queue_full: 42"));
    }

    #[test]
    fn emit_does_not_panic_on_null_sink() {
        let t = Telemetry::new(TelemetrySink::Null);
        t.emit("job_start", vec![("label", Json::Str("x".to_string()))]);
        assert!(t.elapsed_ms() >= 0.0);
    }

    #[test]
    fn concurrent_emits_never_interleave_lines() {
        let path = std::env::temp_dir().join(format!(
            "titancfi-telemetry-interleave-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let file = std::fs::File::create(&path).expect("create telemetry file");
        let telemetry = Telemetry::new(TelemetrySink::File(file));
        // Long payloads make a torn write (two lines spliced) overwhelmingly
        // likely to corrupt the JSON if emit ever issues more than one write.
        let payload = "x".repeat(4096);
        std::thread::scope(|scope| {
            for worker in 0..8 {
                let telemetry = &telemetry;
                let payload = payload.as_str();
                scope.spawn(move || {
                    for i in 0..50 {
                        telemetry.emit(
                            "job_finish",
                            vec![
                                ("worker", Json::Num(f64::from(worker))),
                                ("i", Json::Num(f64::from(i))),
                                ("pad", Json::Str(payload.to_string())),
                            ],
                        );
                    }
                });
            }
        });
        drop(telemetry); // close the file
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 400, "every emit produced exactly one line");
        for line in lines {
            let json = Json::parse(line).expect("intact JSONL line");
            assert_eq!(json.get("event").and_then(Json::as_str), Some("job_finish"));
        }
        let _ = std::fs::remove_file(&path);
    }
}
