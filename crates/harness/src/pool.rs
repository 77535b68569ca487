//! The campaign worker pool.
//!
//! `std::thread` only, by design (the workspace carries no external
//! dependencies): a shared FIFO of job indices, `-j N` worker threads, and
//! one *job thread* per job so that one diverging simulation can neither
//! kill nor hang a campaign:
//!
//! * **panic isolation** — each job runs under `catch_unwind`; a panic is
//!   recorded as that job's failure and the worker moves on;
//! * **wall-clock watchdog** — the worker waits on the job's result
//!   channel with a timeout; if the job is still running when the
//!   watchdog fires, its thread is abandoned (it is detached and its
//!   eventual result discarded) and the job is recorded as timed out.
//!
//! A job that returns an error or panics is recorded as failed after its
//! one run: every job is a deterministic simulation, so a second run would
//! fail the same way.
//!
//! Results are collected in submission order, so campaign output assembled
//! from them is deterministic regardless of worker interleaving — the
//! property the byte-identical-to-serial guarantee rests on. Every
//! submitted job runs: the pool keeps no results from one campaign to the
//! next.

use crate::job::{Job, JobOutput};
use crate::json::Json;
use crate::telemetry::{CampaignReport, JobRecord, JobStatus, Telemetry};
use std::collections::VecDeque;
use std::panic;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Pool configuration.
#[derive(Debug)]
pub struct CampaignConfig {
    /// Worker thread count (`-j N`); clamped to at least 1.
    pub workers: usize,
    /// Watchdog limit per job.
    pub job_timeout: Duration,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            workers: 1,
            job_timeout: Duration::from_secs(600),
        }
    }
}

/// What a finished campaign hands back.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Per-job records, in submission order.
    pub records: Vec<JobRecord>,
    /// The aggregated report.
    pub report: CampaignReport,
}

impl CampaignOutcome {
    /// The output of job `index`, if it completed.
    #[must_use]
    pub fn output(&self, index: usize) -> Option<&JobOutput> {
        self.records.get(index).and_then(|r| r.output.as_ref())
    }
}

enum JobEnd {
    Done(JobOutput),
    Timeout,
    Failed(String),
}

/// Runs every job through the pool and aggregates the results.
///
/// # Panics
///
/// Panics only on internal invariant violations (poisoned bookkeeping
/// locks); job panics are isolated, that is the point.
#[must_use]
pub fn run_campaign(
    jobs: Vec<Arc<dyn Job>>,
    cfg: &CampaignConfig,
    telemetry: &Telemetry,
) -> CampaignOutcome {
    let started = Instant::now();
    let workers = cfg.workers.max(1);
    telemetry.emit(
        "campaign_start",
        vec![
            ("jobs", Json::Num(jobs.len() as f64)),
            ("workers", Json::Num(workers as f64)),
        ],
    );

    let queue: Mutex<VecDeque<usize>> = Mutex::new((0..jobs.len()).collect());
    let results: Mutex<Vec<Option<JobRecord>>> =
        Mutex::new((0..jobs.len()).map(|_| None).collect());
    let jobs = &jobs;
    let queue = &queue;
    let results = &results;

    std::thread::scope(|scope| {
        for worker in 0..workers {
            let builder = std::thread::Builder::new().name(format!("campaign-worker-{worker}"));
            builder
                .spawn_scoped(scope, move || {
                    worker_loop(jobs, queue, results, cfg, telemetry);
                })
                .expect("spawn worker");
        }
    });

    let records: Vec<JobRecord> = results
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .cloned()
        .map(|r| r.expect("every job recorded"))
        .collect();
    let wall_ms = started.elapsed().as_secs_f64() * 1000.0;
    let report = CampaignReport::from_records(&records, workers, wall_ms);
    telemetry.emit(
        "campaign_done",
        vec![
            ("completed", Json::Num(report.ran as f64)),
            (
                "failed",
                Json::Num((report.failed + report.timed_out) as f64),
            ),
            ("wall_ms", Json::Num(wall_ms)),
            ("sim_cycles", Json::Num(report.sim_cycles)),
            (
                "cycles_per_sec",
                report.cycles_per_second().map_or(Json::Null, Json::Num),
            ),
            (
                "metrics",
                Json::obj(
                    report
                        .metric_totals
                        .iter()
                        .map(|(name, total)| (name.as_str(), Json::Num(*total)))
                        .collect(),
                ),
            ),
        ],
    );
    CampaignOutcome { records, report }
}

fn worker_loop(
    jobs: &[Arc<dyn Job>],
    queue: &Mutex<VecDeque<usize>>,
    results: &Mutex<Vec<Option<JobRecord>>>,
    cfg: &CampaignConfig,
    telemetry: &Telemetry,
) {
    loop {
        let index = {
            let mut q = queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            match q.pop_front() {
                Some(i) => i,
                None => return,
            }
        };
        let record = run_one(index, &jobs[index], cfg, telemetry);
        let mut slots = results
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        slots[index] = Some(record);
    }
}

fn run_one(
    index: usize,
    job: &Arc<dyn Job>,
    cfg: &CampaignConfig,
    telemetry: &Telemetry,
) -> JobRecord {
    let label = job.label();
    telemetry.emit("job_start", vec![("label", Json::Str(label.clone()))]);
    let started = Instant::now();

    let (tx, rx) = mpsc::channel();
    let thread_job = Arc::clone(job);
    // A detached job thread: if the watchdog fires we abandon it rather
    // than wait, so a diverging simulation cannot hang the pool.
    let spawned = std::thread::Builder::new()
        .name(format!("campaign-job-{label}"))
        .spawn(move || {
            let result = panic::catch_unwind(|| thread_job.run());
            let _ = tx.send(result);
        });
    let end = if spawned.is_err() {
        JobEnd::Failed("could not spawn job thread".into())
    } else {
        match rx.recv_timeout(cfg.job_timeout) {
            Ok(Ok(Ok(output))) => JobEnd::Done(output),
            Ok(Ok(Err(message))) => JobEnd::Failed(message),
            Ok(Err(payload)) => {
                JobEnd::Failed(format!("panic: {}", panic_message(payload.as_ref())))
            }
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => JobEnd::Timeout,
        }
    };

    let duration_ms = started.elapsed().as_secs_f64() * 1000.0;
    match end {
        JobEnd::Done(output) => {
            // `job_finish` (schema 4) carries the label and duration only:
            // the full metrics live in the job record and campaign report,
            // so repeating them per line would bloat the stream for no
            // reader.
            telemetry.emit(
                "job_finish",
                vec![
                    ("schema", Json::Num(4.0)),
                    ("label", Json::Str(label.clone())),
                    ("duration_ms", Json::Num(duration_ms)),
                ],
            );
            JobRecord {
                index,
                label,
                status: JobStatus::Completed,
                duration_ms,
                output: Some(output),
            }
        }
        JobEnd::Timeout => {
            let limit_ms = cfg.job_timeout.as_millis() as u64;
            telemetry.emit(
                "job_timeout",
                vec![
                    ("label", Json::Str(label.clone())),
                    ("limit_ms", Json::Num(limit_ms as f64)),
                ],
            );
            JobRecord {
                index,
                label,
                status: JobStatus::TimedOut { limit_ms },
                duration_ms,
                output: None,
            }
        }
        JobEnd::Failed(error) => {
            telemetry.emit(
                "job_failed",
                vec![
                    ("label", Json::Str(label.clone())),
                    ("error", Json::Str(error.clone())),
                ],
            );
            JobRecord {
                index,
                label,
                status: JobStatus::Failed { error },
                duration_ms,
                output: None,
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TelemetrySink;
    use std::sync::atomic::{AtomicU32, Ordering};

    struct FnJob {
        name: String,
        runs: Arc<AtomicU32>,
        body: Box<dyn Fn() -> Result<JobOutput, String> + Send + Sync>,
    }

    impl std::panic::RefUnwindSafe for FnJob {}

    impl Job for FnJob {
        fn label(&self) -> String {
            self.name.clone()
        }
        fn run(&self) -> Result<JobOutput, String> {
            self.runs.fetch_add(1, Ordering::SeqCst);
            (self.body)()
        }
    }

    fn job(
        name: &str,
        body: impl Fn() -> Result<JobOutput, String> + Send + Sync + 'static,
    ) -> (Arc<dyn Job>, Arc<AtomicU32>) {
        let runs = Arc::new(AtomicU32::new(0));
        let j = FnJob {
            name: name.to_string(),
            runs: Arc::clone(&runs),
            body: Box::new(body),
        };
        (Arc::new(j), runs)
    }

    fn quiet() -> Telemetry {
        Telemetry::new(TelemetrySink::Null)
    }

    #[test]
    fn all_jobs_complete_in_submission_order() {
        let jobs: Vec<Arc<dyn Job>> = (0..16)
            .map(|i| {
                job(&format!("j{i}"), move || {
                    Ok(JobOutput::text(format!("out{i}")))
                })
                .0
            })
            .collect();
        let cfg = CampaignConfig {
            workers: 4,
            ..CampaignConfig::default()
        };
        let outcome = run_campaign(jobs, &cfg, &quiet());
        assert_eq!(outcome.report.ran, 16);
        for (i, rec) in outcome.records.iter().enumerate() {
            assert_eq!(rec.index, i);
            assert_eq!(rec.output.as_ref().unwrap().artifact, format!("out{i}"));
        }
    }

    #[test]
    fn panic_is_isolated_and_campaign_completes() {
        let (ok1, _) = job("ok1", || Ok(JobOutput::text("fine".to_string())));
        let (boom, boom_runs) = job("boom", || panic!("deliberate test panic"));
        let (ok2, _) = job("ok2", || Ok(JobOutput::text("fine too".to_string())));
        let cfg = CampaignConfig {
            workers: 2,
            ..CampaignConfig::default()
        };
        let outcome = run_campaign(vec![ok1, boom, ok2], &cfg, &quiet());
        assert_eq!(outcome.report.ran, 2);
        assert_eq!(outcome.report.failed, 1);
        match &outcome.records[1].status {
            JobStatus::Failed { error } => {
                assert!(error.contains("deliberate test panic"), "{error}");
            }
            other => panic!("expected failure, got {other:?}"),
        }
        assert_eq!(boom_runs.load(Ordering::SeqCst), 1, "no second run");
        assert!(outcome.records[0].completed() && outcome.records[2].completed());
    }

    #[test]
    fn failing_job_runs_once_and_is_recorded_failed() {
        let (failing, runs) = job("failing", || Err("deterministic failure".to_string()));
        let outcome = run_campaign(vec![failing], &CampaignConfig::default(), &quiet());
        assert_eq!(runs.load(Ordering::SeqCst), 1, "no second run");
        assert_eq!(outcome.report.ran, 0);
        assert_eq!(outcome.report.failed, 1);
        assert_eq!(
            outcome.records[0].status,
            JobStatus::Failed {
                error: "deterministic failure".to_string()
            }
        );
    }

    #[test]
    fn watchdog_abandons_hung_job() {
        let (hang, _) = job("hang", || {
            std::thread::sleep(Duration::from_secs(3600));
            Ok(JobOutput::text("never".to_string()))
        });
        let (ok, _) = job("ok", || Ok(JobOutput::text("done".to_string())));
        let cfg = CampaignConfig {
            workers: 1,
            job_timeout: Duration::from_millis(50),
        };
        let started = Instant::now();
        let outcome = run_campaign(vec![hang, ok], &cfg, &quiet());
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "watchdog must not wait"
        );
        assert!(matches!(
            outcome.records[0].status,
            JobStatus::TimedOut { .. }
        ));
        assert!(
            outcome.records[1].completed(),
            "campaign continues past the hang"
        );
    }

    #[test]
    fn job_finish_lines_are_schema4_with_label() {
        let path = std::env::temp_dir().join(format!(
            "titancfi-pool-telemetry-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let file = std::fs::File::create(&path).expect("create telemetry file");
        let telemetry = Telemetry::new(TelemetrySink::File(file));
        let (ok, _) = job("ok", || {
            let mut out = JobOutput::text("done".to_string());
            out.metrics.push(("sim_cycles".to_string(), 1234.0));
            Ok(out)
        });
        let _ = run_campaign(vec![ok], &CampaignConfig::default(), &telemetry);
        drop(telemetry);
        let text = std::fs::read_to_string(&path).expect("read back");
        let finishes: Vec<Json> = text
            .lines()
            .map(|l| Json::parse(l).expect("intact JSONL"))
            .filter(|j| j.get("event").and_then(Json::as_str) == Some("job_finish"))
            .collect();
        assert_eq!(finishes.len(), 1);
        let line = &finishes[0];
        assert_eq!(line.get("schema").and_then(Json::as_num), Some(4.0));
        assert_eq!(line.get("label").and_then(Json::as_str), Some("ok"));
        assert!(line.get("duration_ms").is_some());
        assert!(
            line.get("hash").is_none() && line.get("cached").is_none(),
            "schema 4 identifies the job by its label"
        );
        assert!(
            line.get("sim_cycles").is_none() && line.get("cycles_per_sec").is_none(),
            "metrics live in the job record, not the finish line"
        );
        let _ = std::fs::remove_file(&path);
    }
}
