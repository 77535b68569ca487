//! `titancfi-harness` — the parallel simulation-campaign engine.
//!
//! Every table, sweep and suite in this reproduction is a set of
//! *independent* simulations; this crate is the substrate that runs them
//! as one campaign instead of a serial chain:
//!
//! * [`job`] — the unit of work: a [`job::Job`] is a label plus a `run`;
//! * [`pool`] — an `std::thread` worker pool (`-j N`) with per-job panic
//!   isolation (`catch_unwind`) and a wall-clock watchdog, collecting
//!   results in deterministic submission order. Every campaign runs every
//!   job once, so its output always comes from the code that printed it;
//! * [`telemetry`] — a JSONL event stream plus the aggregated
//!   [`telemetry::CampaignReport`];
//! * [`json`] — the hand-rolled JSON both of the above serialize with;
//! * [`prng`] — SplitMix64 / xoshiro256**, the workspace's deterministic
//!   randomness source (replaces the `rand` crate);
//! * [`steal`] — per-worker sharded queues with batch work-stealing, the
//!   scheduler substrate for long-lived re-enqueued work (fleet devices).
//!
//! The crate deliberately has **zero dependencies** — it sits at the very
//! bottom of the workspace DAG so every other crate (including
//! `riscv-isa`) can dev-depend on it for seeded test-input generation.

pub mod job;
pub mod json;
pub mod pool;
pub mod prng;
pub mod steal;
pub mod telemetry;

pub use job::{Job, JobOutput};
pub use json::Json;
pub use pool::{run_campaign, CampaignConfig, CampaignOutcome};
pub use prng::{SplitMix64, Xoshiro256};
pub use steal::StealQueues;
pub use telemetry::{CampaignReport, JobRecord, JobStatus, Telemetry, TelemetrySink};
