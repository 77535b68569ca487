//! `titancfi-harness` — the workspace's shared run-time substrate.
//!
//! * [`pool`] — [`pool::map`], a typed parallel map with per-item panic
//!   isolation (`catch_unwind`) and a wall-clock watchdog, returning
//!   results in input order. The fault-injection and fuzz drivers fan
//!   their scenarios and seeds through it, and `campaign` its artifacts;
//! * [`json`] — the hand-rolled JSON the metrics, fleet snapshots and
//!   benchmark reports serialize with;
//! * [`prng`] — SplitMix64 / xoshiro256**, the workspace's deterministic
//!   randomness source (replaces the `rand` crate);
//! * [`steal`] — per-worker sharded queues with batch work-stealing, the
//!   scheduler substrate for long-lived re-enqueued work (fleet devices).
//!
//! The crate deliberately has **zero dependencies** — it sits at the very
//! bottom of the workspace DAG so every other crate (including
//! `riscv-isa`) can dev-depend on it for seeded test-input generation.

pub mod json;
pub mod pool;
pub mod prng;
pub mod steal;

pub use json::Json;
pub use prng::{SplitMix64, Xoshiro256};
pub use steal::StealQueues;
