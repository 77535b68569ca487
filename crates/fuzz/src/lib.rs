//! Differential fuzzing for the TitanCFI co-simulation.
//!
//! The simulator has execution strategies that must be observationally
//! identical (strict per-cycle stepping, block-compiled dispatch with and
//! without a latency collector attached, and the dual-core scheduler)
//! plus a resilience layer that must be provably inert on a fault-free
//! transport.
//! Until now every equivalence claim was pinned by hand-picked kernels;
//! this crate replaces that with *generated* coverage:
//!
//! * [`gen`] — a seeded random program generator producing structured
//!   control flow (call trees, bounded recursion, counted loops, indirect
//!   jumps through data-dependent jump tables, self-modifying patch sites,
//!   compressed and uncompressed encodings) that always terminates, emitted
//!   as `riscv-asm` source.
//! * [`oracle`] — runs one program under the full configuration matrix
//!   (strict vs observed vs block-compiled × IRQ vs polling firmware ×
//!   resilience armed vs [`titancfi::ResilienceConfig::off`], plus the
//!   dual-core SoC) and demands byte-identical commit-log streams,
//!   shadow-stack verdicts, report fingerprints, and latency spans
//!   (strict vs observed, dual strict vs block). Corruption variants
//!   (return-address hijack, jump-table smash, function-pointer type
//!   confusion) must be flagged by exactly the policies the per-variant
//!   expected-detection map predicts — the shadow stack, Zicfilp landing
//!   pads, and KCFI type hashes respectively — in *every* configuration.
//! * [`shrink`](mod@shrink) — on divergence, delta-debugs the program (function-level
//!   removal, then instruction-level chunk removal) down to a minimal
//!   reproducer, re-running the oracle at every step.
//! * [`repro`] — writes the shrunk case as a self-contained
//!   `.repro.rs`-style file into `tests/repros/`.
//!
//! The `titancfi-bench --bin fuzz` binary maps seeds through
//! `titancfi_harness::pool::map`, re-checking every seed on every run; a
//! seed fails on a divergence, a panic or the pool's watchdog. CI runs it
//! as a time-boxed smoke.

pub mod gen;
pub mod oracle;
pub mod repro;
pub mod shrink;

pub use gen::{Corruption, CorruptionVariant, FuzzProgram, GenOptions, GENERATOR_VERSION};
pub use oracle::{
    check, check_source, expected_detection, replay_policies, CaseOutcome, Divergence, ExecMode,
    ExpectedDetection, MatrixConfig, OracleOk, PolicyMatrix,
};
pub use repro::{write_repro, ReproContext};
pub use shrink::{instruction_count, shrink};
