//! **TitanCFI** — control-flow integrity enforcement in the root of trust.
//!
//! A from-scratch reproduction of *"TitanCFI: Toward Enforcing Control-Flow
//! Integrity in the Root-of-Trust"* (Parisi et al., DATE 2024). TitanCFI
//! streams the control-flow instructions retired by a CVA6 host core to the
//! OpenTitan RoT already present on the SoC, where a software policy running
//! on the Ibex microcontroller checks them — no custom CFI hardware IP, no
//! toolchain changes, legacy binaries protected as-is.
//!
//! This crate implements the paper's hardware additions and firmware:
//!
//! * [`CommitLog`] — the 224-bit packet (pc, uncompressed encoding, next
//!   address, target address);
//! * [`CfiFilter`] — the per-commit-port filter selecting calls, returns
//!   and indirect jumps;
//! * [`CfiQueue`] + [`QueueController`] — the single-push-per-cycle FIFO
//!   of core-tagged logs and the commit-stall counters;
//! * [`LogWriter`] — the FSM chunking logs into 64-bit AXI beats, ringing
//!   the mailbox doorbell and raising exceptions on violations;
//! * [`firmware`] — the RV32 shadow-stack firmware (IRQ / Polling /
//!   Optimized variants) plus the measurement harness behind Table I.
//!
//! # Examples
//!
//! Check a call/return pair in the RoT and observe a ROP-style violation:
//!
//! ```
//! use titancfi::{CommitLog, firmware::{FirmwareKind, FirmwareRunner}};
//!
//! let mut rot = FirmwareRunner::new(FirmwareKind::Polling);
//! // call f: pushes the return address 0x8000_0004
//! let call = CommitLog { pc: 0x8000_0000, insn: 0x0080_00ef,
//!                        next: 0x8000_0004, target: 0x8000_0100 };
//! assert!(!rot.check(&call).violation);
//! // ret to a *hijacked* address: flagged
//! let ret = CommitLog { pc: 0x8000_0104, insn: 0x0000_8067,
//!                       next: 0x8000_0108, target: 0xdead_beee };
//! assert!(rot.check(&ret).violation);
//! ```

pub mod accounting;
pub mod commit_log;
pub mod filter;
pub mod firmware;
pub mod log_writer;
pub mod queue;
pub mod wire;

pub use accounting::{Breakdown, Category, Cost, Phase};
pub use commit_log::CommitLog;
pub use filter::{CfiFilter, FilterStats};
pub use log_writer::{AxiTiming, FailPolicy, LogWriter, ResilienceConfig, Violation, WriterState};
pub use queue::{CfiQueue, QueueController, TaggedLog};
