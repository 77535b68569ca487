//! A model of the OpenTitan silicon root of trust.
//!
//! TitanCFI's central idea is to run CFI enforcement *inside the RoT that is
//! already on the SoC* (paper §I). This crate models the pieces of OpenTitan
//! the CFI path relies on:
//!
//! * the Ibex security microcontroller (via `ibex-model`) on the RoT bus
//!   ([`rot::RotBus`]): the private 128 KB scratchpad (tamper-proof
//!   shadow-stack storage), and across the SoC fabric the SCMI-style CFI
//!   [`mailbox`] and the [`plic`] interrupt path that deliver commit logs
//!   from the host domain,
//! * the [`hmac`] accelerator (HMAC-SHA-256, built on a from-scratch
//!   [`sha256`]) used to authenticate CFI metadata spilled to SoC memory.
//!
//! [`OpenTitan::new`] boots the Ibex core on the RoT bus around an
//! assembled firmware image; the HMAC engine stands on its own.
//! [`LatencyProfile`] selects between the paper's baseline and "Optimized"
//! interconnects.

pub mod hmac;
pub mod mailbox;
pub mod plic;
pub mod rot;
pub mod sha256;

pub use hmac::HmacEngine;
pub use mailbox::CfiMailbox;
pub use plic::Plic;
pub use rot::{LatencyProfile, OpenTitan};
