//! A cycle-approximate model of the Ibex (RV32IMC) security microcontroller.
//!
//! OpenTitan's Ibex core executes the TitanCFI policy firmware. The paper's
//! Table I depends on Ibex's micro-architectural cost structure: per-region
//! bus latencies (RoT scratchpad vs SoC mailbox), the 45-cycle interrupt
//! wake-up, and the iterative divider. [`IbexCore`] reproduces those on top
//! of the shared architectural interpreter, over any [`IbexBus`]: a fixed
//! memory map that tags every data address with its [`RegionKind`] and
//! latency, so the firmware runner can produce the paper's Logic / Mem-RoT
//! / Mem-SoC breakdown. The RoT's own map (scratchpad, PLIC, CFI mailbox)
//! is `opentitan_model::rot::RotBus`.

mod bus;
mod core;

pub use crate::bus::{IbexBus, RegionKind};
pub use crate::core::{IbexCommit, IbexCore, IbexEvent, IbexState, IbexTiming};
