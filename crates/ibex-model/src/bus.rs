//! What the Ibex core needs of its bus: the architectural [`Bus`] plus the
//! region kind and latency of every data address.
//!
//! The OpenTitan analysis in the paper (Table I) splits firmware memory
//! accesses into **RoT-private** (the 128 KB scratchpad behind OpenTitan's
//! internal TileLink fabric, ≈5 cycles per access) and **SoC** (the CFI
//! mailbox and the PLIC, reached through the TileLink-to-AXI bridge,
//! ≈12 cycles). The core tags every data access with its region kind so
//! the firmware runner can reproduce that breakdown, and charges the
//! region's latency to its cycle count.

use riscv_isa::Bus;
use std::fmt;

/// Classification of a bus region, mirroring the paper's cost split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// OpenTitan-private scratchpad SRAM: cheap, tamper-proof.
    RotPrivate,
    /// Anything reached through the TileLink-to-AXI bridge: the CFI
    /// mailbox and the PLIC.
    Soc,
}

impl fmt::Display for RegionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionKind::RotPrivate => f.write_str("rot-private"),
            RegionKind::Soc => f.write_str("soc"),
        }
    }
}

/// A bus the Ibex core runs on: a fixed memory map whose every data
/// address has a region kind and a per-access latency.
pub trait IbexBus: Bus {
    /// The region kind of `addr` and the cycles one data access to it
    /// costs, reads and writes alike.
    fn region(&self, addr: u64) -> (RegionKind, u64);
}
