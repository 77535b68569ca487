//! The host-domain bus: RAM, the host's SCMI system channel, and the PMP
//! lock on the CFI mailbox window.
//!
//! Paper §VI: *"We assume the CFI Mailbox cannot be tampered by other
//! entities in the SoC. This is reasonable since other security IPs, such
//! as RISC-V Physical Memory Protection (PMP), can be programmed to inhibit
//! accesses to one or more memory regions so that issuing loads or stores
//! to any address within the protected range results in an access fault
//! exception."* This module implements exactly that: a locked PMP entry
//! makes any software access to the mailbox window fault. Only the
//! hardware Log Writer (a bus master of its own, bypassing the core's PMP)
//! reaches the mailbox, so the model puts no device behind the window at
//! all — the mailbox lives on the RoT bus, driven by the writer.

use opentitan_model::ScmiWire;
use riscv_isa::pmp::{AccessKind, Pmp, PmpEntry};
use riscv_isa::{Bus, FlatMemory, MemFault, MemWidth};

/// Host physical address of the CFI mailbox window.
pub const MAILBOX_BASE: u64 = 0xc000_0000;
/// Size of the window (power of two for a NAPOT PMP entry).
pub const MAILBOX_SIZE: u64 = 0x100;
/// Host physical address of the general SCMI system mailbox — *not* PMP
/// protected: it is the host's legitimate channel to the RoT services
/// (version, attestation).
pub const SCMI_BASE: u64 = 0xc100_0000;
/// SCMI window size.
pub const SCMI_SIZE: u64 = opentitan_model::scmi_wire::WINDOW;

/// The host bus: program RAM, this host's SCMI channel, and the PMP unit.
#[derive(Debug)]
pub struct HostBus {
    ram: FlatMemory,
    scmi: ScmiWire,
    pmp: Pmp,
    /// Accesses blocked by PMP (tamper attempts).
    pub pmp_denials: u64,
    /// Sticky flag: the host touched its SCMI window or was denied by PMP
    /// since the last [`HostBus::take_io_access`]. The block batcher breaks
    /// on it so device-visible timing matches strict stepping.
    io_access: bool,
}

impl HostBus {
    /// A bus with `mem_size` bytes of RAM at `base`, a cleared SCMI channel
    /// at [`SCMI_BASE`], and empty PMP.
    #[must_use]
    pub fn new(base: u64, mem_size: usize) -> HostBus {
        HostBus {
            ram: FlatMemory::new(base, mem_size),
            scmi: ScmiWire::new(),
            pmp: Pmp::new(),
            pmp_denials: 0,
            io_access: false,
        }
    }

    /// Takes (and clears) the device-window access flag.
    #[inline]
    pub fn take_io_access(&mut self) -> bool {
        std::mem::take(&mut self.io_access)
    }

    /// This host's SCMI channel — the RoT service's side of the window.
    pub fn scmi_mut(&mut self) -> &mut ScmiWire {
        &mut self.scmi
    }

    /// Programs the locked PMP entry that inhibits all software access to
    /// the mailbox window — the configuration the paper assumes.
    pub fn protect_mailbox(&mut self) {
        self.pmp.add(PmpEntry::napot(
            MAILBOX_BASE,
            MAILBOX_SIZE,
            false,
            false,
            false,
        ));
    }

    /// Loads bytes into RAM (program loading).
    ///
    /// # Panics
    ///
    /// Panics if the range is outside RAM.
    pub fn load(&mut self, addr: u64, bytes: &[u8]) {
        self.ram.load(addr, bytes);
    }

    /// RAM base address.
    #[must_use]
    pub fn ram_base(&self) -> u64 {
        self.ram.base()
    }

    /// RAM size.
    #[must_use]
    pub fn ram_size(&self) -> usize {
        self.ram.size()
    }

    fn in_scmi(addr: u64, len: u64) -> bool {
        addr >= SCMI_BASE && addr + len <= SCMI_BASE + SCMI_SIZE
    }
}

impl Bus for HostBus {
    fn io_peek(&self) -> bool {
        self.io_access
    }

    fn read(&mut self, addr: u64, width: MemWidth) -> Result<u64, MemFault> {
        if !self.pmp.check(addr, AccessKind::Read) {
            self.pmp_denials += 1;
            self.io_access = true;
            return Err(MemFault { addr, store: false });
        }
        if Self::in_scmi(addr, width.bytes()) {
            self.io_access = true;
            return Ok(self.scmi.host_read(addr - SCMI_BASE, width.bytes()));
        }
        self.ram.read(addr, width)
    }

    fn write(&mut self, addr: u64, width: MemWidth, value: u64) -> Result<(), MemFault> {
        if !self.pmp.check(addr, AccessKind::Write) {
            self.pmp_denials += 1;
            self.io_access = true;
            return Err(MemFault { addr, store: true });
        }
        if Self::in_scmi(addr, width.bytes()) {
            self.io_access = true;
            self.scmi.host_write(addr - SCMI_BASE, width.bytes(), value);
            return Ok(());
        }
        self.ram.write(addr, width, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protected_mailbox_faults() {
        let mut bus = HostBus::new(0x8000_0000, 0x1000);
        bus.protect_mailbox();
        assert!(bus.write(MAILBOX_BASE, MemWidth::W, 0xdead).is_err());
        assert!(bus.read(MAILBOX_BASE, MemWidth::W).is_err());
        assert_eq!(bus.pmp_denials, 2);
        // RAM still accessible.
        assert!(bus.write(0x8000_0100, MemWidth::D, 7).is_ok());
    }

    #[test]
    fn ram_behaviour_unaffected() {
        let mut bus = HostBus::new(0x1000, 0x100);
        bus.load(0x1010, &[1, 2, 3, 4]);
        assert_eq!(bus.read(0x1010, MemWidth::W).expect("read"), 0x0403_0201);
    }
}
