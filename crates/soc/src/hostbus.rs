//! The host-domain bus: program RAM behind the PMP lock on the CFI mailbox
//! window.
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

use riscv_isa::pmp::{AccessKind, Pmp, PmpEntry};
use riscv_isa::{Bus, FlatMemory, MemFault, MemWidth};

/// Host physical address of the CFI mailbox window.
pub const MAILBOX_BASE: u64 = 0xc000_0000;
/// Size of the window (power of two for a NAPOT PMP entry).
pub const MAILBOX_SIZE: u64 = 0x100;

/// The host bus: program RAM and the PMP unit.
#[derive(Debug)]
pub struct HostBus {
    ram: FlatMemory,
    pmp: Pmp,
    /// Accesses blocked by PMP (tamper attempts).
    pub pmp_denials: u64,
}

impl HostBus {
    /// A bus with `mem_size` bytes of RAM at `base` and empty PMP.
    #[must_use]
    pub fn new(base: u64, mem_size: usize) -> HostBus {
        HostBus {
            ram: FlatMemory::new(base, mem_size),
            pmp: Pmp::new(),
            pmp_denials: 0,
        }
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

    /// Checks `addr` against the PMP, counting a denial.
    fn allowed(&mut self, addr: u64, kind: AccessKind) -> bool {
        if self.pmp.check(addr, kind) {
            return true;
        }
        self.pmp_denials += 1;
        false
    }
}

impl Bus for HostBus {
    fn read(&mut self, addr: u64, width: MemWidth) -> Result<u64, MemFault> {
        if !self.allowed(addr, AccessKind::Read) {
            return Err(MemFault { addr, store: false });
        }
        self.ram.read(addr, width)
    }

    fn write(&mut self, addr: u64, width: MemWidth, value: u64) -> Result<(), MemFault> {
        if !self.allowed(addr, AccessKind::Write) {
            return Err(MemFault { addr, store: true });
        }
        self.ram.write(addr, width, value)
    }

    fn fetch(&mut self, addr: u64) -> Result<u32, MemFault> {
        if !self.allowed(addr, AccessKind::Execute) {
            return Err(MemFault { addr, store: false });
        }
        self.ram.fetch(addr)
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

    #[test]
    fn fetch_reads_the_bytes_that_exist_and_honours_the_pmp() {
        let mut bus = HostBus::new(0x1000, 16);
        bus.protect_mailbox();
        // A compressed instruction in RAM's last halfword fetches.
        bus.load(0x100e, &[0x01, 0x00]); // c.nop
        assert_eq!(bus.fetch(0x100e), Ok(0x0001));
        let mut hart = riscv_isa::Hart::new(riscv_isa::Xlen::Rv64, 0x100e);
        let retired = hart.step(&mut bus).expect("c.nop retires");
        assert_eq!(retired.next, 0x1010);
        // A 32-bit parcel cut off by the end faults at its missing half.
        bus.load(0x100e, &[0x13, 0x00]); // low half of `nop`
        assert_eq!(
            bus.fetch(0x100e),
            Err(MemFault {
                addr: 0x1010,
                store: false
            })
        );
        assert!(bus.fetch(0x1010).is_err(), "past the end");
        // The locked mailbox window faults on fetch and counts a denial.
        assert_eq!(bus.pmp_denials, 0);
        assert_eq!(
            bus.fetch(MAILBOX_BASE),
            Err(MemFault {
                addr: MAILBOX_BASE,
                store: false
            })
        );
        assert_eq!(bus.pmp_denials, 1);
    }
}
