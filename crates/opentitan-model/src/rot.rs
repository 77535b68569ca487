//! The assembled OpenTitan root of trust.
//!
//! [`OpenTitan`] wires the Ibex core model to the RoT memory map
//! ([`RotBus`]): the private 128 KB scratchpad SRAM and, across the SoC
//! fabric, the CFI mailbox and the PLIC. Two [`LatencyProfile`]s reproduce
//! the paper's interconnect variants: the **baseline** OpenTitan fabric
//! (≈5-cycle scratchpad, ≈12-cycle SoC accesses) and the **optimized**
//! low-latency interconnect of Table I's last section (1-cycle scratchpad,
//! ≈8-cycle SoC).

use crate::mailbox::CfiMailbox;
use crate::plic::{Plic, SRC_CFI_MAILBOX};
use ibex_model::{IbexBus, IbexCore, IbexTiming, RegionKind};
use riscv_asm::Program;
use riscv_isa::{csr, Bus, FlatMemory, MemFault, MemWidth};

/// The RoT memory map (Ibex physical addresses).
pub mod map {
    /// Private scratchpad SRAM base (code + data + shadow stack).
    pub const SRAM_BASE: u64 = 0x1000_0000;
    /// Scratchpad size: 128 KB, as in OpenTitan.
    pub const SRAM_SIZE: u64 = 128 * 1024;
    /// PLIC base.
    pub const PLIC_BASE: u64 = 0x4800_0000;
    /// PLIC register window size.
    pub const PLIC_SIZE: u64 = 0x100;
    /// CFI mailbox base (reached through the TileLink-to-AXI bridge).
    pub const MAILBOX_BASE: u64 = 0xc000_0000;
    /// CFI mailbox register window size.
    pub const MAILBOX_SIZE: u64 = 0x100;
}

/// Bus latencies for the two interconnect variants evaluated in Table I.
/// Reads and writes cost the same in both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyProfile {
    /// Cycles per RoT-private scratchpad access.
    pub rot: u64,
    /// Cycles per SoC-fabric (mailbox, PLIC) access.
    pub soc: u64,
    /// Ibex core timing (IRQ wake, divider, ...).
    pub timing: IbexTiming,
}

impl LatencyProfile {
    /// The stock OpenTitan interconnect: ≈5-cycle scratchpad, ≈12-cycle SoC
    /// accesses, 45-cycle IRQ wake (paper §V-B).
    #[must_use]
    pub fn baseline() -> LatencyProfile {
        LatencyProfile {
            rot: 5,
            soc: 12,
            timing: IbexTiming::default(),
        }
    }

    /// The "Optimized" variant of Table I: single-cycle scratchpad and
    /// ≈8-cycle SoC accesses via a low-latency interconnect.
    #[must_use]
    pub fn optimized() -> LatencyProfile {
        LatencyProfile {
            rot: 1,
            soc: 8,
            timing: IbexTiming::default(),
        }
    }
}

/// The RoT bus: the scratchpad, the PLIC and the CFI mailbox at their
/// [`map`] addresses. Every other address faults, and instructions come
/// from the scratchpad alone.
#[derive(Debug)]
pub struct RotBus {
    sram: FlatMemory,
    plic: Plic,
    mailbox: CfiMailbox,
    latency: LatencyProfile,
}

impl RotBus {
    /// An empty scratchpad, a quiet PLIC and a cleared mailbox, priced by
    /// `latency`.
    fn new(latency: LatencyProfile) -> RotBus {
        RotBus {
            sram: FlatMemory::new(map::SRAM_BASE, map::SRAM_SIZE as usize),
            plic: Plic::new(),
            mailbox: CfiMailbox::new(),
            latency,
        }
    }
}

/// The offset of `[addr, addr + len)` inside the window at `base`, if the
/// window holds all of it.
fn window(addr: u64, len: u64, base: u64, size: u64) -> Option<u64> {
    let off = addr.checked_sub(base)?;
    (off + len <= size).then_some(off)
}

impl Bus for RotBus {
    fn read(&mut self, addr: u64, width: MemWidth) -> Result<u64, MemFault> {
        let n = width.bytes();
        if let Some(off) = window(addr, n, map::MAILBOX_BASE, map::MAILBOX_SIZE) {
            Ok(self.mailbox.read(off, width))
        } else if let Some(off) = window(addr, n, map::PLIC_BASE, map::PLIC_SIZE) {
            Ok(self.plic.read(off, width))
        } else {
            self.sram.read(addr, width)
        }
    }

    fn write(&mut self, addr: u64, width: MemWidth, value: u64) -> Result<(), MemFault> {
        let n = width.bytes();
        if let Some(off) = window(addr, n, map::MAILBOX_BASE, map::MAILBOX_SIZE) {
            self.mailbox.write(off, width, value);
            Ok(())
        } else if let Some(off) = window(addr, n, map::PLIC_BASE, map::PLIC_SIZE) {
            self.plic.write(off, width, value);
            Ok(())
        } else {
            self.sram.write(addr, width, value)
        }
    }

    fn fetch(&mut self, addr: u64) -> Result<u32, MemFault> {
        self.sram.fetch(addr)
    }
}

impl IbexBus for RotBus {
    fn region(&self, addr: u64) -> (RegionKind, u64) {
        if window(addr, 1, map::SRAM_BASE, map::SRAM_SIZE).is_some() {
            (RegionKind::RotPrivate, self.latency.rot)
        } else {
            (RegionKind::Soc, self.latency.soc)
        }
    }
}

/// The composed root of trust.
#[derive(Debug)]
pub struct OpenTitan {
    /// The Ibex security microcontroller. Its bus holds the CFI mailbox
    /// and the interrupt controller ([`OpenTitan::mailbox`]).
    pub core: IbexCore<RotBus>,
}

impl OpenTitan {
    /// Builds the RoT, loads `firmware` into the scratchpad, and points the
    /// core at its entry, with a decode cache of `decode_slots` slots
    /// (rounded up to a power of two, min 16).
    ///
    /// # Panics
    ///
    /// Panics if the firmware image does not fit the scratchpad or is not
    /// based inside it.
    #[must_use]
    pub fn new(firmware: &Program, profile: LatencyProfile, decode_slots: usize) -> OpenTitan {
        assert!(
            firmware.base >= map::SRAM_BASE && firmware.end() <= map::SRAM_BASE + map::SRAM_SIZE,
            "firmware image must live in the RoT scratchpad"
        );
        let mut bus = RotBus::new(profile);
        bus.sram.load(firmware.base, &firmware.bytes);
        let mut core = IbexCore::new(bus, firmware.entry, profile.timing, decode_slots);
        // Stack at the top of the scratchpad.
        core.hart
            .set_reg(riscv_isa::Reg::SP, map::SRAM_BASE + map::SRAM_SIZE - 16);
        OpenTitan { core }
    }

    /// The CFI mailbox on the RoT bus.
    #[must_use]
    pub fn mailbox(&self) -> &CfiMailbox {
        &self.core.bus.mailbox
    }

    /// Mutable access to the CFI mailbox — the host-side Log Writer's port.
    pub fn mailbox_mut(&mut self) -> &mut CfiMailbox {
        &mut self.core.bus.mailbox
    }

    /// Propagates the mailbox doorbell through the PLIC to the Ibex
    /// external-interrupt line, and returns the doorbell level. Idempotent
    /// until the doorbell or the PLIC state moves.
    pub fn sync_irq(&mut self) -> bool {
        let bus = &mut self.core.bus;
        let doorbell = bus.mailbox.doorbell_pending();
        if doorbell {
            bus.plic.raise(SRC_CFI_MAILBOX);
        } else {
            bus.plic.lower(SRC_CFI_MAILBOX);
        }
        let line = bus.plic.irq_line();
        self.core.set_irq(csr::MIX_MEIP, line);
        doorbell
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_asm::assemble;
    use riscv_isa::{Reg, Xlen};

    #[test]
    fn boots_firmware_in_scratchpad() {
        let fw =
            assemble("_start: li a0, 99\nebreak\n", Xlen::Rv32, map::SRAM_BASE).expect("assembles");
        let mut rot = OpenTitan::new(&fw, LatencyProfile::baseline(), 16);
        let _ = rot.core.step().expect("li");
        assert_eq!(rot.core.hart.reg(Reg::A0), 99);
    }

    #[test]
    fn doorbell_reaches_ibex_irq_line() {
        let fw = assemble("_start: wfi\nebreak\n", Xlen::Rv32, map::SRAM_BASE).expect("fw");
        let mut rot = OpenTitan::new(&fw, LatencyProfile::baseline(), 16);
        rot.core.hart.csrs.mie = csr::MIX_MEIP;
        rot.sync_irq();
        assert_eq!(rot.core.hart.csrs.mip & csr::MIX_MEIP, 0);
        rot.mailbox_mut().host_ring_doorbell();
        rot.sync_irq();
        assert_ne!(rot.core.hart.csrs.mip & csr::MIX_MEIP, 0);
    }

    #[test]
    #[should_panic(expected = "scratchpad")]
    fn rejects_firmware_outside_scratchpad() {
        let fw = assemble("_start: nop\n", Xlen::Rv32, 0x2000_0000).expect("fw");
        let _ = OpenTitan::new(&fw, LatencyProfile::baseline(), 16);
    }

    #[test]
    fn profiles_differ_in_latency() {
        let b = LatencyProfile::baseline();
        let o = LatencyProfile::optimized();
        assert!(b.rot > o.rot);
        assert!(b.soc > o.soc);
    }

    #[test]
    fn scratchpad_round_trips_little_endian_at_rot_cycles() {
        let mut bus = RotBus::new(LatencyProfile::baseline());
        let addr = map::SRAM_BASE + 0x100;
        bus.write(addr, MemWidth::W, 0xaabb_ccdd).expect("write");
        assert_eq!(bus.read(addr, MemWidth::W).expect("read"), 0xaabb_ccdd);
        assert_eq!(bus.read(addr, MemWidth::B).expect("low byte first"), 0xdd);
        assert_eq!(bus.read(addr + 2, MemWidth::H).expect("high half"), 0xaabb);
        assert_eq!(bus.region(addr), (RegionKind::RotPrivate, 5));
        let optimized = RotBus::new(LatencyProfile::optimized());
        assert_eq!(optimized.region(addr), (RegionKind::RotPrivate, 1));
    }

    #[test]
    fn device_windows_reach_the_typed_devices_at_soc_cycles() {
        let mut bus = RotBus::new(LatencyProfile::baseline());
        // Mailbox: the host's data word reads back over the bus, and a bus
        // write of the completion register is seen by the host.
        bus.mailbox.host_write_data(1, 0x1234_5678);
        let word1 = map::MAILBOX_BASE + 4;
        assert_eq!(bus.read(word1, MemWidth::W).expect("read"), 0x1234_5678);
        bus.write(map::MAILBOX_BASE + 0x24, MemWidth::W, 1)
            .expect("completion");
        assert!(bus.mailbox.host_completion());
        assert_eq!(bus.region(word1), (RegionKind::Soc, 12));
        // PLIC: a raised source is claimed over the bus, then completed.
        let claim = map::PLIC_BASE + crate::plic::regs::CLAIM_COMPLETE;
        bus.plic.raise(SRC_CFI_MAILBOX);
        assert_eq!(
            bus.read(claim, MemWidth::W).expect("claim"),
            u64::from(SRC_CFI_MAILBOX)
        );
        assert!(!bus.plic.irq_line(), "the claimed source is in service");
        bus.write(claim, MemWidth::W, u64::from(SRC_CFI_MAILBOX))
            .expect("complete");
        assert!(bus.plic.irq_line(), "completion re-arms the raised source");
        assert_eq!(bus.region(claim), (RegionKind::Soc, 12));
    }

    #[test]
    fn unmapped_and_straddling_accesses_fault() {
        let mut bus = RotBus::new(LatencyProfile::baseline());
        let sram_end = map::SRAM_BASE + map::SRAM_SIZE;
        let mailbox_end = map::MAILBOX_BASE + map::MAILBOX_SIZE;
        let plic_end = map::PLIC_BASE + map::PLIC_SIZE;
        for end in [sram_end, mailbox_end, plic_end] {
            assert!(bus.read(end - 2, MemWidth::W).is_err(), "{end:#x}");
            assert!(bus.write(end - 2, MemWidth::W, 0).is_err(), "{end:#x}");
        }
        // No image addresses SoC main memory: the RoT has no window there.
        assert!(bus.read(0x8000_0000, MemWidth::W).is_err());
        assert!(bus.write(0x8000_0000, MemWidth::W, 0).is_err());
    }

    #[test]
    fn fetch_comes_from_the_scratchpad_alone() {
        let mut bus = RotBus::new(LatencyProfile::baseline());
        let last = map::SRAM_BASE + map::SRAM_SIZE - 2;
        bus.sram.load(last, &[0x82, 0x80]); // c.ret
        assert_eq!(bus.fetch(last).expect("last halfword"), 0x8082);
        // A 32-bit parcel cut off by the end faults.
        bus.sram.load(last, &[0x13, 0x05]);
        assert!(bus.fetch(last).is_err());
        bus.sram.load(map::SRAM_BASE, &[0x13, 0x05, 0x10, 0x00]);
        assert_eq!(bus.fetch(map::SRAM_BASE).expect("fetch"), 0x0010_0513);
        // A fetch from a device window faults instead of claiming the
        // PLIC's interrupt as a side effect.
        bus.plic.raise(SRC_CFI_MAILBOX);
        let claim = map::PLIC_BASE + crate::plic::regs::CLAIM_COMPLETE;
        assert!(bus.fetch(claim).is_err());
        assert!(bus.plic.irq_line(), "the fetch claimed nothing");
        assert!(bus.fetch(map::MAILBOX_BASE).is_err());
        assert!(bus.fetch(0x8000_0000).is_err());
    }
}
