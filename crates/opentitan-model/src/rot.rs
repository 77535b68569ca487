//! The assembled OpenTitan root of trust.
//!
//! [`OpenTitan`] wires the Ibex core model to the RoT memory map: the
//! private 128 KB scratchpad SRAM, the (SoC-side) CFI mailbox and PLIC, and
//! a window onto SoC main memory. Two [`LatencyProfile`]s reproduce the
//! paper's interconnect variants: the **baseline** OpenTitan fabric
//! (≈5-cycle scratchpad, ≈12-cycle SoC accesses) and the **optimized**
//! low-latency interconnect of Table I's last section (1-cycle scratchpad,
//! ≈8-cycle SoC).

use crate::flash::Flash;
use crate::hmac::HmacEngine;
use crate::mailbox::CfiMailbox;
use crate::plic::{Plic, SRC_CFI_MAILBOX};
use ibex_model::{IbexCore, IbexTiming, RegionKind, RegionLatency, SystemBus};
use riscv_asm::Program;
use riscv_isa::csr;

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
    /// Window onto SoC main memory (spill region for CFI metadata).
    pub const SOC_RAM_BASE: u64 = 0x8000_0000;
    /// Spill window size.
    pub const SOC_RAM_SIZE: u64 = 1024 * 1024;
}

/// Bus latencies for the two interconnect variants evaluated in Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyProfile {
    /// RoT-private scratchpad access latency.
    pub rot: RegionLatency,
    /// SoC-fabric (mailbox, PLIC, main memory) access latency.
    pub soc: RegionLatency,
    /// Ibex core timing (IRQ wake, divider, ...).
    pub timing: IbexTiming,
}

impl LatencyProfile {
    /// The stock OpenTitan interconnect: ≈5-cycle scratchpad, ≈12-cycle SoC
    /// accesses, 45-cycle IRQ wake (paper §V-B).
    #[must_use]
    pub fn baseline() -> LatencyProfile {
        LatencyProfile {
            rot: RegionLatency::symmetric(5),
            soc: RegionLatency::symmetric(12),
            timing: IbexTiming::default(),
        }
    }

    /// The "Optimized" variant of Table I: single-cycle scratchpad and
    /// ≈8-cycle SoC accesses via a low-latency interconnect.
    #[must_use]
    pub fn optimized() -> LatencyProfile {
        LatencyProfile {
            rot: RegionLatency::symmetric(1),
            soc: RegionLatency::symmetric(8),
            timing: IbexTiming::default(),
        }
    }
}

/// The composed root of trust.
#[derive(Debug)]
pub struct OpenTitan {
    /// The Ibex security microcontroller. Its bus owns the CFI mailbox and
    /// the interrupt controller ([`OpenTitan::mailbox`]).
    pub core: IbexCore,
    /// The HMAC accelerator (used by policies to authenticate spills).
    pub hmac: HmacEngine,
    /// The scrambled, ECC-protected embedded flash (key storage).
    pub flash: Flash,
}

impl OpenTitan {
    /// Builds the RoT, loads `firmware` into the scratchpad, and points the
    /// core at its entry.
    ///
    /// # Panics
    ///
    /// Panics if the firmware image does not fit the scratchpad or is not
    /// based inside it.
    #[must_use]
    pub fn new(firmware: &Program, profile: LatencyProfile) -> OpenTitan {
        assert!(
            firmware.base >= map::SRAM_BASE && firmware.end() <= map::SRAM_BASE + map::SRAM_SIZE,
            "firmware image must live in the RoT scratchpad"
        );
        let mut bus = SystemBus::new();
        bus.add_ram(
            map::SRAM_BASE,
            map::SRAM_SIZE,
            RegionKind::RotPrivate,
            profile.rot,
        );
        bus.add_device(
            map::PLIC_BASE,
            map::PLIC_SIZE,
            RegionKind::Soc,
            profile.soc,
            Box::new(Plic::new()),
        );
        bus.add_device(
            map::MAILBOX_BASE,
            map::MAILBOX_SIZE,
            RegionKind::Soc,
            profile.soc,
            Box::new(CfiMailbox::new()),
        );
        bus.add_ram(
            map::SOC_RAM_BASE,
            map::SOC_RAM_SIZE,
            RegionKind::Soc,
            profile.soc,
        );
        bus.load(firmware.base, &firmware.bytes);
        let mut core = IbexCore::new(bus, firmware.entry, profile.timing);
        // Stack at the top of the scratchpad.
        core.hart
            .set_reg(riscv_isa::Reg::SP, map::SRAM_BASE + map::SRAM_SIZE - 16);
        OpenTitan {
            core,
            hmac: HmacEngine::new(b"titancfi-device-unique-key"),
            flash: Flash::new(4096, 0x0123_4567_89ab_cdef),
        }
    }

    /// The CFI mailbox on the RoT bus.
    #[must_use]
    pub fn mailbox(&self) -> &CfiMailbox {
        self.core
            .bus
            .device(map::MAILBOX_BASE)
            .expect("mailbox is mapped")
    }

    /// Mutable access to the CFI mailbox — the host-side Log Writer's port.
    pub fn mailbox_mut(&mut self) -> &mut CfiMailbox {
        self.core
            .bus
            .device_mut(map::MAILBOX_BASE)
            .expect("mailbox is mapped")
    }

    /// Propagates the mailbox doorbell through the PLIC to the Ibex
    /// external-interrupt line, and returns the doorbell level. Idempotent
    /// until the doorbell or the PLIC state moves.
    pub fn sync_irq(&mut self) -> bool {
        let doorbell = self.mailbox().doorbell_pending();
        let plic: &mut Plic = self
            .core
            .bus
            .device_mut(map::PLIC_BASE)
            .expect("PLIC is mapped");
        if doorbell {
            plic.raise(SRC_CFI_MAILBOX);
        } else {
            plic.lower(SRC_CFI_MAILBOX);
        }
        let line = plic.irq_line();
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
        let mut rot = OpenTitan::new(&fw, LatencyProfile::baseline());
        let _ = rot.core.step().expect("li");
        assert_eq!(rot.core.hart.reg(Reg::A0), 99);
    }

    #[test]
    fn doorbell_reaches_ibex_irq_line() {
        let fw = assemble("_start: wfi\nebreak\n", Xlen::Rv32, map::SRAM_BASE).expect("fw");
        let mut rot = OpenTitan::new(&fw, LatencyProfile::baseline());
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
        let _ = OpenTitan::new(&fw, LatencyProfile::baseline());
    }

    #[test]
    fn profiles_differ_in_latency() {
        let b = LatencyProfile::baseline();
        let o = LatencyProfile::optimized();
        assert!(b.rot.read > o.rot.read);
        assert!(b.soc.read > o.soc.read);
    }
}
