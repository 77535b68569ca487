//! A minimal RISC-V platform-level interrupt controller (rv_plic).
//!
//! OpenTitan routes peripheral interrupts — including the CFI mailbox
//! doorbell — through an rv_plic instance to the Ibex external-interrupt
//! line. The firmware's IRQ prologue/epilogue *claims* and *completes* the
//! interrupt with two SoC-fabric register accesses; those two accesses are
//! exactly the "Mem. SoC 2" row of the paper's Table I IRQ section, so the
//! model keeps the same protocol.

use riscv_isa::MemWidth;

/// Register offsets.
pub mod regs {
    /// Read: pending source bitmap.
    pub const PENDING: u64 = 0x00;
    /// Read: claim (returns highest pending source id and clears it);
    /// Write: complete (re-enables the source).
    pub const CLAIM_COMPLETE: u64 = 0x04;
}

/// Interrupt source id of the CFI mailbox doorbell.
pub const SRC_CFI_MAILBOX: u32 = 1;

/// The PLIC register state: platform glue raises and lowers sources, the
/// RoT claims and completes them over the bus.
#[derive(Debug, Default)]
pub struct Plic {
    pending: u32,
    in_service: u32,
}

impl Plic {
    /// A controller with no pending interrupts.
    #[must_use]
    pub fn new() -> Plic {
        Plic::default()
    }

    /// Raises source `src` (level-sensitive; platform glue calls this).
    pub fn raise(&mut self, src: u32) {
        self.pending |= 1 << src;
    }

    /// Lowers source `src`.
    pub fn lower(&mut self, src: u32) {
        self.pending &= !(1 << src);
    }

    /// Whether any source is pending and not already in service — drives
    /// the Ibex `mip.MEIP` line.
    #[must_use]
    pub fn irq_line(&self) -> bool {
        self.pending & !self.in_service != 0
    }

    // ---- the RoT side, over the bus ----

    /// Reads the register at `offset`; reading `CLAIM_COMPLETE` claims.
    pub(crate) fn read(&mut self, offset: u64, _width: MemWidth) -> u64 {
        match offset {
            regs::PENDING => u64::from(self.pending),
            regs::CLAIM_COMPLETE => {
                let claimable = self.pending & !self.in_service;
                if claimable == 0 {
                    0
                } else {
                    let src = claimable.trailing_zeros();
                    self.in_service |= 1 << src;
                    u64::from(src)
                }
            }
            _ => 0,
        }
    }

    /// Writes the register at `offset`; writing `CLAIM_COMPLETE` completes.
    pub(crate) fn write(&mut self, offset: u64, _width: MemWidth, value: u64) {
        if offset == regs::CLAIM_COMPLETE {
            self.in_service &= !(1u32 << (value as u32 & 31));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_complete_cycle() {
        let mut plic = Plic::new();
        plic.raise(SRC_CFI_MAILBOX);
        assert!(plic.irq_line());
        // Claim returns the source and masks the line.
        assert_eq!(
            plic.read(regs::CLAIM_COMPLETE, MemWidth::W),
            u64::from(SRC_CFI_MAILBOX)
        );
        assert!(!plic.irq_line(), "in-service source does not re-interrupt");
        // Source deasserts, firmware completes.
        plic.lower(SRC_CFI_MAILBOX);
        plic.write(
            regs::CLAIM_COMPLETE,
            MemWidth::W,
            u64::from(SRC_CFI_MAILBOX),
        );
        assert!(!plic.irq_line());
        // Re-raise works after completion.
        plic.raise(SRC_CFI_MAILBOX);
        assert!(plic.irq_line());
    }

    #[test]
    fn claim_with_nothing_pending_returns_zero() {
        let mut plic = Plic::new();
        assert_eq!(plic.read(regs::CLAIM_COMPLETE, MemWidth::W), 0);
    }

    #[test]
    fn lowest_source_wins() {
        let mut plic = Plic::new();
        plic.raise(3);
        plic.raise(1);
        assert_eq!(plic.read(regs::CLAIM_COMPLETE, MemWidth::W), 1);
        assert_eq!(plic.read(regs::CLAIM_COMPLETE, MemWidth::W), 3);
    }
}
