//! The CFI Filter: selects CFI-relevant instructions at the commit ports.
//!
//! Paper §IV-B1: one filter per CVA6 commit port scans every retired
//! scoreboard entry and emits a commit log only for the operations the
//! policy must check — indirect jumps, function returns, and function
//! calls. Direct jumps and conditional branches are immutable in the binary
//! and pass through unchecked.

use crate::commit_log::CommitLog;
use riscv_isa::{CfClass, Retired};

/// Per-filter statistics (mirrors the counters an RTL implementation would
/// expose for verification).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Scoreboard entries scanned.
    pub scanned: u64,
    /// Commit logs emitted (CFI-relevant instructions).
    pub emitted: u64,
    /// Breakdown: calls seen.
    pub calls: u64,
    /// Breakdown: returns seen.
    pub returns: u64,
    /// Breakdown: indirect jumps seen.
    pub indirect_jumps: u64,
}

/// A CFI filter attached to one commit port.
#[derive(Debug, Clone, Default)]
pub struct CfiFilter {
    stats: FilterStats,
}

impl CfiFilter {
    /// A fresh filter.
    #[must_use]
    pub fn new() -> CfiFilter {
        CfiFilter::default()
    }

    /// Scans one retired instruction; returns the commit log when the
    /// instruction is CFI-relevant.
    pub fn scan(&mut self, retired: &Retired) -> Option<CommitLog> {
        self.scan_classified(retired, riscv_isa::classify(&retired.decoded.inst))
    }

    /// [`CfiFilter::scan`] for an instruction whose control-flow class the
    /// core model already computed (the predecode cache carries it), sparing
    /// a second `classify` on the commit path.
    #[inline]
    pub fn scan_classified(&mut self, retired: &Retired, class: CfClass) -> Option<CommitLog> {
        self.stats.scanned += 1;
        match class {
            CfClass::Call => self.stats.calls += 1,
            CfClass::Return => self.stats.returns += 1,
            CfClass::IndirectJump => self.stats.indirect_jumps += 1,
            _ => return None,
        }
        self.stats.emitted += 1;
        Some(CommitLog::from_retired(retired))
    }

    /// Accounts a batch of straight-line (non-CFI-relevant) retirements that
    /// the commit-stage hardware scanned during a dispatched superblock.
    /// Identical counter effect to calling [`CfiFilter::scan`] `count` times
    /// on non-control-flow instructions.
    #[inline]
    pub fn note_straightline(&mut self, count: u64) {
        self.stats.scanned += count;
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> FilterStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_isa::{FlatMemory, Hart, Inst, Reg, Xlen};

    /// Executes a handful of instructions and runs them through a filter.
    fn filter_program(insts: &[Inst]) -> (CfiFilter, Vec<CommitLog>) {
        let mut mem = FlatMemory::new(0x1000, 0x1000);
        for (i, inst) in insts.iter().enumerate() {
            mem.load(
                0x1000 + 4 * i as u64,
                &riscv_isa::encode(inst).to_le_bytes(),
            );
        }
        let mut hart = Hart::new(Xlen::Rv64, 0x1000);
        hart.set_reg(Reg::RA, 0x1008);
        hart.set_reg(Reg::A5, 0x1004);
        let mut filter = CfiFilter::new();
        let mut logs = Vec::new();
        for _ in insts {
            let r = hart.step(&mut mem).expect("steps");
            if let Some(log) = filter.scan(&r) {
                logs.push(log);
            }
        }
        (filter, logs)
    }

    #[test]
    fn passes_only_cfi_relevant_instructions() {
        let (filter, logs) = filter_program(&[
            Inst::NOP, // not CF
            Inst::Jal {
                rd: Reg::ZERO,
                offset: 4,
            }, // direct jump
            Inst::Jalr {
                rd: Reg::ZERO,
                rs1: Reg::RA,
                offset: 0,
            }, // return
        ]);
        assert_eq!(filter.stats().scanned, 3);
        assert_eq!(filter.stats().emitted, 1);
        assert_eq!(logs.len(), 1);
        assert_eq!(logs[0].cf_class(), riscv_isa::CfClass::Return);
    }

    #[test]
    fn call_log_carries_return_address() {
        let (_, logs) = filter_program(&[Inst::Jal {
            rd: Reg::RA,
            offset: 8,
        }]);
        assert_eq!(logs.len(), 1);
        assert_eq!(logs[0].next, 0x1004, "next = return address to push");
        assert_eq!(logs[0].target, 0x1008);
    }

    #[test]
    fn indirect_jump_counted() {
        let (filter, logs) = filter_program(&[Inst::Jalr {
            rd: Reg::ZERO,
            rs1: Reg::A5,
            offset: 0,
        }]);
        assert_eq!(filter.stats().indirect_jumps, 1);
        assert_eq!(logs[0].cf_class(), riscv_isa::CfClass::IndirectJump);
    }

    #[test]
    fn classified_and_bulk_paths_match_scan() {
        let insts = [
            Inst::NOP,
            Inst::Jal {
                rd: Reg::RA,
                offset: 8,
            },
            Inst::NOP,
            Inst::Jalr {
                rd: Reg::ZERO,
                rs1: Reg::RA,
                offset: 0,
            },
        ];
        let (reference, _) = filter_program(&insts);
        // Same stream through the fast-path methods: non-CF retirements as a
        // bulk note, CF ones via scan_classified.
        let mut mem = FlatMemory::new(0x1000, 0x1000);
        for (i, inst) in insts.iter().enumerate() {
            mem.load(
                0x1000 + 4 * i as u64,
                &riscv_isa::encode(inst).to_le_bytes(),
            );
        }
        let mut hart = Hart::new(Xlen::Rv64, 0x1000);
        hart.set_reg(Reg::RA, 0x1008);
        hart.set_reg(Reg::A5, 0x1004);
        let mut fast = CfiFilter::new();
        let mut straightline = 0;
        for _ in insts {
            let r = hart.step(&mut mem).expect("steps");
            let class = riscv_isa::classify(&r.decoded.inst);
            if class.is_cfi_relevant() {
                fast.scan_classified(&r, class);
            } else {
                straightline += 1;
            }
        }
        fast.note_straightline(straightline);
        assert_eq!(fast.stats(), reference.stats());
    }

    #[test]
    fn branches_not_streamed() {
        let (filter, logs) = filter_program(&[Inst::Branch {
            cond: riscv_isa::BranchCond::Eq,
            rs1: Reg::ZERO,
            rs2: Reg::ZERO,
            offset: 8,
        }]);
        assert_eq!(filter.stats().emitted, 0);
        assert!(logs.is_empty());
    }
}
