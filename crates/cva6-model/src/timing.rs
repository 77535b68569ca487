//! The CVA6-like timing model.
//!
//! CVA6 is an in-order, single-issue, six-stage core (paper §III-A). For the
//! TitanCFI evaluation only the *commit timing* matters: which cycle each
//! instruction retires in, and how retirement interacts with the CFI queue
//! back-pressure. The model here charges each instruction a base cycle plus
//! hazard penalties derived from the classic CVA6 pipeline behaviour:
//!
//! * loads/stores pay a data-memory latency,
//! * multiplies and divides pay functional-unit latency,
//! * taken branches and jumps pay a front-end redirect bubble,
//! * mispredicted branches pay the full pipeline flush,
//! * returns predicted by the return-address stack (RAS) are cheap; `jalr`
//!   through an arbitrary register always flushes.
//!
//! The predictor state (BTFN + RAS) is part of the model so control-flow-
//! dense code is penalised realistically — exactly the property the paper's
//! slowdown tables depend on.

use riscv_isa::{CfClass, Inst};

/// Cycle-cost configuration, defaults tuned to CVA6 on FPGA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingConfig {
    /// Extra cycles for a load (ideal memory: every load a cache hit).
    pub load_extra: u64,
    /// Extra cycles for a store.
    pub store_extra: u64,
    /// Extra cycles for a multiply.
    pub mul_extra: u64,
    /// Extra cycles for a divide/remainder (iterative unit).
    pub div_extra: u64,
    /// Front-end bubble for a predicted-taken jump/branch.
    pub taken_bubble: u64,
    /// Full flush penalty for a mispredicted branch or unpredicted `jalr`.
    pub mispredict_penalty: u64,
    /// Return-address-stack depth (0 disables return prediction).
    pub ras_depth: usize,
}

impl Default for TimingConfig {
    fn default() -> TimingConfig {
        TimingConfig {
            load_extra: 1,
            store_extra: 0,
            mul_extra: 1,
            div_extra: 18,
            taken_bubble: 1,
            mispredict_penalty: 5,
            ras_depth: 8,
        }
    }
}

/// Branch predictor + cost model state.
#[derive(Debug, Clone)]
pub struct TimingModel {
    config: TimingConfig,
    ras: Vec<u64>,
    /// Mispredictions observed (for counters/ablation).
    pub mispredicts: u64,
    /// Correct return predictions.
    pub ras_hits: u64,
}

impl TimingModel {
    /// A model with the given configuration.
    #[must_use]
    pub fn new(config: TimingConfig) -> TimingModel {
        TimingModel {
            config,
            ras: Vec::new(),
            mispredicts: 0,
            ras_hits: 0,
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &TimingConfig {
        &self.config
    }

    /// Cycles charged for one retired instruction.
    ///
    /// `cf_class` is the CFI classification, `taken` whether control
    /// diverged, `target`/`next` the actual and sequential next pcs.
    pub fn cost(
        &mut self,
        inst: &Inst,
        cf_class: CfClass,
        taken: bool,
        next: u64,
        target: u64,
    ) -> u64 {
        let c = self.config;
        let mut cycles = 1;
        match inst {
            Inst::Load { .. } | Inst::LoadReserved { .. } => cycles += c.load_extra,
            Inst::Store { .. } | Inst::StoreConditional { .. } | Inst::Amo { .. } => {
                cycles += c.store_extra;
            }
            Inst::Mul { op, .. } => {
                cycles += match op {
                    riscv_isa::MulOp::Mul
                    | riscv_isa::MulOp::Mulh
                    | riscv_isa::MulOp::Mulhsu
                    | riscv_isa::MulOp::Mulhu => c.mul_extra,
                    _ => c.div_extra,
                };
            }
            _ => {}
        }
        match cf_class {
            CfClass::Call => {
                // jal: decode-stage redirect; jalr-call: target known only
                // at execute unless BTB-hit — charge the bubble.
                if c.ras_depth > 0 {
                    if self.ras.len() == c.ras_depth {
                        self.ras.remove(0);
                    }
                    self.ras.push(next);
                }
                cycles += c.taken_bubble;
            }
            CfClass::Return => {
                if self.ras.pop() == Some(target) {
                    self.ras_hits += 1;
                    cycles += c.taken_bubble;
                } else {
                    self.mispredicts += 1;
                    cycles += c.mispredict_penalty;
                }
            }
            CfClass::IndirectJump => {
                // No indirect-target predictor modelled: always a flush.
                self.mispredicts += 1;
                cycles += c.mispredict_penalty;
            }
            CfClass::DirectJump => cycles += c.taken_bubble,
            CfClass::Branch => {
                // Static BTFN: backward predicted taken, forward not-taken.
                let backward = target < next;
                let predicted_taken = if let Inst::Branch { offset, .. } = inst {
                    *offset < 0
                } else {
                    backward
                };
                if predicted_taken == taken {
                    if taken {
                        cycles += c.taken_bubble;
                    }
                } else {
                    self.mispredicts += 1;
                    cycles += c.mispredict_penalty;
                }
            }
            CfClass::None => {}
        }
        cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_isa::{BranchCond, Reg};

    fn model() -> TimingModel {
        TimingModel::new(TimingConfig::default())
    }

    #[test]
    fn alu_costs_one_cycle() {
        let mut m = model();
        assert_eq!(m.cost(&Inst::NOP, CfClass::None, false, 4, 4), 1);
    }

    #[test]
    fn load_costs_more_than_alu() {
        let mut m = model();
        let ld = Inst::Load {
            rd: Reg::A0,
            rs1: Reg::SP,
            offset: 0,
            width: riscv_isa::MemWidth::D,
            unsigned: false,
        };
        assert!(m.cost(&ld, CfClass::None, false, 4, 4) > 1);
    }

    #[test]
    fn predicted_return_is_cheap_unpredicted_is_not() {
        let mut m = model();
        let call = Inst::Jal {
            rd: Reg::RA,
            offset: 0x40,
        };
        let ret = Inst::Jalr {
            rd: Reg::ZERO,
            rs1: Reg::RA,
            offset: 0,
        };
        // Call from pc with next=0x104 pushes 0x104.
        m.cost(&call, CfClass::Call, true, 0x104, 0x140);
        let predicted = m.cost(&ret, CfClass::Return, true, 0x144, 0x104);
        assert_eq!(m.ras_hits, 1);
        // Return to a different address: mispredicted.
        m.cost(&call, CfClass::Call, true, 0x104, 0x140);
        let mispredicted = m.cost(&ret, CfClass::Return, true, 0x144, 0xdead);
        assert!(mispredicted > predicted);
        assert_eq!(m.mispredicts, 1);
    }

    #[test]
    fn ras_depth_bounded() {
        let cfg = TimingConfig {
            ras_depth: 2,
            ..TimingConfig::default()
        };
        let mut m = TimingModel::new(cfg);
        let call = Inst::Jal {
            rd: Reg::RA,
            offset: 0x40,
        };
        for i in 0..5u64 {
            m.cost(&call, CfClass::Call, true, 0x100 + i * 4, 0x200);
        }
        assert_eq!(m.ras.len(), 2);
    }

    #[test]
    fn btfn_backward_taken_predicted() {
        let mut m = model();
        let back = Inst::Branch {
            cond: BranchCond::Ne,
            rs1: Reg::A0,
            rs2: Reg::ZERO,
            offset: -8,
        };
        // Backward branch taken: predicted correctly, cheap.
        let taken = m.cost(&back, CfClass::Branch, true, 0x108, 0x100);
        assert_eq!(taken, 1 + m.config().taken_bubble);
        // Backward branch NOT taken: mispredicted.
        let nottaken = m.cost(&back, CfClass::Branch, false, 0x108, 0x108);
        assert_eq!(nottaken, 1 + m.config().mispredict_penalty);
        assert_eq!(m.mispredicts, 1);
    }

    #[test]
    fn indirect_jump_always_flushes() {
        let mut m = model();
        let ij = Inst::Jalr {
            rd: Reg::ZERO,
            rs1: Reg::A5,
            offset: 0,
        };
        let cost = m.cost(&ij, CfClass::IndirectJump, true, 0x104, 0x900);
        assert_eq!(cost, 1 + m.config().mispredict_penalty);
    }

    #[test]
    fn divide_is_iterative() {
        let mut m = model();
        let div = Inst::Mul {
            op: riscv_isa::MulOp::Div,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
            word: false,
        };
        assert!(m.cost(&div, CfClass::None, false, 4, 4) >= 10);
    }
}
