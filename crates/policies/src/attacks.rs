//! Attack injection: code-reuse attacks expressed as commit-log tampering.
//!
//! The paper's threat model (§VI) is an attacker with a memory write
//! primitive mounting code-reuse attacks (ROP and friends) against software
//! on the host core. In the commit-log view, every such attack manifests as
//! control-flow events whose targets diverge from the intended ones. These
//! injectors rewrite a legitimate commit-log stream the way each attack
//! class would, so tests and examples can measure detection.

use riscv_isa::CfClass;
use titancfi::CommitLog;

/// A code-reuse attack pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Attack {
    /// Return-oriented programming: the `n`-th return is redirected into a
    /// gadget chain.
    Rop {
        /// Index (among returns) of the first hijacked return.
        nth_return: usize,
        /// Gadget addresses the chain visits.
        gadgets: Vec<u64>,
    },
    /// Jump-oriented programming: the `n`-th indirect jump is redirected to
    /// a gadget.
    Jop {
        /// Index (among indirect jumps) of the hijacked jump.
        nth_jump: usize,
        /// The gadget address.
        gadget: u64,
    },
    /// Stack pivot: every return after the `n`-th is redirected (the stack
    /// pointer now points into attacker-controlled memory).
    StackPivot {
        /// Index (among returns) at which the pivot happens.
        nth_return: usize,
        /// Base of the fake stack's return targets.
        fake_base: u64,
    },
}

impl Attack {
    /// Applies the attack to a legitimate commit-log stream, returning the
    /// tampered stream an attacked core would produce.
    #[must_use]
    pub fn apply(&self, stream: &[CommitLog]) -> Vec<CommitLog> {
        let mut out = Vec::with_capacity(stream.len());
        let mut returns_seen = 0usize;
        let mut jumps_seen = 0usize;
        let mut gadget_iter = 0usize;
        for log in stream {
            let mut log = *log;
            match log.cf_class() {
                CfClass::Return => {
                    match self {
                        Attack::Rop {
                            nth_return,
                            gadgets,
                        } => {
                            if returns_seen >= *nth_return && gadget_iter < gadgets.len() {
                                log.target = gadgets[gadget_iter];
                                gadget_iter += 1;
                            }
                        }
                        Attack::StackPivot {
                            nth_return,
                            fake_base,
                        } => {
                            if returns_seen >= *nth_return {
                                log.target = fake_base + 0x10 * (returns_seen - nth_return) as u64;
                            }
                        }
                        Attack::Jop { .. } => {}
                    }
                    returns_seen += 1;
                }
                CfClass::IndirectJump => {
                    if let Attack::Jop { nth_jump, gadget } = self {
                        if jumps_seen == *nth_jump {
                            log.target = *gadget;
                        }
                    }
                    jumps_seen += 1;
                }
                _ => {}
            }
            out.push(log);
        }
        out
    }
}

/// Builds a legitimate call/return stream of `depth` nested frames —
/// convenient ground truth for attack tests.
#[must_use]
pub fn nested_call_stream(base_pc: u64, depth: usize) -> Vec<CommitLog> {
    let mut stream = Vec::with_capacity(2 * depth);
    for i in 0..depth as u64 {
        let pc = base_pc + i * 0x40;
        stream.push(CommitLog {
            pc,
            insn: 0x0080_00ef, // jal ra, ...
            next: pc + 4,
            target: pc + 0x40,
        });
    }
    for i in (0..depth as u64).rev() {
        let pc = base_pc + i * 0x40;
        stream.push(CommitLog {
            pc: pc + 0x44,
            insn: 0x0000_8067, // ret
            next: pc + 0x48,
            target: pc + 4,
        });
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CfiPolicy, Verdict, ViolationKind};
    use crate::shadow_stack::ShadowStackPolicy;

    fn detect(stream: &[CommitLog]) -> Option<usize> {
        let mut ss = ShadowStackPolicy::new(1024);
        for (i, log) in stream.iter().enumerate() {
            if let Verdict::Violation(_) = ss.check(log) {
                return Some(i);
            }
        }
        None
    }

    #[test]
    fn clean_stream_passes() {
        assert_eq!(detect(&nested_call_stream(0x8000_0000, 20)), None);
    }

    #[test]
    fn rop_chain_detected_at_first_gadget() {
        let clean = nested_call_stream(0x8000_0000, 20);
        let attacked = Attack::Rop {
            nth_return: 3,
            gadgets: vec![0x6000_0010, 0x6000_0020, 0x6000_0030],
        }
        .apply(&clean);
        let hit = detect(&attacked).expect("ROP must be detected");
        // 20 calls, then returns start at 20; the 3rd return is index 23.
        assert_eq!(hit, 23, "detected at the very first hijacked return");
    }

    #[test]
    fn stack_pivot_detected() {
        let clean = nested_call_stream(0x8000_0000, 10);
        let attacked = Attack::StackPivot {
            nth_return: 0,
            fake_base: 0x7000_0000,
        }
        .apply(&clean);
        assert_eq!(detect(&attacked), Some(10), "first pivoted return flagged");
    }

    #[test]
    fn jop_not_detected_by_shadow_stack_alone() {
        // A JOP attack leaves returns intact: the shadow stack alone must
        // NOT flag it — that is exactly why the landing-pad policy exists.
        let mut clean = nested_call_stream(0x8000_0000, 5);
        clean.insert(
            5,
            CommitLog {
                pc: 0x8000_0500,
                insn: 0x0007_8067,
                next: 0x8000_0504,
                target: 0x9000,
            },
        );
        let attacked = Attack::Jop {
            nth_jump: 0,
            gadget: 0x6666_0000,
        }
        .apply(&clean);
        assert_eq!(detect(&attacked), None);
        // The combined policy does catch it, at the hijacked jump.
        let mut lp = crate::landing_pad::LandingPadPolicy::new();
        lp.register_pad(0x9000, 1);
        let mut combined = crate::combined::CombinedPolicy::new()
            .with(ShadowStackPolicy::new(1024))
            .with(lp);
        let caught = attacked.iter().find_map(|log| match combined.check(log) {
            Verdict::Violation(kind) => Some(kind),
            Verdict::Allowed => None,
        });
        assert_eq!(
            caught,
            Some(ViolationKind::LandingPadMissing {
                target: 0x6666_0000
            }),
            "combined policy detects JOP"
        );
    }

    #[test]
    fn attack_preserves_stream_length() {
        let clean = nested_call_stream(0, 8);
        for attack in [
            Attack::Rop {
                nth_return: 1,
                gadgets: vec![0xdead],
            },
            Attack::Jop {
                nth_jump: 0,
                gadget: 0xbeef,
            },
            Attack::StackPivot {
                nth_return: 2,
                fake_base: 0x100,
            },
        ] {
            assert_eq!(attack.apply(&clean).len(), clean.len());
        }
    }
}
