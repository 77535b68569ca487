//! Composition of CFI policies.
//!
//! The RoT firmware can enforce any set of policies on the same commit-log
//! stream (the paper's key flexibility argument). [`CombinedPolicy`] runs
//! several policies in order and reports the first violation.

use crate::policy::{CfiPolicy, Verdict};
use titancfi::CommitLog;

/// Several policies checked in sequence.
///
/// # Examples
///
/// ```
/// use titancfi::CommitLog;
/// use titancfi_policies::{
///     CfiPolicy, CombinedPolicy, LandingPadPolicy, ShadowStackPolicy, Verdict, ViolationKind,
/// };
///
/// let mut lp = LandingPadPolicy::new();
/// lp.register_pad(0x2000, 1);
/// let mut policy = CombinedPolicy::new()
///     .with(ShadowStackPolicy::new(1024))
///     .with(lp);
/// assert_eq!(policy.len(), 2);
/// // jalr zero, 0(a5) to a gadget: the landing-pad half flags it
/// let jop = CommitLog { pc: 0x100, insn: 0x0007_8067, next: 0x104, target: 0x2342 };
/// assert_eq!(
///     policy.check(&jop),
///     Verdict::Violation(ViolationKind::LandingPadMissing { target: 0x2342 })
/// );
/// ```
#[derive(Default)]
pub struct CombinedPolicy {
    policies: Vec<Box<dyn CfiPolicy>>,
    last_extra: u64,
}

impl std::fmt::Debug for CombinedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.policies.iter().map(|p| p.name()).collect();
        f.debug_struct("CombinedPolicy")
            .field("policies", &names)
            .finish()
    }
}

impl CombinedPolicy {
    /// An empty combination (allows everything).
    #[must_use]
    pub fn new() -> CombinedPolicy {
        CombinedPolicy::default()
    }

    /// Adds a policy (builder style).
    #[must_use]
    pub fn with<P: CfiPolicy + 'static>(mut self, policy: P) -> CombinedPolicy {
        self.policies.push(Box::new(policy));
        self
    }

    /// Number of composed policies.
    #[must_use]
    pub fn len(&self) -> usize {
        self.policies.len()
    }

    /// Whether no policies are composed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.policies.is_empty()
    }
}

impl CfiPolicy for CombinedPolicy {
    fn name(&self) -> &str {
        "combined"
    }

    fn check(&mut self, log: &CommitLog) -> Verdict {
        self.last_extra = 0;
        for policy in &mut self.policies {
            let verdict = policy.check(log);
            self.last_extra += policy.last_extra_cycles();
            if let Verdict::Violation(_) = verdict {
                return verdict;
            }
        }
        Verdict::Allowed
    }

    fn last_extra_cycles(&self) -> u64 {
        self.last_extra
    }

    fn reset(&mut self) {
        for policy in &mut self.policies {
            policy.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::landing_pad::LandingPadPolicy;
    use crate::policy::ViolationKind;
    use crate::shadow_stack::ShadowStackPolicy;

    #[test]
    fn both_policies_enforced() {
        let mut lp = LandingPadPolicy::new();
        lp.register_pad(0x3000, 1);
        let mut combined = CombinedPolicy::new()
            .with(ShadowStackPolicy::new(64))
            .with(lp);

        // Valid call.
        let call = CommitLog {
            pc: 0x100,
            insn: 0x0080_00ef,
            next: 0x104,
            target: 0x3000,
        };
        assert!(combined.check(&call).is_allowed());
        // Indirect jump to a gadget: caught by the landing-pad half.
        let jop = CommitLog {
            pc: 0x200,
            insn: 0x0007_8067,
            next: 0x204,
            target: 0x3456,
        };
        assert_eq!(
            combined.check(&jop),
            Verdict::Violation(ViolationKind::LandingPadMissing { target: 0x3456 })
        );
        // Hijacked return: caught by the shadow-stack half.
        let rop = CommitLog {
            pc: 0x3004,
            insn: 0x0000_8067,
            next: 0x3008,
            target: 0x9999,
        };
        assert!(matches!(
            combined.check(&rop),
            Verdict::Violation(ViolationKind::ReturnMismatch { .. })
        ));
    }

    #[test]
    fn empty_combination_allows_all() {
        let mut c = CombinedPolicy::new();
        assert!(c.is_empty());
        let anything = CommitLog {
            pc: 0,
            insn: 0x0000_8067,
            next: 4,
            target: 0xbad,
        };
        assert!(c.check(&anything).is_allowed());
    }

    #[test]
    fn reset_propagates() {
        let mut c = CombinedPolicy::new().with(ShadowStackPolicy::new(64));
        let call = CommitLog {
            pc: 0x100,
            insn: 0x0080_00ef,
            next: 0x104,
            target: 0x3000,
        };
        c.check(&call);
        c.reset();
        let ret = CommitLog {
            pc: 0x3004,
            insn: 0x0000_8067,
            next: 0x3008,
            target: 0x104,
        };
        assert!(matches!(
            c.check(&ret),
            Verdict::Violation(ViolationKind::ShadowStackUnderflow)
        ));
    }
}
