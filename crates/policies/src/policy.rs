//! The software-defined CFI policy interface.
//!
//! The paper's central claim is that keeping the policy in *RoT firmware*
//! makes it software-defined: any policy expressible as a function of the
//! commit-log stream can be deployed without new hardware (§I, §VII). This
//! module captures that contract as a trait. Policies here are the
//! *golden models* of the firmware: the cycle-accurate RV32 firmware in
//! `titancfi::firmware` implements the same semantics, and integration
//! tests check the two agree verdict-for-verdict.

use std::fmt;
use titancfi::CommitLog;

/// Why a policy rejected a control-flow event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// A return's target did not match the pushed return address (ROP).
    ReturnMismatch {
        /// The address the shadow stack expected.
        expected: u64,
        /// The address control actually went to.
        actual: u64,
    },
    /// A return retired with an empty shadow stack.
    ShadowStackUnderflow,
    /// Authentication of spilled CFI metadata failed (tampering).
    SpillAuthFailure,
    /// An indirect jump/call landed on an instruction that is not an
    /// `lpad` marker (Zicfilp).
    LandingPadMissing {
        /// The non-landing-pad target.
        target: u64,
    },
    /// An indirect jump/call landed on a landing pad whose label does not
    /// match the label the site expects (Zicfilp labelled mode).
    LandingPadLabelMismatch {
        /// The landing-pad address reached.
        target: u64,
        /// The label the call site expects.
        expected: u32,
        /// The label carried by the pad actually reached.
        actual: u32,
    },
    /// An instrumented indirect call reached a function whose `[fn-4]`
    /// type hash does not match the hash the call site expects (KCFI).
    KcfiMismatch {
        /// The call-site pc.
        site: u64,
        /// The type hash the site expects.
        expected: u32,
        /// The hash found at the target (`None`: no hash word at all).
        actual: Option<u32>,
    },
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViolationKind::ReturnMismatch { expected, actual } => {
                write!(
                    f,
                    "return mismatch: expected {expected:#x}, got {actual:#x}"
                )
            }
            ViolationKind::ShadowStackUnderflow => f.write_str("shadow stack underflow"),
            ViolationKind::SpillAuthFailure => {
                f.write_str("spilled metadata failed authentication")
            }
            ViolationKind::LandingPadMissing { target } => {
                write!(f, "indirect branch to non-landing-pad {target:#x}")
            }
            ViolationKind::LandingPadLabelMismatch {
                target,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "landing pad {target:#x} label mismatch: expected {expected}, got {actual}"
                )
            }
            ViolationKind::KcfiMismatch {
                site,
                expected,
                actual,
            } => match actual {
                Some(actual) => write!(
                    f,
                    "kcfi mismatch at site {site:#x}: expected {expected:#010x}, got {actual:#010x}"
                ),
                None => write!(
                    f,
                    "kcfi mismatch at site {site:#x}: expected {expected:#010x}, target has no type hash"
                ),
            },
        }
    }
}

/// A policy's decision on one commit log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The event conforms to the policy.
    Allowed,
    /// The event violates the policy.
    Violation(ViolationKind),
}

impl Verdict {
    /// Whether the event was allowed.
    #[must_use]
    pub fn is_allowed(self) -> bool {
        self == Verdict::Allowed
    }
}

/// A CFI enforcement policy over the commit-log stream.
///
/// Implementations are stateful (shadow stacks, label sets) and must be
/// deterministic: the same log sequence yields the same verdict sequence.
pub trait CfiPolicy {
    /// Human-readable policy name.
    fn name(&self) -> &str;

    /// Checks one control-flow event, updating internal state.
    fn check(&mut self, log: &CommitLog) -> Verdict;

    /// Approximate extra check latency (RoT cycles) this event incurred
    /// beyond the base firmware cost — e.g. HMAC authentication on a spill.
    /// Returns the cost of the *most recent* `check` call.
    fn last_extra_cycles(&self) -> u64 {
        0
    }

    /// Resets the policy to its initial state (e.g. at process start).
    fn reset(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_helpers() {
        assert!(Verdict::Allowed.is_allowed());
        assert!(!Verdict::Violation(ViolationKind::ShadowStackUnderflow).is_allowed());
    }

    #[test]
    fn violation_display() {
        let v = ViolationKind::ReturnMismatch {
            expected: 0x10,
            actual: 0x20,
        };
        assert!(v.to_string().contains("0x10"));
        assert!(v.to_string().contains("0x20"));
        assert!(ViolationKind::SpillAuthFailure
            .to_string()
            .contains("authentication"));
    }
}
