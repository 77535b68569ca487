//! Integration tests: the firmware cost structure must reproduce the
//! qualitative shape of the paper's Table I.

use titancfi::firmware::{FirmwareKind, FirmwareRunner};
use titancfi::{Category, CommitLog, Phase};

fn call_log() -> CommitLog {
    // jal ra, +0x100 at 0x8000_0000
    CommitLog {
        pc: 0x8000_0000,
        insn: 0x1000_00ef,
        next: 0x8000_0004,
        target: 0x8000_0100,
    }
}

fn ret_log() -> CommitLog {
    // ret from 0x8000_0104 back to the pushed 0x8000_0004
    CommitLog {
        pc: 0x8000_0104,
        insn: 0x0000_8067,
        next: 0x8000_0108,
        target: 0x8000_0004,
    }
}

fn measure(
    kind: FirmwareKind,
) -> (
    titancfi::firmware::CheckMeasurement,
    titancfi::firmware::CheckMeasurement,
) {
    let mut fw = FirmwareRunner::new(kind);
    let call = fw.check(&call_log());
    let ret = fw.check(&ret_log());
    assert!(!call.violation);
    assert!(!ret.violation, "matched return must pass");
    (call, ret)
}

#[test]
fn print_table1_shape() {
    for kind in FirmwareKind::ALL {
        let (call, ret) = measure(kind);
        for (name, m) in [("CALL", &call), ("RET", &ret)] {
            let irq = m.breakdown.phase_total(Phase::Irq);
            let cfi = m.breakdown.phase_total(Phase::Cfi);
            println!(
                "{:<9} {:<4} IRQ {:>3} instr {:>4} cyc | CFI {:>3} instr {:>4} cyc | latency {:>4}",
                kind.name(),
                name,
                irq.instructions,
                irq.cycles,
                cfi.instructions,
                cfi.cycles,
                m.latency
            );
            for cat in Category::ALL {
                let c = m.breakdown.cell(Phase::Cfi, cat);
                println!(
                    "    CFI {cat}: {} instr, {} cycles",
                    c.instructions, c.cycles
                );
            }
        }
    }
}

#[test]
fn irq_mode_dominated_by_irq_overhead() {
    let (call, _) = measure(FirmwareKind::Irq);
    let irq = call.breakdown.phase_total(Phase::Irq);
    let cfi = call.breakdown.phase_total(Phase::Cfi);
    // Paper: ~60% of IRQ-mode cycles are interrupt handling.
    assert!(
        irq.cycles > cfi.cycles,
        "IRQ overhead ({}) must dominate policy cost ({})",
        irq.cycles,
        cfi.cycles
    );
}

#[test]
fn polling_eliminates_most_irq_cost() {
    let (irq_call, _) = measure(FirmwareKind::Irq);
    let (poll_call, _) = measure(FirmwareKind::Polling);
    assert!(
        poll_call.latency < irq_call.latency,
        "polling ({}) must be faster than IRQ ({})",
        poll_call.latency,
        irq_call.latency
    );
    // Paper: polling saves ~58% of the per-check latency.
    let saving = 1.0 - poll_call.latency as f64 / irq_call.latency as f64;
    assert!(saving > 0.3, "saving {saving:.2} too small");
}

#[test]
fn optimized_interconnect_fastest() {
    let (poll_call, poll_ret) = measure(FirmwareKind::Polling);
    let (opt_call, opt_ret) = measure(FirmwareKind::Optimized);
    assert!(opt_call.latency < poll_call.latency);
    assert!(opt_ret.latency < poll_ret.latency);
}

#[test]
fn latencies_in_paper_ballpark() {
    // Paper §V-C: ~267 (IRQ), ~112 (Polling), ~73 (Optimized) cycles,
    // averaged over CALL and RET. Allow generous modelling slack.
    let expect = [
        (FirmwareKind::Irq, 267.0),
        (FirmwareKind::Polling, 112.0),
        (FirmwareKind::Optimized, 73.0),
    ];
    for (kind, paper) in expect {
        let (call, ret) = measure(kind);
        let avg = (call.latency + ret.latency) as f64 / 2.0;
        let ratio = avg / paper;
        assert!(
            (0.5..2.0).contains(&ratio),
            "{}: measured {avg} vs paper {paper} (ratio {ratio:.2})",
            kind.name()
        );
    }
}

#[test]
fn call_ret_sequence_sustains_many_checks() {
    let mut fw = FirmwareRunner::new(FirmwareKind::Polling);
    for i in 0..100u64 {
        let pc = 0x8000_0000 + i * 0x40;
        let call = CommitLog {
            pc,
            insn: 0x1000_00ef,
            next: pc + 4,
            target: pc + 0x100,
        };
        assert!(!fw.check(&call).violation, "call {i}");
    }
    for i in (0..100u64).rev() {
        let pc = 0x8000_0000 + i * 0x40;
        let ret = CommitLog {
            pc: pc + 0x104,
            insn: 0x0000_8067,
            next: pc + 0x108,
            target: pc + 4,
        };
        assert!(!fw.check(&ret).violation, "ret {i}");
    }
    assert_eq!(fw.checks, 200);
    assert_eq!(fw.violations, 0);
}

#[test]
fn underflow_flagged_as_violation() {
    let mut fw = FirmwareRunner::new(FirmwareKind::Polling);
    // A return with an empty shadow stack: underflow.
    assert!(fw.check(&ret_log()).violation);
}

#[test]
fn indirect_jump_passes_without_shadow_stack_effect() {
    // jalr zero, 0(a5): a plain indirect jump, which a return-address
    // policy passes straight to the verdict.
    let ij = CommitLog {
        pc: 0x8000_0000,
        insn: 0x0007_8067,
        next: 0x8000_0004,
        target: 0x8000_0200,
    };
    // IRQ / Polling / Optimized.
    for (kind, latency) in FirmwareKind::ALL.into_iter().zip([235, 99, 79]) {
        let mut fw = FirmwareRunner::new(kind);
        let m = fw.check(&ij);
        assert!(!m.violation, "{}", kind.name());
        assert_eq!(m.latency, latency, "{}", kind.name());
        assert_eq!(
            m.breakdown.phase_total(Phase::Cfi).instructions,
            26,
            "{}",
            kind.name()
        );
        // Shadow stack untouched: a following matched pair still works.
        assert!(!fw.check(&call_log()).violation, "{}", kind.name());
        assert!(!fw.check(&ret_log()).violation, "{}", kind.name());
    }
}

/// Provisioning the policy tables between checks writes the RoT scratchpad
/// from the host side. No instruction makes that write, so no retirement
/// may pay for it: the check latencies must equal those of the same checks
/// with all provisioning up front, with the decode cache on or off.
#[test]
fn provisioning_between_checks_costs_no_rot_cycles() {
    let nested_call = CommitLog {
        pc: 0x8000_0100,
        insn: 0x1000_00ef,
        next: 0x8000_0104,
        target: 0x8000_0200,
    };
    let nested_ret = CommitLog {
        pc: 0x8000_0204,
        insn: 0x0000_8067,
        next: 0x8000_0208,
        target: 0x8000_0104,
    };
    let checks = [call_log(), nested_call, nested_ret, ret_log()];
    let pad = |i: u64| 0x8000_1000 + 4 * i;
    for kind in FirmwareKind::ALL {
        let latencies = |predecode: bool, interleaved: bool| {
            let mut fw = FirmwareRunner::new_policy(kind);
            fw.set_predecode(predecode);
            fw.policy_enable_shadow_stack();
            if !interleaved {
                (0..checks.len() as u64).for_each(|i| fw.policy_register_landing_pad(pad(i)));
            }
            let mut out = Vec::new();
            for (i, log) in checks.iter().enumerate() {
                if interleaved {
                    fw.policy_register_landing_pad(pad(i as u64));
                }
                let m = fw.check(log);
                assert!(!m.violation, "{}: check {i}", kind.name());
                out.push(m.latency);
            }
            out
        };
        let reference = latencies(true, false);
        assert_eq!(latencies(true, true), reference, "{}", kind.name());
        assert_eq!(latencies(false, true), reference, "{}", kind.name());
        assert_eq!(latencies(false, false), reference, "{}", kind.name());
    }
}
