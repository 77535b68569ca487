//! Multi-core TitanCFI (the paper's §VII future work): two host cores,
//! one RoT, per-core shadow-stack banks in the firmware.

use cva6_model::Halt;
use riscv_isa::Reg;
use titancfi_soc::DualHostSoc;
use titancfi_workloads::kernels::{all_kernels, KERNEL_MEM};

fn program(name: &str) -> riscv_asm::Program {
    all_kernels()
        .find(|k| k.name == name)
        .unwrap_or_else(|| panic!("{name}?"))
        .program()
        .expect("assembles")
}

#[test]
fn two_kernels_protected_concurrently() {
    let fib = program("fib");
    let towers = program("towers");
    let mut soc = DualHostSoc::new([&fib, &towers], KERNEL_MEM, 8);
    let report = soc.run(500_000_000);

    for (i, core) in report.cores.iter().enumerate() {
        assert_eq!(core.halt, Halt::Breakpoint, "core {i} halts cleanly");
    }
    assert_eq!(soc.host_reg(0, Reg::A0), 610, "fib(15) on core 0");
    assert_eq!(soc.host_reg(1, Reg::A0), 1023, "towers(10) on core 1");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    // Every streamed log was checked, across both cores.
    let streamed: u64 = report.cores.iter().map(|c| c.cf_streamed).sum();
    assert_eq!(streamed, report.logs_checked);
    assert!(report.cores[0].cf_streamed > 0 && report.cores[1].cf_streamed > 0);
    // Exact values: (cycles, instret, cf_streamed) per core.
    assert_eq!(
        summary(&report),
        [(618_790, 18_739, 3946), (639_535, 17_398, 4094)]
    );
    assert_eq!(report.logs_checked, 8040);
}

/// Per-core (cycles, instret, cf_streamed).
fn summary(report: &titancfi_soc::DualReport) -> [(u64, u64, u64); 2] {
    report
        .cores
        .clone()
        .map(|c| (c.cycles, c.instret, c.cf_streamed))
}

#[test]
fn shadow_stacks_are_isolated_per_core() {
    // Core 0 performs calls (pushes into bank 0). Core 1 executes a bare
    // `ret` without any call: if the banks were shared, core 0's pushed
    // addresses could mask the underflow; with proper banking core 1's
    // return must be flagged.
    let core0 = riscv_asm::assemble(
        r"
        _start:
            li  s0, 50
        loop:
            call f
            addi s0, s0, -1
            bnez s0, loop
            ebreak
        f:  ret
        ",
        riscv_isa::Xlen::Rv64,
        0x8000_0000,
    )
    .expect("core0");
    let core1 = riscv_asm::assemble(
        r"
        _start:
            nop
            nop
            la  ra, somewhere
            ret                 # return without any call: bank-1 underflow
        somewhere:
            ebreak
        ",
        riscv_isa::Xlen::Rv64,
        0x8000_0000,
    )
    .expect("core1");
    let mut soc = DualHostSoc::new([&core0, &core1], 1 << 20, 8);
    let report = soc.run(10_000_000);

    let core1_violations: Vec<_> = report.violations.iter().filter(|v| v.core == 1).collect();
    assert!(
        !core1_violations.is_empty(),
        "core 1's bare return must underflow its own bank: {:?}",
        report.violations
    );
    assert!(
        report.violations.iter().all(|v| v.core == 1),
        "core 0's balanced calls must stay clean: {:?}",
        report.violations
    );
}

#[test]
fn attack_on_one_core_attributed_correctly() {
    let victim = riscv_asm::assemble(
        r"
        _start:
            call vulnerable
            ebreak
        vulnerable:
            addi sp, sp, -16
            sd   ra, 8(sp)
            la   t0, gadget
            sd   t0, 8(sp)
            ld   ra, 8(sp)
            addi sp, sp, 16
            ret
        gadget:
            li   a0, 0x666
            ebreak
        ",
        riscv_isa::Xlen::Rv64,
        0x8000_0000,
    )
    .expect("victim");
    let clean = program("dhry-calls");
    // Victim on core 1, busy clean workload on core 0.
    let mut soc = DualHostSoc::new([&clean, &victim], KERNEL_MEM, 8);
    let report = soc.run(500_000_000);

    assert!(!report.violations.is_empty(), "hijack must be detected");
    assert!(
        report.violations.iter().all(|v| v.core == 1),
        "violation attributed to the victim core: {:?}",
        report.violations
    );
    // The clean core finished its work unperturbed.
    assert_eq!(report.cores[0].halt, Halt::Breakpoint);
    // Exact values: the hijacked `ret` (pc 0x8000_0024, to the gadget) is
    // the only violation, flagged at RoT cycle 900.
    assert_eq!(report.cores[1].halt, Halt::Breakpoint);
    assert_eq!(summary(&report), [(751_457, 11_502, 5000), (14, 10, 2)]);
    assert_eq!(report.logs_checked, 5002);
    let [v] = report.violations[..] else {
        panic!("exactly one violation: {:?}", report.violations)
    };
    assert_eq!(
        (v.core, v.log.pc, v.log.target, v.cycle),
        (1, 0x8000_0024, 0x8000_0028, 900)
    );
    assert_eq!(
        (soc.host_reg(0, Reg::A0), soc.host_reg(1, Reg::A0)),
        (250, 0x666)
    );
}

#[test]
fn shared_rot_serialises_checks_from_both_cores() {
    // Two call-dense kernels: the single RoT is the bottleneck; both cores
    // make progress (neither starves) and all logs are eventually checked.
    let a = program("fib");
    let b = program("dhry-calls");
    let mut soc = DualHostSoc::new([&a, &b], KERNEL_MEM, 8);
    let report = soc.run(2_000_000_000);
    assert_eq!(report.cores[0].halt, Halt::Breakpoint);
    assert_eq!(report.cores[1].halt, Halt::Breakpoint);
    assert!(report.violations.is_empty());
    let streamed: u64 = report.cores.iter().map(|c| c.cf_streamed).sum();
    assert_eq!(streamed, report.logs_checked);
}
