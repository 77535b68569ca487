//! The OpenTitan CFI firmware and its measurement harness.
//!
//! The policy firmware is real RV32 code, assembled with `riscv-asm` and
//! executed on the Ibex model — exactly the structure of paper §IV-C:
//! (i) IRQ entry, (ii) policy enforcement, (iii) IRQ exit. The policy here
//! is the paper's reference **shadow stack** (return-address protection):
//! calls push the return address from the commit log into RoT-private
//! memory; returns pop and compare, flagging any mismatch as a violation.
//!
//! Three variants reproduce Table I:
//!
//! * [`FirmwareKind::Irq`] — doorbell interrupt wakes Ibex from `wfi`;
//!   full prologue/epilogue cost on every check;
//! * [`FirmwareKind::Polling`] — Ibex busy-polls the doorbell, eliminating
//!   IRQ entry/exit (paper §V-B "Polling");
//! * [`FirmwareKind::Optimized`] — the polling firmware on the low-latency
//!   interconnect profile (1-cycle scratchpad, 8-cycle SoC).

use crate::accounting::{Breakdown, Category, Phase};
use crate::commit_log::CommitLog;
use opentitan_model::rot::{map, LatencyProfile};
use opentitan_model::OpenTitan;
use riscv_asm::{assemble, Program};
use riscv_isa::{Bus as _, CfClass};

/// Firmware/interconnect variant (the three sections of Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FirmwareKind {
    /// Interrupt-driven firmware on the baseline interconnect.
    Irq,
    /// Busy-polling firmware on the baseline interconnect.
    Polling,
    /// Busy-polling firmware on the optimized interconnect.
    Optimized,
}

impl FirmwareKind {
    /// All variants in Table I order.
    pub const ALL: [FirmwareKind; 3] = [
        FirmwareKind::Irq,
        FirmwareKind::Polling,
        FirmwareKind::Optimized,
    ];

    /// Display name matching the paper.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FirmwareKind::Irq => "IRQ",
            FirmwareKind::Polling => "Polling",
            FirmwareKind::Optimized => "Optimized",
        }
    }
}

/// The CFI policy routine shared by both firmware tops: the paper's
/// shadow stack. Calls push the return address, returns pop and compare,
/// and a plain indirect jump passes unchecked, as in [`CFI_CHECK_MC_ASM`]
/// (the forward-edge policies live in [`CFI_CHECK_POLICY_ASM`]).
///
/// Register budget: `t0`-`t2`, `a0`, `a1` (the registers the IRQ prologue
/// spills) plus `ra`. The commit-log field offsets match
/// [`CommitLog::to_words`]. Addresses are compared on their low 32 bits —
/// the reference SoC's physical address space fits in 32 bits.
const CFI_CHECK_ASM: &str = r"
# ---------------- CFI policy: shadow stack ----------------
cfi_begin:
cfi_check:
    li   a0, 0xc0000000      # CFI mailbox base
    lw   t0, 0(a0)           # commit log: uncompressed insn     [SoC]
    andi t1, t0, 0x7f
    addi t2, t1, -0x6f       # JAL opcode?
    beqz t2, handle_jal
    addi t2, t1, -0x67       # JALR opcode?
    beqz t2, handle_jalr
    j    respond_ok          # filter never sends anything else

handle_jal:
    srli t1, t0, 7
    andi t1, t1, 31          # rd
    addi t2, t1, -1
    beqz t2, do_call         # rd == ra
    addi t2, t1, -5
    beqz t2, do_call         # rd == t0 (alternate link)
    j    respond_ok          # direct jump: immutable target

handle_jalr:
    srli t1, t0, 7
    andi t1, t1, 31          # rd
    addi t2, t1, -1
    beqz t2, do_call
    addi t2, t1, -5
    beqz t2, do_call
    srli t1, t0, 15
    andi t1, t1, 31          # rs1
    addi t2, t1, -1
    beqz t2, do_ret
    addi t2, t1, -5
    beqz t2, do_ret
    j    respond_ok          # plain indirect jump: not a return

do_call:
    lw   t1, 12(a0)          # next address = return address     [SoC]
    la   a1, ssp
    lw   t2, 0(a1)           # shadow stack pointer              [RoT]
    sw   t1, 0(t2)           # push                              [RoT]
    addi t2, t2, 4
    sw   t2, 0(a1)           # update pointer                    [RoT]
    lw   t1, 4(a1)           # stack limit                       [RoT]
    bltu t2, t1, respond_ok
    # Overflow: the runtime policy layer spills + authenticates via HMAC;
    # the firmware records the event and keeps the newest frames.
    lw   t1, 12(a1)          # overflow counter                  [RoT]
    addi t1, t1, 1
    sw   t1, 12(a1)          #                                   [RoT]
    j    respond_ok

do_ret:
    lw   t1, 20(a0)          # actual return target              [SoC]
    la   a1, ssp
    lw   t2, 0(a1)           # shadow stack pointer              [RoT]
    lw   t0, 8(a1)           # stack base                        [RoT]
    bleu t2, t0, respond_violation   # pop from empty stack
    addi t2, t2, -4
    sw   t2, 0(a1)           # update pointer                    [RoT]
    lw   t0, 0(t2)           # expected return address           [RoT]
    bne  t0, t1, respond_violation
    j    respond_ok

respond_ok:
    li   t0, 0
    j    respond
respond_violation:
    li   t0, 1
respond:
    sw   t0, 0(a0)           # verdict in data word 0            [SoC]
    li   t0, 1
    sw   t0, 0x24(a0)        # completion (hw clears doorbell)   [SoC]
    ret
cfi_end:

# ---------------- policy state (RoT scratchpad) ----------------
.align 4
ssp:            .word ss_base    # current shadow stack pointer
ss_limit_var:   .word ss_limit
ss_base_var:    .word ss_base
ss_overflows:   .word 0
.align 4
ss_base:        .zero 4096       # 1024 return-address slots
ss_limit:
";

/// The policy-suite CFI routine: every policy of the forward-edge suite —
/// shadow stack (backward edge), Zicfilp-style landing pads, and KCFI type
/// hashes — behind independent enable flags, so the `policy_cost` bench can
/// measure each policy's firmware cycle cost in isolation and combined.
/// This is a *separate* routine from [`CFI_CHECK_ASM`], which stays the
/// shadow stack alone, so the suite never moves Table I's CALL and RET
/// counts.
///
/// Policy state lives in the RoT scratchpad:
///
/// * `lp_table` — 1024 direct-mapped landing-pad addresses,
///   slot = `(target >> 2) & 1023`; indirect calls and indirect jumps must
///   hit their slot exactly;
/// * `kcfi_sites` — 512 direct-mapped `{site_pc, expected_hash}` pairs;
///   a site miss means the call is uninstrumented and skips the check;
/// * `kcfi_fns` — 512 direct-mapped `{fn_addr, type_hash}` pairs standing
///   in for the `[fn-4]` hash words of host memory (the RoT keeps a
///   provisioned mirror rather than issuing a host-memory read per check).
const CFI_CHECK_POLICY_ASM: &str = r"
# ---------------- CFI policy suite: SS + lpad + KCFI ----------------
cfi_begin:
cfi_check:
    li   a0, 0xc0000000      # CFI mailbox base
    lw   t0, 0(a0)           # commit log: uncompressed insn     [SoC]
    andi t1, t0, 0x7f
    addi t2, t1, -0x6f       # JAL opcode?
    beqz t2, p_jal
    addi t2, t1, -0x67       # JALR opcode?
    beqz t2, p_jalr
    j    p_ok                # filter never sends anything else

p_jal:
    srli t1, t0, 7
    andi t1, t1, 31          # rd
    addi t2, t1, -1
    beqz t2, p_push          # direct call: backward edge only
    addi t2, t1, -5
    beqz t2, p_push
    j    p_ok                # direct jump: immutable target

p_jalr:
    srli t1, t0, 7
    andi t1, t1, 31          # rd
    addi t2, t1, -1
    beqz t2, p_icall
    addi t2, t1, -5
    beqz t2, p_icall
    srli t1, t0, 15
    andi t1, t1, 31          # rs1
    addi t2, t1, -1
    beqz t2, p_ret
    addi t2, t1, -5
    beqz t2, p_ret
    j    p_lp_jump           # plain indirect jump: forward edge only

# --- indirect call: landing pad, then KCFI, then shadow-stack push ---
p_icall:
    la   a1, pol_lp_enabled
    lw   t1, 0(a1)           #                                   [RoT]
    beqz t1, p_icall_kcfi
    lw   t1, 20(a0)          # actual call target                [SoC]
    srli t2, t1, 2           # slot = (target >> 2) & 1023
    li   t0, 1023
    and  t2, t2, t0
    slli t2, t2, 2
    la   t0, lp_table
    add  t2, t2, t0
    lw   t2, 0(t2)           # registered pad in the slot        [RoT]
    bne  t2, t1, p_violation
p_icall_kcfi:
    la   a1, pol_kcfi_enabled
    lw   t1, 0(a1)           #                                   [RoT]
    beqz t1, p_push
    lw   t1, 4(a0)           # call-site pc (low word)           [SoC]
    srli t2, t1, 2           # slot = (pc >> 2) & 511, 8B entries
    li   t0, 511
    and  t2, t2, t0
    slli t2, t2, 3
    la   t0, kcfi_sites
    add  t0, t0, t2
    lw   t2, 0(t0)           # stored site pc                    [RoT]
    bne  t2, t1, p_push      # site not instrumented: skip
    lw   t0, 4(t0)           # expected type hash                [RoT]
    lw   t1, 20(a0)          # actual call target                [SoC]
    srli t2, t1, 2           # slot = (target >> 2) & 511
    li   a1, 511
    and  t2, t2, a1
    slli t2, t2, 3
    la   a1, kcfi_fns
    add  a1, a1, t2
    lw   t2, 0(a1)           # stored fn address                 [RoT]
    bne  t2, t1, p_violation # target carries no type hash
    lw   t2, 4(a1)           # fn type hash                      [RoT]
    bne  t2, t0, p_violation # wrong type
    j    p_push

# --- plain indirect jump: landing pad only ---
p_lp_jump:
    la   a1, pol_lp_enabled
    lw   t1, 0(a1)           #                                   [RoT]
    beqz t1, p_ok
    lw   t1, 20(a0)          # actual jump target                [SoC]
    srli t2, t1, 2
    li   t0, 1023
    and  t2, t2, t0
    slli t2, t2, 2
    la   t0, lp_table
    add  t2, t2, t0
    lw   t2, 0(t2)           #                                   [RoT]
    bne  t2, t1, p_violation
    j    p_ok

# --- shadow-stack push (calls) ---
p_push:
    la   a1, pol_ss_enabled
    lw   t1, 0(a1)           #                                   [RoT]
    beqz t1, p_ok
    lw   t1, 12(a0)          # next address = return address     [SoC]
    la   a1, p_ssp
    lw   t2, 0(a1)           # shadow stack pointer              [RoT]
    sw   t1, 0(t2)           # push                              [RoT]
    addi t2, t2, 4
    sw   t2, 0(a1)           # update pointer                    [RoT]
    lw   t1, 4(a1)           # stack limit                       [RoT]
    bltu t2, t1, p_ok
    lw   t1, 12(a1)          # overflow counter                  [RoT]
    addi t1, t1, 1
    sw   t1, 12(a1)          #                                   [RoT]
    j    p_ok

# --- shadow-stack pop + compare (returns) ---
p_ret:
    la   a1, pol_ss_enabled
    lw   t1, 0(a1)           #                                   [RoT]
    beqz t1, p_ok
    lw   t1, 20(a0)          # actual return target              [SoC]
    la   a1, p_ssp
    lw   t2, 0(a1)           # shadow stack pointer              [RoT]
    lw   t0, 8(a1)           # stack base                        [RoT]
    bleu t2, t0, p_violation # pop from empty stack
    addi t2, t2, -4
    sw   t2, 0(a1)           # update pointer                    [RoT]
    lw   t0, 0(t2)           # expected return address           [RoT]
    bne  t0, t1, p_violation
    j    p_ok

p_ok:
    li   t0, 0
    j    p_respond
p_violation:
    li   t0, 1
p_respond:
    sw   t0, 0(a0)           # verdict in data word 0            [SoC]
    li   t0, 1
    sw   t0, 0x24(a0)        # completion (hw clears doorbell)   [SoC]
    ret
cfi_end:

# ---------------- policy-suite state (RoT scratchpad) ----------------
.align 4
pol_ss_enabled:   .word 0
pol_lp_enabled:   .word 0
pol_kcfi_enabled: .word 0
p_ssp:            .word p_ss_base
p_ss_limit_var:   .word p_ss_limit
p_ss_base_var:    .word p_ss_base
p_ss_overflows:   .word 0
.align 4
p_ss_base:        .zero 4096     # 1024 return-address slots
p_ss_limit:
.align 4
lp_table:         .zero 4096     # 1024 direct-mapped pad addresses
.align 4
kcfi_sites:       .zero 4096     # 512 {site_pc, expected_hash} pairs
.align 4
kcfi_fns:         .zero 4096     # 512 {fn_addr, type_hash} pairs
";

/// The interrupt-driven firmware top (paper §IV-C structure).
const IRQ_TOP_ASM: &str = r"
_start:
    la   t0, irq_handler
    csrw mtvec, t0
    li   t0, 0x800           # mie.MEIE
    csrw mie, t0
    csrsi mstatus, 8         # mstatus.MIE
main_loop:
    wfi
    j    main_loop

# ---------------- IRQ entry / exit ----------------
irq_handler:
    addi sp, sp, -32
    sw   ra, 0(sp)           # spill the 6 caller-visible regs    [RoT x6]
    sw   t0, 4(sp)
    sw   t1, 8(sp)
    sw   t2, 12(sp)
    sw   a0, 16(sp)
    sw   a1, 20(sp)
    csrr t0, mepc            # save interrupt context
    sw   t0, 24(sp)          #                                    [RoT]
    li   a0, 0x48000000      # PLIC base
    lw   t0, 4(a0)           # claim                              [SoC]
    call cfi_check
    li   a0, 0x48000000
    li   t0, 1
    sw   t0, 4(a0)           # complete                           [SoC]
    lw   t0, 24(sp)          # restore interrupt context          [RoT]
    csrw mepc, t0
    lw   ra, 0(sp)           # restore the 6 regs                 [RoT x6]
    lw   t0, 4(sp)
    lw   t1, 8(sp)
    lw   t2, 12(sp)
    lw   a0, 16(sp)
    lw   a1, 20(sp)
    addi sp, sp, 32
    mret
";

/// The busy-polling firmware top (paper §V-B "Polling" optimization).
const POLLING_TOP_ASM: &str = r"
_start:
    li   s0, 0xc0000000      # CFI mailbox base
poll_loop:
    lw   t0, 0x20(s0)        # doorbell                           [SoC]
    beqz t0, poll_loop
    call cfi_check
    j    poll_loop
";

/// The multi-core CFI policy: identical to [`CFI_CHECK_ASM`]'s shadow
/// stack, but the commit log carries the originating core's id in mailbox
/// word 7 and the firmware keeps one shadow-stack *bank per core* — the
/// paper's "multi-core hosts" future work (§VII). Bank records are 16
/// bytes: {ssp, limit, base, overflow-count}.
const CFI_CHECK_MC_ASM: &str = r"
# ---------------- CFI policy: per-core shadow stacks ----------------
cfi_begin:
cfi_check:
    li   a0, 0xc0000000      # CFI mailbox base
    lw   t0, 0(a0)           # commit log: uncompressed insn     [SoC]
    andi t1, t0, 0x7f
    addi t2, t1, -0x6f
    beqz t2, mc_handle_jal
    addi t2, t1, -0x67
    beqz t2, mc_handle_jalr
    j    mc_respond_ok

mc_handle_jal:
    srli t1, t0, 7
    andi t1, t1, 31
    addi t2, t1, -1
    beqz t2, mc_do_call
    addi t2, t1, -5
    beqz t2, mc_do_call
    j    mc_respond_ok

mc_handle_jalr:
    srli t1, t0, 7
    andi t1, t1, 31
    addi t2, t1, -1
    beqz t2, mc_do_call
    addi t2, t1, -5
    beqz t2, mc_do_call
    srli t1, t0, 15
    andi t1, t1, 31
    addi t2, t1, -1
    beqz t2, mc_do_ret
    addi t2, t1, -5
    beqz t2, mc_do_ret
    j    mc_respond_ok

mc_do_call:
    # a1 <- this core's bank record (16 bytes each, id in mailbox word 7)
    lw   t2, 28(a0)          # core id                           [SoC]
    andi t2, t2, 1           # two banks modelled
    slli t2, t2, 4
    la   a1, ssp_banks
    add  a1, a1, t2
    lw   t1, 12(a0)          # return address                    [SoC]
    lw   t2, 0(a1)           # bank ssp                          [RoT]
    sw   t1, 0(t2)           # push                              [RoT]
    addi t2, t2, 4
    sw   t2, 0(a1)           #                                   [RoT]
    lw   t1, 4(a1)           # bank limit                        [RoT]
    bltu t2, t1, mc_respond_ok
    lw   t1, 12(a1)          # overflow counter                  [RoT]
    addi t1, t1, 1
    sw   t1, 12(a1)
    j    mc_respond_ok

mc_do_ret:
    lw   t2, 28(a0)          # core id                           [SoC]
    andi t2, t2, 1
    slli t2, t2, 4
    la   a1, ssp_banks
    add  a1, a1, t2
    lw   t1, 20(a0)          # actual return target              [SoC]
    lw   t2, 0(a1)           # bank ssp                          [RoT]
    lw   t0, 8(a1)           # bank base                         [RoT]
    bleu t2, t0, mc_respond_violation
    addi t2, t2, -4
    sw   t2, 0(a1)
    lw   t0, 0(t2)           # expected                          [RoT]
    bne  t0, t1, mc_respond_violation
    j    mc_respond_ok

mc_respond_ok:
    li   t0, 0
    j    mc_respond
mc_respond_violation:
    li   t0, 1
mc_respond:
    sw   t0, 0(a0)           # verdict                           [SoC]
    li   t0, 1
    sw   t0, 0x24(a0)        # completion                        [SoC]
    ret
cfi_end:

# ---------------- per-core policy state ----------------
.align 4
ssp_banks:
ssp0:           .word ss0_base
ss0_limit_var:  .word ss0_limit
ss0_base_var:   .word ss0_base
ss0_overflows:  .word 0
ssp1:           .word ss1_base
ss1_limit_var:  .word ss1_limit
ss1_base_var:   .word ss1_base
ss1_overflows:  .word 0
.align 4
ss0_base:       .zero 2048
ss0_limit:
.align 4
ss1_base:       .zero 2048
ss1_limit:
";

/// Assembles the multi-core polling firmware (two shadow-stack banks,
/// core id in mailbox word 7).
///
/// # Panics
///
/// Panics if the embedded sources fail to assemble (a build-time bug).
#[must_use]
pub fn build_multicore_firmware() -> Program {
    let source = format!("{POLLING_TOP_ASM}\n{CFI_CHECK_MC_ASM}");
    assemble(&source, riscv_isa::Xlen::Rv32, map::SRAM_BASE)
        .expect("embedded multicore firmware must assemble")
}

/// Assembles the firmware for `kind`, based at the RoT scratchpad.
///
/// # Panics
///
/// Panics if the embedded sources fail to assemble (a build-time bug).
#[must_use]
pub fn build_firmware(kind: FirmwareKind) -> Program {
    let top = match kind {
        FirmwareKind::Irq => IRQ_TOP_ASM,
        FirmwareKind::Polling | FirmwareKind::Optimized => POLLING_TOP_ASM,
    };
    let source = format!("{top}\n{CFI_CHECK_ASM}");
    assemble(&source, riscv_isa::Xlen::Rv32, map::SRAM_BASE)
        .expect("embedded firmware must assemble")
}

/// Assembles the policy-suite firmware (shadow stack + landing pads + KCFI
/// behind enable flags) for `kind`.
///
/// # Panics
///
/// Panics if the embedded sources fail to assemble (a build-time bug).
#[must_use]
pub fn build_policy_firmware(kind: FirmwareKind) -> Program {
    let top = match kind {
        FirmwareKind::Irq => IRQ_TOP_ASM,
        FirmwareKind::Polling | FirmwareKind::Optimized => POLLING_TOP_ASM,
    };
    let source = format!("{top}\n{CFI_CHECK_POLICY_ASM}");
    assemble(&source, riscv_isa::Xlen::Rv32, map::SRAM_BASE)
        .expect("embedded policy firmware must assemble")
}

/// Result of checking one commit log in the RoT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckMeasurement {
    /// Control-flow class of the checked log.
    pub op: CfClass,
    /// Whether the policy flagged a violation.
    pub violation: bool,
    /// Full service latency in RoT cycles: doorbell assertion until the
    /// firmware is ready for the next log (back at `wfi`/poll loop). This
    /// is the per-check latency the paper's trace model emulates.
    pub latency: u64,
    /// The Table I cost matrix for this check.
    pub breakdown: Breakdown,
}

/// Runs the firmware on the OpenTitan model and measures checks.
#[derive(Debug)]
pub struct FirmwareRunner {
    rot: OpenTitan,
    kind: FirmwareKind,
    cfi_range: (u64, u64),
    poll_loop: u64,
    symbols: std::collections::BTreeMap<String, u64>,
    /// Total checks performed.
    pub checks: u64,
    /// Total violations flagged.
    pub violations: u64,
}

impl FirmwareRunner {
    /// Builds the RoT with the firmware for `kind` and boots it to its idle
    /// point (asleep on `wfi`, or spinning on the poll loop).
    ///
    /// # Panics
    ///
    /// Panics if the firmware fails to reach its idle point (a bug).
    #[must_use]
    pub fn new(kind: FirmwareKind) -> FirmwareRunner {
        FirmwareRunner::from_program(build_firmware(kind), kind)
    }

    /// Like [`FirmwareRunner::new`], but running the policy-suite firmware
    /// ([`build_policy_firmware`]): shadow stack, landing pads, and KCFI
    /// all present and individually enabled via the `policy_enable_*`
    /// methods (all off after boot).
    ///
    /// # Panics
    ///
    /// Panics if the firmware fails to reach its idle point (a bug).
    #[must_use]
    pub fn new_policy(kind: FirmwareKind) -> FirmwareRunner {
        FirmwareRunner::from_program(build_policy_firmware(kind), kind)
    }

    fn from_program(program: Program, kind: FirmwareKind) -> FirmwareRunner {
        let profile = match kind {
            FirmwareKind::Irq | FirmwareKind::Polling => LatencyProfile::baseline(),
            FirmwareKind::Optimized => LatencyProfile::optimized(),
        };
        let cfi_range = (
            program.symbol("cfi_begin").expect("cfi_begin symbol"),
            program.symbol("cfi_end").expect("cfi_end symbol"),
        );
        let poll_loop = program.symbol("poll_loop").unwrap_or(0);
        let symbols = program.symbols.clone();
        let rot = OpenTitan::new(&program, profile);
        let mut runner = FirmwareRunner {
            rot,
            kind,
            cfi_range,
            poll_loop,
            symbols,
            checks: 0,
            violations: 0,
        };
        runner.boot();
        runner
    }

    fn boot(&mut self) {
        match self.kind {
            FirmwareKind::Irq => {
                let (_, ev) = self.rot.core.run_until_idle(1_000_000);
                assert_eq!(
                    ev,
                    Some(ibex_model::IbexEvent::Asleep),
                    "IRQ firmware must park on wfi"
                );
            }
            FirmwareKind::Polling | FirmwareKind::Optimized => {
                // Run until the poll loop has been entered (first doorbell
                // read retired).
                for _ in 0..1_000 {
                    let c = self.rot.core.step().expect("boot step");
                    if c.retired.pc == self.poll_loop {
                        return;
                    }
                }
                panic!("polling firmware never reached the poll loop");
            }
        }
    }

    /// Direct access to the underlying RoT (for advanced scenarios).
    #[must_use]
    pub fn rot(&self) -> &OpenTitan {
        &self.rot
    }

    /// Enables or disables the RoT core's predecode fast path. Either
    /// setting yields identical check latencies and verdicts.
    pub fn set_predecode(&mut self, enabled: bool) {
        self.rot.core.set_predecode(enabled);
    }

    /// Submits one commit log to the mailbox and runs the firmware until it
    /// is ready for the next one, measuring cost and verdict.
    ///
    /// # Panics
    ///
    /// Panics if the firmware traps or exceeds a huge cycle budget.
    pub fn check(&mut self, log: &CommitLog) -> CheckMeasurement {
        // Host side: write the log words and ring the doorbell.
        let mailbox = self.rot.mailbox_mut();
        for (i, w) in log.to_words().iter().enumerate() {
            mailbox.host_write_data(i, *w);
        }
        mailbox.host_ring_doorbell();
        let start = self.rot.core.cycle();
        let mut breakdown = Breakdown::new();
        let mut costed = 0u64;
        let mut completion_seen = false;

        let budget = start + 1_000_000;
        loop {
            self.rot.sync_irq();
            match self.rot.core.step() {
                Ok(c) => {
                    let phase = if (self.cfi_range.0..self.cfi_range.1).contains(&c.retired.pc) {
                        Phase::Cfi
                    } else {
                        Phase::Irq
                    };
                    breakdown.record(phase, Category::from_access(c.mem_kind), c.cost);
                    costed += c.cost;
                    if !completion_seen && self.rot.mailbox().host_completion() {
                        completion_seen = true;
                    }
                    // Ready for next log?
                    if completion_seen {
                        let idle = match self.kind {
                            FirmwareKind::Irq => c.retired.wfi,
                            _ => c.retired.pc == self.poll_loop,
                        };
                        if idle {
                            break;
                        }
                    }
                }
                Err(ibex_model::IbexEvent::Asleep) => {
                    panic!("firmware went to sleep without completing the check")
                }
                Err(ibex_model::IbexEvent::Trapped(t)) => panic!("firmware trapped: {t}"),
            }
            assert!(
                self.rot.core.cycle() < budget,
                "firmware exceeded cycle budget"
            );
        }

        let latency = self.rot.core.cycle() - start;
        // Un-instrumented cycles (the IRQ wake latency) belong to IRQ/Logic.
        breakdown.add_cycles(Phase::Irq, Category::Logic, latency - costed);

        let mailbox = self.rot.mailbox_mut();
        let verdict = mailbox.host_read_data(0);
        mailbox.host_clear_completion();
        self.checks += 1;
        let violation = verdict != 0;
        if violation {
            self.violations += 1;
        }
        CheckMeasurement {
            op: log.cf_class(),
            violation,
            latency,
            breakdown,
        }
    }

    /// The variant this runner executes.
    #[must_use]
    pub fn kind(&self) -> FirmwareKind {
        self.kind
    }

    fn scratchpad_write(&mut self, addr: u64, value: u64) {
        self.rot
            .core
            .bus
            .write(addr, riscv_isa::MemWidth::W, value & 0xffff_ffff)
            .expect("policy state is in the scratchpad");
    }

    /// Enables the policy firmware's shadow stack (backward edges).
    ///
    /// # Panics
    ///
    /// Panics unless this runner was built with [`FirmwareRunner::new_policy`].
    pub fn policy_enable_shadow_stack(&mut self) {
        let addr = self.symbol("pol_ss_enabled");
        self.scratchpad_write(addr, 1);
    }

    /// Enables the policy firmware's landing-pad check (indirect calls and
    /// jumps must land on a registered pad).
    ///
    /// # Panics
    ///
    /// Panics unless this runner was built with [`FirmwareRunner::new_policy`].
    pub fn policy_enable_landing_pads(&mut self) {
        let addr = self.symbol("pol_lp_enabled");
        self.scratchpad_write(addr, 1);
    }

    /// Enables the policy firmware's KCFI type-hash check.
    ///
    /// # Panics
    ///
    /// Panics unless this runner was built with [`FirmwareRunner::new_policy`].
    pub fn policy_enable_kcfi(&mut self) {
        let addr = self.symbol("pol_kcfi_enabled");
        self.scratchpad_write(addr, 1);
    }

    /// Registers an `lpad` marker address in the policy firmware's
    /// direct-mapped landing-pad table.
    ///
    /// # Panics
    ///
    /// Panics unless this runner was built with [`FirmwareRunner::new_policy`].
    pub fn policy_register_landing_pad(&mut self, addr: u64) {
        let table = self.symbol("lp_table");
        let slot = (addr >> 2) & 1023;
        self.scratchpad_write(table + slot * 4, addr);
    }

    /// Instruments call site `pc` with an expected KCFI type hash.
    ///
    /// # Panics
    ///
    /// Panics unless this runner was built with [`FirmwareRunner::new_policy`].
    pub fn policy_register_kcfi_site(&mut self, pc: u64, hash: u32) {
        let table = self.symbol("kcfi_sites");
        let slot = (pc >> 2) & 511;
        self.scratchpad_write(table + slot * 8, pc);
        self.scratchpad_write(table + slot * 8 + 4, u64::from(hash));
    }

    /// Registers a function entry's KCFI type hash (the RoT-side mirror of
    /// the `[fn-4]` hash word).
    ///
    /// # Panics
    ///
    /// Panics unless this runner was built with [`FirmwareRunner::new_policy`].
    pub fn policy_register_kcfi_fn(&mut self, entry: u64, hash: u32) {
        let table = self.symbol("kcfi_fns");
        let slot = (entry >> 2) & 511;
        self.scratchpad_write(table + slot * 8, entry);
        self.scratchpad_write(table + slot * 8 + 4, u64::from(hash));
    }

    fn symbol(&self, name: &str) -> u64 {
        self.symbols
            .get(name)
            .copied()
            .unwrap_or_else(|| panic!("firmware symbol `{name}` missing"))
    }
}
