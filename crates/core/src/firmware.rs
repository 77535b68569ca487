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
//!
//! One emitter writes every image's check routine from shared fragments.
//! Two options extend the Table I routine: one shadow-stack bank per host
//! core ([`build_multicore_firmware`], the paper's §VII multi-core hosts),
//! and the policy suite ([`FirmwareRunner::new_policy`]: landing pads and
//! KCFI type hashes beside the shadow stack, each behind an enable flag).
//! Every image boots through [`boot`], for the [`FirmwareRunner`] and the
//! SoC alike.

use crate::accounting::{Breakdown, Category, Phase};
use crate::commit_log::CommitLog;
use ibex_model::IbexEvent;
use opentitan_model::rot::{map, LatencyProfile};
use opentitan_model::OpenTitan;
use riscv_asm::{assemble, Program};
use riscv_isa::{Bus as _, CfClass};
use std::fmt::Write as _;

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

/// Return-address slots of the shadow stack, split evenly across its banks.
const SS_SLOTS: u64 = 1024;
/// Slots of the suite's direct-mapped landing-pad table (4-byte entries),
/// slot = `(target >> 2) % LP_SLOTS`.
const LP_SLOTS: u64 = 1024;
/// Slots of each of the suite's two direct-mapped KCFI tables (8-byte
/// entries), slot = `(addr >> 2) % KCFI_SLOTS`: `kcfi_sites` holds
/// `{site_pc, expected_hash}` and `kcfi_fns` holds `{fn_addr, type_hash}`,
/// the RoT's provisioned mirror of the `[fn-4]` hash words.
const KCFI_SLOTS: u64 = 512;

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

/// Assembles the image for `kind` whose check routine keeps `banks` shadow
/// stacks (one, or two picked by mailbox word 7), with the landing-pad +
/// KCFI suite beside them when `suite` is set.
///
/// The routine is the shadow stack of paper §IV-C: calls push the return
/// address, returns pop and compare, and a plain indirect jump passes
/// unchecked unless the suite checks its landing pad. Register budget:
/// `t0`-`t2`, `a0`, `a1` (the registers the IRQ prologue spills) plus
/// `ra`. The commit-log field offsets match [`CommitLog::to_words`].
/// Addresses are compared on their low 32 bits — the reference SoC's
/// physical address space fits in 32 bits.
fn emit(kind: FirmwareKind, banks: u64, suite: bool) -> Program {
    let top = match kind {
        FirmwareKind::Irq => IRQ_TOP_ASM,
        FirmwareKind::Polling | FirmwareKind::Optimized => POLLING_TOP_ASM,
    };
    let (icall, ijump, forward_edge, ss_enabled) = if suite {
        let ss_enabled = enabled("pol_ss_enabled", "respond_ok");
        ("do_icall", "do_ijump", forward_edge_suite(), ss_enabled)
    } else {
        ("do_call", "respond_ok", String::new(), String::new())
    };
    let push_load = load_and_select(banks, "lw   t1, 12(a0)          # return address  [SoC]");
    let pop_load = load_and_select(banks, "lw   t1, 20(a0)          # return target   [SoC]");
    let state = policy_state(banks, suite);
    let source = format!(
        r"{top}
# ---------------- CFI check: decode ----------------
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
    beqz t2, {icall}
    addi t2, t1, -5
    beqz t2, {icall}
    srli t1, t0, 15
    andi t1, t1, 31          # rs1
    addi t2, t1, -1
    beqz t2, do_ret
    addi t2, t1, -5
    beqz t2, do_ret
    j    {ijump}             # plain indirect jump: not a return
{forward_edge}
# ---------------- shadow stack ----------------
do_call:
{ss_enabled}{push_load}
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
{ss_enabled}{pop_load}
    lw   t2, 0(a1)           # shadow stack pointer              [RoT]
    lw   t0, 8(a1)           # stack base                        [RoT]
    bleu t2, t0, respond_violation   # pop from empty stack
    addi t2, t2, -4
    sw   t2, 0(a1)           # update pointer                    [RoT]
    lw   t0, 0(t2)           # expected return address           [RoT]
    bne  t0, t1, respond_violation
    j    respond_ok

# ---------------- verdict ----------------
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
{state}"
    );
    assemble(&source, riscv_isa::Xlen::Rv32, map::SRAM_BASE)
        .expect("embedded firmware must assemble")
}

/// Skips to `skip` unless the suite's `flag` word is set.
fn enabled(flag: &str, skip: &str) -> String {
    format!(
        "    la   a1, {flag}
    lw   t1, 0(a1)           #                                   [RoT]
    beqz t1, {skip}
"
    )
}

/// The mailbox `load` into `t1`, and `a1` pointed at the logging core's
/// shadow-stack record. One stack loads first; two banks select first, by
/// the core id in mailbox word 7, over 16-byte records.
fn load_and_select(banks: u64, load: &str) -> String {
    match banks {
        1 => format!("    {load}\n    la   a1, ssp0"),
        2 => format!(
            "    lw   t2, 28(a0)          # core id                           [SoC]
    andi t2, t2, 1           # two banks
    slli t2, t2, 4
    la   a1, ssp0
    add  a1, a1, t2
    {load}"
        ),
        _ => panic!("the bank select models one or two banks, not {banks}"),
    }
}

/// The suite's forward edges. An indirect call must land on the pad
/// registered in its slot, then match its site's expected KCFI type hash
/// (an uninstrumented site skips the hash), then pushes; a plain indirect
/// jump checks its landing pad only.
fn forward_edge_suite() -> String {
    let (icall_pad, ijump_pad) = (landing_pad("do_icall_kcfi"), landing_pad("respond_ok"));
    let kcfi_enabled = enabled("pol_kcfi_enabled", "do_call");
    let mask = KCFI_SLOTS - 1;
    format!(
        r"
# ---------------- forward edges: landing pads + KCFI ----------------
do_icall:
{icall_pad}do_icall_kcfi:
{kcfi_enabled}    lw   t1, 4(a0)           # call-site pc (low word)           [SoC]
    srli t2, t1, 2           # slot of 8-byte entries
    li   t0, {mask}
    and  t2, t2, t0
    slli t2, t2, 3
    la   t0, kcfi_sites
    add  t0, t0, t2
    lw   t2, 0(t0)           # stored site pc                    [RoT]
    bne  t2, t1, do_call     # site not instrumented: skip
    lw   t0, 4(t0)           # expected type hash                [RoT]
    lw   t1, 20(a0)          # actual call target                [SoC]
    srli t2, t1, 2
    li   a1, {mask}
    and  t2, t2, a1
    slli t2, t2, 3
    la   a1, kcfi_fns
    add  a1, a1, t2
    lw   t2, 0(a1)           # stored fn address                 [RoT]
    bne  t2, t1, respond_violation  # target carries no type hash
    lw   t2, 4(a1)           # fn type hash                      [RoT]
    bne  t2, t0, respond_violation  # wrong type
    j    do_call

do_ijump:
{ijump_pad}    j    respond_ok
"
    )
}

/// The landing-pad check: the target must be the pad registered in its
/// slot. Skips to `skip` while the check is disabled.
fn landing_pad(skip: &str) -> String {
    let enabled = enabled("pol_lp_enabled", skip);
    let mask = LP_SLOTS - 1;
    format!(
        "{enabled}    lw   t1, 20(a0)          # actual target                     [SoC]
    srli t2, t1, 2
    li   t0, {mask}
    and  t2, t2, t0
    slli t2, t2, 2
    la   t0, lp_table
    add  t2, t2, t0
    lw   t2, 0(t2)           # registered pad in the slot        [RoT]
    bne  t2, t1, respond_violation
"
    )
}

/// The policy state in the RoT scratchpad: the suite's enable flags, one
/// `{ssp, limit, base, overflow-count}` record per bank, the banks'
/// stacks, then the suite's tables.
fn policy_state(banks: u64, suite: bool) -> String {
    let mut s = String::from(
        "\n# ---------------- policy state (RoT scratchpad) ----------------\n.align 4\n",
    );
    if suite {
        s.push_str("pol_ss_enabled: .word 0\npol_lp_enabled: .word 0\npol_kcfi_enabled: .word 0\n");
    }
    for b in 0..banks {
        let _ = writeln!(s, "ssp{b}: .word ss{b}_base, ss{b}_limit, ss{b}_base, 0");
    }
    for b in 0..banks {
        let _ = writeln!(
            s,
            ".align 4\nss{b}_base: .zero {}\nss{b}_limit:",
            4 * SS_SLOTS / banks
        );
    }
    if suite {
        for (table, bytes) in [
            ("lp_table", 4 * LP_SLOTS),
            ("kcfi_sites", 8 * KCFI_SLOTS),
            ("kcfi_fns", 8 * KCFI_SLOTS),
        ] {
            let _ = writeln!(s, ".align 4\n{table}: .zero {bytes}");
        }
    }
    s
}

/// Assembles the multi-core polling firmware: two shadow-stack banks, the
/// logging core's id in mailbox word 7.
///
/// # Panics
///
/// Panics if the embedded sources fail to assemble (a build-time bug).
#[must_use]
pub fn build_multicore_firmware() -> Program {
    emit(FirmwareKind::Polling, 2, false)
}

/// Assembles the Table I firmware for `kind`, based at the RoT scratchpad.
///
/// # Panics
///
/// Panics if the embedded sources fail to assemble (a build-time bug).
#[must_use]
pub fn build_firmware(kind: FirmwareKind) -> Program {
    emit(kind, 1, false)
}

/// A RoT booted to its idle point, with the addresses the host side reads.
#[derive(Debug)]
pub struct BootedRot {
    /// The RoT, asleep on `wfi` (IRQ) or spinning on the poll loop.
    pub rot: OpenTitan,
    /// `[cfi_begin, cfi_end)`: the check routine, for phase attribution.
    pub cfi_range: (u64, u64),
    /// The poll loop's address; zero for the IRQ firmware.
    pub poll_loop: u64,
}

/// Loads `image` into a RoT on `kind`'s latency profile and boots it to
/// its idle point: asleep on `wfi` for [`FirmwareKind::Irq`], else the
/// first retirement at `poll_loop`. The RoT's decode cache holds one slot
/// per halfword of the code, `[image.base, cfi_end)`: conflict-free under
/// its `(pc >> 1) & mask` index.
///
/// # Panics
///
/// Panics if the image lacks `cfi_begin`, `cfi_end` or (polling kinds)
/// `poll_loop`, or if the firmware traps or fails to reach its idle point.
#[must_use]
pub fn boot(image: &Program, kind: FirmwareKind) -> BootedRot {
    let symbol = |name: &str| {
        image
            .symbol(name)
            .unwrap_or_else(|| panic!("firmware symbol `{name}` missing"))
    };
    let profile = match kind {
        FirmwareKind::Irq | FirmwareKind::Polling => LatencyProfile::baseline(),
        FirmwareKind::Optimized => LatencyProfile::optimized(),
    };
    let cfi_range = (symbol("cfi_begin"), symbol("cfi_end"));
    let code_halfwords = (cfi_range.1 - image.base) / 2;
    let mut rot = OpenTitan::new(image, profile, code_halfwords as usize);
    let poll_loop = match kind {
        FirmwareKind::Irq => {
            let (_, ev) = rot.core.run_until_idle(1_000_000);
            assert_eq!(ev, Some(IbexEvent::Asleep), "IRQ firmware must park on wfi");
            0
        }
        FirmwareKind::Polling | FirmwareKind::Optimized => {
            let poll_loop = symbol("poll_loop");
            // Idle once the poll loop has been entered (first doorbell read
            // retired).
            let entered =
                (0..1_000).any(|_| rot.core.step().expect("boot step").retired.pc == poll_loop);
            assert!(entered, "polling firmware never reached the poll loop");
            poll_loop
        }
    };
    BootedRot {
        rot,
        cfi_range,
        poll_loop,
    }
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
        FirmwareRunner::from_image(build_firmware(kind), kind)
    }

    /// Like [`FirmwareRunner::new`], but running the policy-suite firmware:
    /// shadow stack, landing pads, and KCFI all present and individually
    /// enabled via the `policy_enable_*` methods (all off after boot).
    ///
    /// # Panics
    ///
    /// Panics if the firmware fails to reach its idle point (a bug).
    #[must_use]
    pub fn new_policy(kind: FirmwareKind) -> FirmwareRunner {
        FirmwareRunner::from_image(emit(kind, 1, true), kind)
    }

    fn from_image(image: Program, kind: FirmwareKind) -> FirmwareRunner {
        let BootedRot {
            rot,
            cfi_range,
            poll_loop,
        } = boot(&image, kind);
        FirmwareRunner {
            rot,
            kind,
            cfi_range,
            poll_loop,
            symbols: image.symbols,
            checks: 0,
            violations: 0,
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
                Err(IbexEvent::Asleep) => {
                    panic!("firmware went to sleep without completing the check")
                }
                Err(IbexEvent::Trapped(t)) => panic!("firmware trapped: {t}"),
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
        let slot = (addr >> 2) % LP_SLOTS;
        self.scratchpad_write(table + slot * 4, addr);
    }

    /// Instruments call site `pc` with an expected KCFI type hash.
    ///
    /// # Panics
    ///
    /// Panics unless this runner was built with [`FirmwareRunner::new_policy`].
    pub fn policy_register_kcfi_site(&mut self, pc: u64, hash: u32) {
        let table = self.symbol("kcfi_sites");
        let slot = (pc >> 2) % KCFI_SLOTS;
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
        let slot = (entry >> 2) % KCFI_SLOTS;
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

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a, 64-bit, with the standard offset basis and prime.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Every image, byte for byte, with the symbols the host side reads.
    /// For the Table I images the list is every symbol below `cfi_end`:
    /// the firmware profiler resolves PCs to these names, so they are the
    /// frames of `--bin trace --collapsed`. Addresses are offsets from the
    /// scratchpad base. Every cycle pin downstream follows from these.
    #[test]
    fn images_and_symbols_are_pinned() {
        let table1_irq: &[(&str, u64)] = &[
            ("_start", 0x00),
            ("main_loop", 0x1c),
            ("irq_handler", 0x24),
            ("cfi_begin", 0x88),
            ("cfi_check", 0x88),
            ("handle_jal", 0xa8),
            ("handle_jalr", 0xc4),
            ("do_call", 0xf8),
            ("do_ret", 0x12c),
            ("respond_ok", 0x158),
            ("respond_violation", 0x160),
            ("respond", 0x164),
            ("cfi_end", 0x174),
        ];
        let table1_polling: &[(&str, u64)] = &[
            ("_start", 0x00),
            ("poll_loop", 0x04),
            ("cfi_begin", 0x14),
            ("cfi_check", 0x14),
            ("handle_jal", 0x34),
            ("handle_jalr", 0x50),
            ("do_call", 0x84),
            ("do_ret", 0xb8),
            ("respond_ok", 0xe4),
            ("respond_violation", 0xec),
            ("respond", 0xf0),
            ("cfi_end", 0x100),
        ];
        let suite_irq: &[(&str, u64)] = &[
            ("cfi_begin", 0x88),
            ("cfi_end", 0x278),
            ("pol_ss_enabled", 0x280),
            ("pol_lp_enabled", 0x284),
            ("pol_kcfi_enabled", 0x288),
            ("lp_table", 0x12a0),
            ("kcfi_sites", 0x22a0),
            ("kcfi_fns", 0x32a0),
        ];
        let suite_polling: &[(&str, u64)] = &[
            ("poll_loop", 0x04),
            ("cfi_begin", 0x14),
            ("cfi_end", 0x204),
            ("pol_ss_enabled", 0x210),
            ("pol_lp_enabled", 0x214),
            ("pol_kcfi_enabled", 0x218),
            ("lp_table", 0x1230),
            ("kcfi_sites", 0x2230),
            ("kcfi_fns", 0x3230),
        ];
        let multicore: &[(&str, u64)] =
            &[("poll_loop", 0x04), ("cfi_begin", 0x14), ("cfi_end", 0x120)];
        let images = [
            (
                "Table I IRQ",
                build_firmware(FirmwareKind::Irq),
                4496,
                0x316b_0eb7_74a9_6120,
                table1_irq,
            ),
            (
                "Table I Polling",
                build_firmware(FirmwareKind::Polling),
                4368,
                0x31ed_8daa_935a_4d0f,
                table1_polling,
            ),
            (
                "Table I Optimized",
                build_firmware(FirmwareKind::Optimized),
                4368,
                0x31ed_8daa_935a_4d0f,
                table1_polling,
            ),
            (
                "suite IRQ",
                emit(FirmwareKind::Irq, 1, true),
                17056,
                0xf49b_5d32_4e0e_f063,
                suite_irq,
            ),
            (
                "suite Polling",
                emit(FirmwareKind::Polling, 1, true),
                16944,
                0x2471_b07a_49a9_8c0e,
                suite_polling,
            ),
            (
                "suite Optimized",
                emit(FirmwareKind::Optimized, 1, true),
                16944,
                0x2471_b07a_49a9_8c0e,
                suite_polling,
            ),
            (
                "multi-core",
                build_multicore_firmware(),
                4416,
                0xf56a_9342_2bb7_10f7,
                multicore,
            ),
        ];
        for (name, image, len, hash, symbols) in images {
            assert_eq!(image.base, map::SRAM_BASE, "{name}");
            assert_eq!(
                (image.bytes.len(), fnv1a64(&image.bytes)),
                (len, hash),
                "{name}"
            );
            for &(symbol, offset) in symbols {
                assert_eq!(
                    image.symbol(symbol),
                    Some(map::SRAM_BASE + offset),
                    "{name}: {symbol}"
                );
            }
            if name.starts_with("Table I") {
                let cfi_end = image.symbol("cfi_end").expect("cfi_end");
                let below = image.symbols.values().filter(|&&a| a < cfi_end).count();
                assert_eq!(below + 1, symbols.len(), "{name}: symbols below cfi_end");
            }
        }
    }

    /// A polling image that spins before its poll loop fails to boot. The
    /// runner and the SoC share this boot, so both refuse it.
    #[test]
    #[should_panic(expected = "polling firmware never reached the poll loop")]
    fn polling_firmware_that_never_polls_fails_to_boot() {
        let spin = assemble(
            "_start:\n j _start\npoll_loop:\n j poll_loop\ncfi_begin:\ncfi_end:\n",
            riscv_isa::Xlen::Rv32,
            map::SRAM_BASE,
        )
        .expect("assembles");
        let _ = boot(&spin, FirmwareKind::Polling);
    }
}
