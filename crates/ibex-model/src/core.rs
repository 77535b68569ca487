//! The Ibex core model: RV32IMC execution with OpenTitan-like timing.
//!
//! Ibex is a 2-stage in-order microcontroller. The paper's Table I analysis
//! hinges on three timing properties the model reproduces:
//!
//! * data accesses pay the *bus latency of the region they touch* (RoT
//!   scratchpad ≈5 cycles, SoC/mailbox ≈12 cycles in the baseline
//!   OpenTitan; 1 and 8 in the "Optimized" interconnect variant),
//! * waking from `wfi` on an interrupt costs a fixed wake-up latency
//!   (45 cycles measured by the paper's RTL simulation),
//! * taken branches/jumps cost an extra fetch bubble, divides are iterative.

use crate::bus::{RegionKind, SystemBus};
use riscv_isa::{
    classify, predecode, CfClass, DecodeCache, DecodeCacheStats, Hart, Inst, MulOp, Retired, Trap,
    Xlen,
};
use titancfi_obs::{Probe, RetireSample};

/// Ibex timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IbexTiming {
    /// Cycles from doorbell interrupt assertion to the first handler
    /// instruction (paper §V-B: 45 cycles).
    pub irq_wake_latency: u64,
    /// Extra cycles for a taken branch or jump (refetch).
    pub taken_bubble: u64,
    /// Extra cycles for a divide/remainder.
    pub div_extra: u64,
}

impl Default for IbexTiming {
    fn default() -> IbexTiming {
        IbexTiming {
            irq_wake_latency: 45,
            taken_bubble: 1,
            div_extra: 37,
        }
    }
}

/// One retired Ibex instruction with its timing/annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IbexCommit {
    /// Cycle at which the instruction completed.
    pub cycle: u64,
    /// Architectural retirement record.
    pub retired: Retired,
    /// Cycles this instruction took.
    pub cost: u64,
    /// Region kind of the data access, when the instruction was a
    /// load/store — this drives the paper's Mem-RoT vs Mem-SoC split.
    pub mem_kind: Option<RegionKind>,
    /// CFI classification (for completeness; rarely needed on Ibex).
    pub cf_class: CfClass,
}

/// Execution state of the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IbexState {
    /// Fetching and executing.
    Running,
    /// Parked on `wfi` waiting for an interrupt.
    Sleeping,
}

/// Why a step could not retire an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IbexEvent {
    /// The core is asleep and no interrupt is pending.
    Asleep,
    /// Trap raised by the program.
    Trapped(Trap),
}

/// The Ibex core over a [`SystemBus`].
#[derive(Debug)]
pub struct IbexCore {
    /// Architectural hart (public for firmware runners to inspect).
    pub hart: Hart,
    /// The system bus (public so embedders can reach devices).
    pub bus: SystemBus,
    timing: IbexTiming,
    cycle: u64,
    state: IbexState,
    /// Count of interrupts taken.
    pub irqs_taken: u64,
    /// Predecoded instruction cache (fast path; architecturally invisible).
    decode_cache: DecodeCache,
    predecode: bool,
}

impl IbexCore {
    /// A core starting at `entry` over `bus`.
    #[must_use]
    pub fn new(bus: SystemBus, entry: u64, timing: IbexTiming) -> IbexCore {
        IbexCore {
            hart: Hart::new(Xlen::Rv32, entry),
            bus,
            timing,
            cycle: 0,
            state: IbexState::Running,
            irqs_taken: 0,
            decode_cache: DecodeCache::default(),
            predecode: predecode::fast_path_default(),
        }
    }

    /// Enables or disables the predecoded-instruction fast path. Disabling
    /// (or re-enabling) drops all cached entries; both settings retire the
    /// exact same architectural and cycle-level stream.
    pub fn set_predecode(&mut self, enabled: bool) {
        self.predecode = enabled;
        self.decode_cache.invalidate_all();
    }

    /// Resizes the decode cache (rounded up to a power of two, min 16; a
    /// cache already of that size is kept). The default covers
    /// kernel-sized firmware; embedders simulating many RoTs at once
    /// right-size down to the firmware actually booted. Architecturally
    /// invisible — entries re-predecode on demand.
    pub fn resize_caches(&mut self, decode_slots: usize) {
        self.decode_cache.resize(decode_slots);
    }

    /// Whether the predecode fast path is active.
    #[must_use]
    pub fn predecode_enabled(&self) -> bool {
        self.predecode
    }

    /// Drops every predecoded entry. Required after mutating instruction
    /// memory behind the hart's back (e.g. loading an image through
    /// `self.bus` directly); stores executed by the hart are tracked
    /// automatically.
    pub fn invalidate_decode_cache(&mut self) {
        self.decode_cache.invalidate_all();
    }

    /// Hit/miss/eviction counters of the predecode cache.
    #[must_use]
    pub fn decode_cache_stats(&self) -> DecodeCacheStats {
        self.decode_cache.stats()
    }

    /// Current cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Whether the core is parked on `wfi`.
    #[must_use]
    pub fn state(&self) -> IbexState {
        self.state
    }

    /// Raises (or clears) an interrupt-pending bit in `mip`.
    pub fn set_irq(&mut self, mip_bit: u64, level: bool) {
        if level {
            self.hart.csrs.mip |= mip_bit;
        } else {
            self.hart.csrs.mip &= !mip_bit;
        }
    }

    /// Advances the core's notion of time without executing (used when the
    /// core is slaved to an SoC-level clock).
    pub fn advance_to(&mut self, cycle: u64) {
        self.cycle = self.cycle.max(cycle);
    }

    /// Executes one instruction (or takes a pending interrupt / wakes up).
    ///
    /// # Errors
    ///
    /// Returns [`IbexEvent::Asleep`] when parked with no pending interrupt,
    /// or [`IbexEvent::Trapped`] when the program traps.
    pub fn step(&mut self) -> Result<IbexCommit, IbexEvent> {
        // Wake / interrupt entry.
        if self.state == IbexState::Sleeping {
            if self.hart.csrs.mip & self.hart.csrs.mie == 0 {
                return Err(IbexEvent::Asleep);
            }
            // WFI wakes regardless of mstatus.MIE; the handler is entered
            // only if interrupts are enabled (the firmware always runs with
            // them enabled while sleeping).
            self.cycle += self.timing.irq_wake_latency;
            self.state = IbexState::Running;
            if self.hart.take_interrupt().is_some() {
                self.irqs_taken += 1;
            }
        } else if self.hart.take_interrupt().is_some() {
            self.irqs_taken += 1;
            // Pipeline redirect into the handler.
            self.cycle += self.timing.taken_bubble;
        }

        let step_result = if self.predecode {
            self.hart
                .step_predecoded(&mut self.bus, &mut self.decode_cache)
        } else {
            self.hart
                .step(&mut self.bus)
                .map(|r| (r, classify(&r.decoded.inst)))
        };
        let (retired, cf_class) = match step_result {
            Ok(rc) => rc,
            Err(trap) => {
                // A trapped instruction charges nothing; drop any partial
                // access record so it cannot leak into a later retirement.
                self.bus.take_access();
                return Err(IbexEvent::Trapped(trap));
            }
        };
        let access = self.bus.take_access();
        let mut cost = 1;
        if let Some(info) = access {
            cost += info.cycles;
        }
        if let Inst::Mul { op, .. } = retired.decoded.inst {
            if matches!(op, MulOp::Div | MulOp::Divu | MulOp::Rem | MulOp::Remu) {
                cost += self.timing.div_extra;
            }
        }
        if retired.redirected() {
            cost += self.timing.taken_bubble;
        }
        if retired.wfi {
            self.state = IbexState::Sleeping;
        }

        self.cycle += cost;
        self.hart.csrs.mcycle = self.cycle;
        Ok(IbexCommit {
            cycle: self.cycle,
            retired,
            cost,
            mem_kind: access.map(|a| a.kind),
            cf_class,
        })
    }

    /// Like [`IbexCore::step`], but reports the retirement to `probe` —
    /// this is what feeds the exact firmware profiler in `titancfi-obs`.
    ///
    /// # Errors
    ///
    /// Same as [`IbexCore::step`].
    pub fn step_probed(&mut self, probe: &mut dyn Probe) -> Result<IbexCommit, IbexEvent> {
        let commit = self.step()?;
        if probe.enabled() {
            probe.retire(RetireSample {
                pc: commit.retired.pc,
                cost: commit.cost,
                cycle: commit.cycle,
                is_call: commit.cf_class == CfClass::Call,
                is_ret: commit.cf_class == CfClass::Return,
                target: commit.retired.target,
            });
        }
        Ok(commit)
    }

    /// Runs until the core goes to sleep, traps, or `max_cycles` elapse.
    ///
    /// Returns the retired instructions of this burst and the stopping event.
    #[must_use]
    pub fn run_until_idle(&mut self, max_cycles: u64) -> (Vec<IbexCommit>, Option<IbexEvent>) {
        let mut burst = Vec::new();
        while self.cycle < max_cycles {
            match self.step() {
                Ok(c) => {
                    let went_to_sleep = c.retired.wfi;
                    burst.push(c);
                    if went_to_sleep {
                        return (burst, Some(IbexEvent::Asleep));
                    }
                }
                Err(e) => return (burst, Some(e)),
            }
        }
        (burst, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{RegionKind, RegionLatency};
    use riscv_asm::assemble;
    use riscv_isa::{csr, Reg};

    fn system(src: &str) -> IbexCore {
        let prog = assemble(src, Xlen::Rv32, 0x10000).expect("assembles");
        let mut bus = SystemBus::new();
        bus.add_ram(
            0x10000,
            0x10000,
            RegionKind::RotPrivate,
            RegionLatency::symmetric(5),
        );
        bus.add_ram(
            0x8000_0000,
            0x10000,
            RegionKind::Soc,
            RegionLatency::symmetric(12),
        );
        bus.load(prog.base, &prog.bytes);
        let mut core = IbexCore::new(bus, prog.entry, IbexTiming::default());
        core.hart.set_reg(Reg::SP, 0x1fff0);
        core
    }

    #[test]
    fn rot_access_cheaper_than_soc_access() {
        let mut core = system(
            r"
            _start:
                li t0, 0x10800
                lw a0, 0(t0)        # RoT private: 5-cycle region
                li t1, 0x80000000
                lw a1, 0(t1)        # SoC: 12-cycle region
                ebreak
            ",
        );
        let mut costs = Vec::new();
        let mut kinds = Vec::new();
        loop {
            match core.step() {
                Ok(c) => {
                    if let Some(kind) = c.mem_kind {
                        costs.push(c.cost);
                        kinds.push(kind);
                    }
                }
                Err(IbexEvent::Trapped(Trap::Breakpoint)) => break,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert_eq!(kinds, vec![RegionKind::RotPrivate, RegionKind::Soc]);
        assert_eq!(costs[0], 1 + 5);
        assert_eq!(costs[1], 1 + 12);
    }

    #[test]
    fn wfi_sleep_and_irq_wake_costs_latency() {
        let mut core = system(
            r"
            _start:
                la t0, handler
                csrw mtvec, t0
                li t0, 0x800        # MIE.MEIE
                csrw mie, t0
                csrsi mstatus, 8    # MSTATUS.MIE
                wfi
                ebreak
            handler:
                li a0, 42
                mret
            ",
        );
        // Run to sleep.
        let (_, ev) = core.run_until_idle(100_000);
        assert_eq!(ev, Some(IbexEvent::Asleep));
        assert_eq!(core.state(), IbexState::Sleeping);
        let asleep_at = core.cycle();
        // No interrupt: still asleep.
        assert_eq!(core.step().unwrap_err(), IbexEvent::Asleep);
        // Post the external interrupt.
        core.set_irq(csr::MIX_MEIP, true);
        let first = core.step().expect("handler first inst");
        assert!(
            first.cycle >= asleep_at + IbexTiming::default().irq_wake_latency,
            "wake latency must be charged: {} vs {}",
            first.cycle,
            asleep_at
        );
        assert_eq!(core.irqs_taken, 1);
        // Handler runs li then mret, returning to the wfi's successor.
        let _li_done = first;
        let mret = core.step().expect("mret");
        assert_eq!(mret.retired.decoded.inst, Inst::Mret);
        assert_eq!(core.hart.reg(Reg::A0), 42);
        core.set_irq(csr::MIX_MEIP, false);
        // Falls through to ebreak.
        loop {
            match core.step() {
                Ok(_) => {}
                Err(IbexEvent::Trapped(Trap::Breakpoint)) => break,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
    }

    #[test]
    fn divide_is_iterative() {
        let mut core = system("_start: li a0, 100\nli a1, 7\ndiv a2, a0, a1\nebreak\n");
        let mut div_cost = 0;
        loop {
            match core.step() {
                Ok(c) => {
                    if matches!(c.retired.decoded.inst, Inst::Mul { .. }) {
                        div_cost = c.cost;
                    }
                }
                Err(IbexEvent::Trapped(Trap::Breakpoint)) => break,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(div_cost > 30, "divide should be iterative, got {div_cost}");
        assert_eq!(core.hart.reg(Reg::A2), 14);
    }

    #[test]
    fn step_probed_attributes_every_cycle() {
        let mut core = system(
            r"
            _start:
                jal ra, leaf
                ebreak
            leaf:
                li a0, 7
                ret
            ",
        );
        let mut symbols = std::collections::BTreeMap::new();
        symbols.insert("_start".to_string(), 0x10000);
        let mut rec = titancfi_obs::Recorder::new().with_profiler(&symbols);
        let mut cycles = 0;
        loop {
            match core.step_probed(&mut rec) {
                Ok(c) => cycles += c.cost,
                Err(IbexEvent::Trapped(Trap::Breakpoint)) => break,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        let profiler = rec.profiler.as_ref().expect("profiler attached");
        assert_eq!(profiler.total_cycles(), cycles);
        assert!(profiler.total_insts() >= 3, "jal + li + ret must retire");
    }

    #[test]
    fn advance_to_only_moves_forward() {
        let mut core = system("_start: ebreak\n");
        core.advance_to(100);
        assert_eq!(core.cycle(), 100);
        core.advance_to(50);
        assert_eq!(core.cycle(), 100);
    }
}
