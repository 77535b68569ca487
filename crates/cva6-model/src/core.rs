//! The CVA6 core model: architectural execution + commit-stream generation.
//!
//! [`Cva6Core`] couples the architectural [`Hart`] interpreter with the
//! CVA6 timing model (branch predictor and latencies, set by
//! [`TimingConfig`]) and emits one [`Commit`] record per retired instruction,
//! tagged with the commit cycle and commit port. This commit stream is what
//! the TitanCFI CFI filters observe (paper Fig. 1, right half).
//!
//! The core honours external *commit stalls*: the TitanCFI Queue Controller
//! inhibits the commit stage when the CFI queue is full (paper §IV-B2), which
//! this model expresses as extra cycles added before the next retirement.

use crate::timing::{TimingConfig, TimingModel};
use riscv_asm::Program;
use riscv_isa::{
    classify, decode, BlockCache, BlockCacheStats, Bus, CfClass, DecodeCache, DecodeCacheStats,
    FlatMemory, Hart, Retired, Trap, Xlen,
};

/// One instruction leaving the commit stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Commit {
    /// Cycle in which the instruction retired.
    pub cycle: u64,
    /// Commit port (0 or 1): CVA6 has two; port 1 is used when two
    /// instructions retire in the same cycle.
    pub port: u8,
    /// The architectural retirement record.
    pub retired: Retired,
    /// CFI classification of the instruction.
    pub cf_class: CfClass,
}

/// Aggregate execution counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Total cycles elapsed (including externally injected stalls).
    pub cycles: u64,
    /// Instructions retired.
    pub instret: u64,
    /// Retired control-flow instructions that are CFI-relevant
    /// (calls + returns + indirect jumps).
    pub cf_retired: u64,
    /// Cycles in which both commit ports retired (dual commit).
    pub dual_commits: u64,
    /// Stall cycles injected by the CFI back-pressure interface.
    pub cfi_stall_cycles: u64,
}

/// Why execution stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Halt {
    /// `ebreak` retired — the benchmark's exit convention.
    Breakpoint,
    /// `ecall` retired.
    Ecall,
    /// A trap the program cannot recover from.
    Fault(Trap),
    /// The cycle budget given to `run` was exhausted.
    Budget,
    /// The RoT firmware trapped while a CFI check was in flight and the
    /// fail-closed policy halted the host (co-sim outcome, not a CVA6
    /// architectural event — surfaced here so reports stay structured
    /// instead of panicking the simulation).
    FirmwareTrap(Trap),
}

/// The CVA6-like core model over a bus (flat RAM by default; the SoC layer
/// substitutes a bus with a PMP-protected mailbox window).
#[derive(Debug, Clone)]
pub struct Cva6Core<B: Bus = FlatMemory> {
    hart: Hart,
    mem: B,
    timing: TimingModel,
    cycle: u64,
    stats: CoreStats,
    /// Slack accumulated by multi-cycle instructions that the second commit
    /// port can use to pair a following single-cycle instruction.
    commit_slack: u64,
    last_commit_cycle: u64,
    /// Predecoded instruction cache (fast path; architecturally invisible).
    decode_cache: DecodeCache,
    predecode: bool,
    /// Superblock translation cache (block dispatch; architecturally
    /// invisible, keyed on the decode cache's invalidation generation).
    block_cache: BlockCache,
}

/// Result of dispatching one translated superblock via
/// [`Cva6Core::step_block`]. All but the final instruction are plain
/// straight-line commits (non-CFI-relevant, below the cycle bound) —
/// exactly the commits strict stepping would have fed to
/// `CfiFilter::note_straightline`. The final commit (or halt) is returned
/// for the embedder to apply its usual per-commit logic to.
#[derive(Debug, Clone, Copy)]
pub struct BlockStep {
    /// Instructions retired before the final one.
    pub straightline: u64,
    /// The final retired commit, or the halt that ended execution.
    pub result: Result<Commit, Halt>,
}

impl Cva6Core<FlatMemory> {
    /// Builds a core with `mem_size` bytes of RAM at the program's base,
    /// loads `program`, and points the hart at its entry.
    ///
    /// # Panics
    ///
    /// Panics if the program image does not fit in `mem_size`.
    #[must_use]
    pub fn new(program: &Program, mem_size: usize, timing: TimingConfig) -> Cva6Core {
        assert!(
            program.bytes.len() <= mem_size,
            "program ({} bytes) larger than memory ({mem_size})",
            program.bytes.len()
        );
        let mut mem = FlatMemory::new(program.base, mem_size);
        mem.load(program.base, &program.bytes);
        let mut hart = Hart::new(Xlen::Rv64, program.entry);
        // Stack at the top of RAM, ABI-aligned.
        hart.set_reg(
            riscv_isa::Reg::SP,
            (program.base + mem_size as u64 - 16) & !0xf,
        );
        Cva6Core {
            hart,
            mem,
            timing: TimingModel::new(timing),
            cycle: 0,
            stats: CoreStats::default(),
            commit_slack: 0,
            last_commit_cycle: 0,
            decode_cache: DecodeCache::default(),
            predecode: true,
            block_cache: BlockCache::default(),
        }
    }
}

impl<B: Bus> Cva6Core<B> {
    /// Builds a core over a caller-provided bus (already loaded with the
    /// program image), starting at `entry` with `sp` pre-set by the caller
    /// if needed.
    #[must_use]
    pub fn with_bus(bus: B, entry: u64, timing: TimingConfig) -> Cva6Core<B> {
        Cva6Core {
            hart: Hart::new(Xlen::Rv64, entry),
            mem: bus,
            timing: TimingModel::new(timing),
            cycle: 0,
            stats: CoreStats::default(),
            commit_slack: 0,
            last_commit_cycle: 0,
            decode_cache: DecodeCache::default(),
            predecode: true,
            block_cache: BlockCache::default(),
        }
    }

    /// Mutable access to the underlying bus.
    ///
    /// Callers that mutate *instruction* bytes through this handle must call
    /// [`Cva6Core::invalidate_decode_cache`] afterwards; stores executed by
    /// the hart itself are tracked automatically.
    pub fn bus_mut(&mut self) -> &mut B {
        &mut self.mem
    }

    /// Enables or disables the predecoded-instruction fast path. Disabling
    /// (or re-enabling) drops all cached entries; both settings retire the
    /// exact same architectural and cycle-level stream.
    pub fn set_predecode(&mut self, enabled: bool) {
        self.predecode = enabled;
        self.decode_cache.invalidate_all();
    }

    /// Resizes the decode and block caches (rounded up to powers of two,
    /// min 16 each; a cache already of that size is kept). The defaults
    /// cover kernel-sized images; a fleet of thousands of small-guest cores
    /// right-sizes down so per-core footprint — and the host cache
    /// pressure of simulating many cores on one machine — shrinks by an
    /// order of magnitude. Architecturally invisible, like the caches
    /// themselves: any entries are simply re-predecoded on demand.
    pub fn resize_caches(&mut self, decode_slots: usize, block_slots: usize) {
        self.decode_cache.resize(decode_slots);
        self.block_cache.resize(block_slots);
    }

    /// Drops every predecoded entry (required after mutating instruction
    /// memory behind the hart's back, e.g. via [`Cva6Core::bus_mut`]).
    pub fn invalidate_decode_cache(&mut self) {
        self.decode_cache.invalidate_all();
    }

    /// Hit/miss/eviction counters of the predecode cache.
    #[must_use]
    pub fn decode_cache_stats(&self) -> DecodeCacheStats {
        self.decode_cache.stats()
    }

    /// Mutable access to the architectural hart (register setup).
    pub fn hart_mut(&mut self) -> &mut Hart {
        &mut self.hart
    }

    /// Current cycle count.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Execution counters so far.
    #[must_use]
    pub fn stats(&self) -> CoreStats {
        let mut s = self.stats;
        s.cycles = self.cycle;
        s
    }

    /// Architectural register read (for checking benchmark results).
    #[must_use]
    pub fn reg(&self, r: riscv_isa::Reg) -> u64 {
        self.hart.reg(r)
    }

    /// Injects `cycles` of commit-stage stall (CFI queue back-pressure).
    pub fn stall(&mut self, cycles: u64) {
        self.cycle += cycles;
        self.stats.cfi_stall_cycles += cycles;
    }

    /// Delivers an external exception to the hart (the CFI Log Writer's
    /// violation exception, paper §IV-B3): saves `mepc`/`mcause`/`mtval`
    /// and vectors to `mtvec`, charging a pipeline-flush penalty.
    pub fn inject_exception(&mut self, cause: u64, tval: u64) {
        let hart = &mut self.hart;
        hart.csrs.mepc = hart.pc;
        hart.csrs.mcause = cause;
        hart.csrs.mtval = tval;
        // Mirror the interrupt-entry mstatus dance.
        let mie = hart.csrs.mstatus & riscv_isa::csr::MSTATUS_MIE;
        hart.csrs.mstatus &= !(riscv_isa::csr::MSTATUS_MIE | riscv_isa::csr::MSTATUS_MPIE);
        if mie != 0 {
            hart.csrs.mstatus |= riscv_isa::csr::MSTATUS_MPIE;
        }
        hart.pc = hart.csrs.mtvec & !0b11;
        self.cycle += 5; // flush penalty
    }

    /// Retires the next instruction and returns its commit record.
    ///
    /// # Errors
    ///
    /// Returns [`Halt`] when the program ends (`ebreak`/`ecall`) or faults.
    pub fn step(&mut self) -> Result<Commit, Halt> {
        let (retired, cf_class) = if self.predecode {
            match self
                .hart
                .step_predecoded(&mut self.mem, &mut self.decode_cache)
            {
                Ok(rc) => rc,
                Err(t) => return Err(halt_of(t)),
            }
        } else {
            match self.hart.step(&mut self.mem) {
                Ok(r) => {
                    let class = classify(&r.decoded.inst);
                    (r, class)
                }
                Err(t) => return Err(halt_of(t)),
            }
        };
        Ok(self.commit_one(retired, cf_class))
    }

    /// Applies the timing model and commit-port logic to one retired
    /// instruction — the commit half of [`Cva6Core::step`], shared with
    /// block dispatch so both paths produce bit-identical commit streams.
    fn commit_one(&mut self, retired: Retired, cf_class: CfClass) -> Commit {
        let cost = self.timing.cost(
            &retired.decoded.inst,
            cf_class,
            retired.redirected(),
            retired.next,
            retired.target,
        );

        // Dual-commit modelling: a multi-cycle instruction leaves younger
        // single-cycle instructions queued in the ROB; the second commit
        // port drains one of them in the same cycle.
        let port = if cost == 1 && self.commit_slack > 0 && self.cycle == self.last_commit_cycle {
            self.commit_slack -= 1;
            self.stats.dual_commits += 1;
            1
        } else {
            self.cycle += cost;
            self.commit_slack = (self.commit_slack + cost - 1).min(4);
            0
        };
        let commit_cycle = if port == 1 {
            self.last_commit_cycle
        } else {
            self.cycle
        };
        self.last_commit_cycle = commit_cycle;

        self.stats.instret += 1;
        if cf_class.is_cfi_relevant() {
            self.stats.cf_retired += 1;
        }
        // Keep the cycle CSR live so programs can read `cycle`/`mcycle`.
        self.hart.csrs.mcycle = self.cycle;
        Commit {
            cycle: commit_cycle,
            port,
            retired,
            cf_class,
        }
    }

    /// Translates the superblock starting at the current pc: a straight-line
    /// run of predecoded ops ending at (and including) the first
    /// control-flow instruction, capped at [`BlockCache::MAX_BLOCK_OPS`].
    /// Translation reads instruction bytes through the bus's side-effect-free
    /// fetch path and populates the decode cache along the way. Returns the
    /// arena span; zero-length when the entry word does not decode (the
    /// caller falls back to [`Cva6Core::step`], which raises the trap).
    fn translate_block(&mut self, entry: u64, generation: u64) -> (u32, u32) {
        let start = self.block_cache.begin();
        let mut pc = entry;
        for _ in 0..BlockCache::MAX_BLOCK_OPS {
            let op = match self.decode_cache.lookup(pc) {
                Some(op) => op,
                None => {
                    let Ok(word) = self.mem.fetch(pc) else { break };
                    let Ok(decoded) = decode(word, self.hart.xlen) else {
                        break;
                    };
                    self.decode_cache.insert(pc, decoded)
                }
            };
            self.block_cache.push(op);
            if op.cf_class != CfClass::None {
                break;
            }
            pc = pc.wrapping_add(u64::from(op.decoded.len));
        }
        self.block_cache.finish(entry, generation, start)
    }

    /// Dispatches one translated superblock: retires instructions from the
    /// block arena until something observable happens — a CFI-relevant
    /// commit, the `until` cycle bound, a trap — or the block ends for an
    /// internal reason (redirecting op, self-modifying store, block cap).
    /// Every instruction before the final one is a plain straight-line
    /// commit; the embedder applies its usual per-commit logic to the final
    /// one only.
    ///
    /// Requires the predecode fast path; behaviourally identical to calling
    /// [`Cva6Core::step`] `straightline + 1` times.
    pub fn step_block(&mut self, until: u64) -> BlockStep {
        let generation = self.decode_cache.generation();
        let entry = self.hart.pc;
        let (start, len) = match self.block_cache.lookup(entry, generation) {
            Some(span) => span,
            None => self.translate_block(entry, generation),
        };
        if len == 0 {
            // Undecodable entry word: let the plain path raise the trap.
            return BlockStep {
                straightline: 0,
                result: self.step(),
            };
        }
        for i in start..start + len {
            // Ops before `i` all retired without stopping the block.
            let straightline = u64::from(i - start);
            let op = self.block_cache.op(i);
            let retired = match self.hart.execute(&mut self.mem, op.decoded) {
                Ok(r) => r,
                Err(t) => {
                    return BlockStep {
                        straightline,
                        result: Err(halt_of(t)),
                    }
                }
            };
            if op.store_bytes != 0 {
                if let Some(addr) = retired.mem_addr {
                    self.decode_cache
                        .invalidate_store(addr, u64::from(op.store_bytes));
                }
            }
            let commit = self.commit_one(retired, op.cf_class);
            let last_in_block = i + 1 == start + len;
            // Observable block ends (mirror the strict batching loop) plus
            // internal ones: a redirecting op breaks the arena's pc chain,
            // and a self-modifying store (generation bump) makes the
            // remaining ops suspect.
            if last_in_block
                || commit.cf_class.is_cfi_relevant()
                || commit.cycle >= until
                || commit.retired.redirected()
                || self.decode_cache.generation() != generation
            {
                return BlockStep {
                    straightline,
                    result: Ok(commit),
                };
            }
        }
        unreachable!("block dispatch always returns at the final op");
    }

    /// Hit/miss/install counters of the superblock cache.
    #[must_use]
    pub fn block_cache_stats(&self) -> BlockCacheStats {
        self.block_cache.stats()
    }

    /// Runs until halt or `max_cycles`, collecting the full commit trace.
    ///
    /// Returns the trace and the halt reason.
    #[must_use]
    pub fn run(&mut self, max_cycles: u64) -> (Vec<Commit>, Halt) {
        let mut trace = Vec::new();
        loop {
            if self.cycle >= max_cycles {
                return (trace, Halt::Budget);
            }
            match self.step() {
                Ok(c) => trace.push(c),
                Err(halt) => return (trace, halt),
            }
        }
    }

    /// Runs to completion without recording the trace (counters only).
    /// Under the predecode fast path this dispatches whole superblocks;
    /// the counters are identical either way.
    #[must_use]
    pub fn run_silent(&mut self, max_cycles: u64) -> Halt {
        if self.predecode {
            loop {
                if self.cycle >= max_cycles {
                    return Halt::Budget;
                }
                if let Err(halt) = self.step_block(max_cycles).result {
                    return halt;
                }
            }
        }
        loop {
            if self.cycle >= max_cycles {
                return Halt::Budget;
            }
            if let Err(halt) = self.step() {
                return halt;
            }
        }
    }
}

fn halt_of(trap: Trap) -> Halt {
    match trap {
        Trap::Breakpoint => Halt::Breakpoint,
        Trap::Ecall => Halt::Ecall,
        t => Halt::Fault(t),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_asm::assemble;
    use riscv_isa::Reg;

    fn core_for(src: &str) -> Cva6Core {
        let prog = assemble(src, Xlen::Rv64, 0x8000_0000).expect("assembles");
        Cva6Core::new(&prog, 1 << 20, TimingConfig::default())
    }

    #[test]
    fn runs_small_loop_to_completion() {
        let mut core = core_for(
            r"
            _start:
                li a0, 10
                li a1, 0
            loop:
                add a1, a1, a0
                addi a0, a0, -1
                bnez a0, loop
                ebreak
            ",
        );
        let (trace, halt) = core.run(1_000_000);
        assert_eq!(halt, Halt::Breakpoint);
        assert_eq!(core.reg(Reg::A1), 55);
        assert!(!trace.is_empty());
        // Commit cycles are monotonic.
        for w in trace.windows(2) {
            assert!(w[1].cycle >= w[0].cycle, "commit cycles must not decrease");
        }
    }

    #[test]
    fn counts_calls_and_returns() {
        let mut core = core_for(
            r"
            _start:
                call f
                call f
                ebreak
            f:  ret
            ",
        );
        let (trace, halt) = core.run(10_000);
        assert_eq!(halt, Halt::Breakpoint);
        let calls = trace.iter().filter(|c| c.cf_class == CfClass::Call).count();
        let rets = trace
            .iter()
            .filter(|c| c.cf_class == CfClass::Return)
            .count();
        assert_eq!(calls, 2);
        assert_eq!(rets, 2);
        assert_eq!(core.stats().cf_retired, 4);
    }

    #[test]
    fn stall_inflates_cycles() {
        let mut a = core_for("_start: nop\nnop\nebreak\n");
        let mut b = core_for("_start: nop\nnop\nebreak\n");
        b.stall(100);
        let (_, _) = a.run(10_000);
        let (_, _) = b.run(10_000);
        assert_eq!(b.cycle() - a.cycle(), 100);
        assert_eq!(b.stats().cfi_stall_cycles, 100);
    }

    #[test]
    fn budget_halt() {
        let mut core = core_for("_start: j _start\n");
        let (_, halt) = core.run(50);
        assert_eq!(halt, Halt::Budget);
    }

    #[test]
    fn fault_reported_on_bad_memory() {
        let mut core = core_for("_start: li a0, 0x10\nld a1, 0(a0)\nebreak\n");
        let (_, halt) = core.run(10_000);
        assert!(matches!(halt, Halt::Fault(Trap::MemFault(_))), "{halt:?}");
    }

    #[test]
    fn dual_commits_happen_after_long_ops() {
        let mut core = core_for(
            r"
            _start:
                li a0, 100
                li a1, 7
            loop:
                div a2, a0, a1
                addi a0, a0, -1
                bnez a0, loop
                ebreak
            ",
        );
        let (trace, halt) = core.run(1_000_000);
        assert_eq!(halt, Halt::Breakpoint);
        assert!(
            trace.iter().any(|c| c.port == 1),
            "expected at least one dual commit after divides"
        );
    }

    #[test]
    fn predecode_on_and_off_produce_identical_traces() {
        let src = r"
            _start:
                li a0, 10
                li a1, 0
            loop:
                add a1, a1, a0
                addi a0, a0, -1
                bnez a0, loop
                call f
                ebreak
            f:  ret
            ";
        let mut fast = core_for(src);
        fast.set_predecode(true);
        let mut slow = core_for(src);
        slow.set_predecode(false);
        let (fast_trace, fast_halt) = fast.run(1_000_000);
        let (slow_trace, slow_halt) = slow.run(1_000_000);
        assert_eq!(fast_halt, slow_halt);
        assert_eq!(fast_trace, slow_trace, "commit streams must be identical");
        assert_eq!(fast.stats(), slow.stats());
        assert_eq!(fast.reg(Reg::A1), slow.reg(Reg::A1));
        assert!(
            fast.decode_cache_stats().hits > fast.decode_cache_stats().misses,
            "loop body must be served from the cache"
        );
        assert_eq!(slow.decode_cache_stats().hits, 0);
    }

    #[test]
    fn block_dispatch_matches_strict_stepping() {
        let src = r"
            _start:
                li a0, 10
                li a1, 0
            loop:
                add a1, a1, a0
                addi a0, a0, -1
                bnez a0, loop
                call f
                div a2, a1, a0
                ebreak
            f:  ret
            ";
        let mut strict = core_for(src);
        strict.set_predecode(true);
        let mut block = core_for(src);
        block.set_predecode(true);

        let mut strict_trace = Vec::new();
        let strict_halt = loop {
            match strict.step() {
                Ok(c) => strict_trace.push(c),
                Err(h) => break h,
            }
        };
        let mut block_trace = Vec::new();
        let block_halt = loop {
            let bs = block.step_block(u64::MAX);
            // Straight-line ops are invisible to the embedder; only replay
            // counts must line up, which CoreStats equality checks below.
            match bs.result {
                Ok(c) => {
                    for _ in 0..bs.straightline {
                        block_trace.push(None);
                    }
                    block_trace.push(Some(c));
                }
                Err(h) => {
                    for _ in 0..bs.straightline {
                        block_trace.push(None);
                    }
                    break h;
                }
            }
        };
        assert_eq!(strict_halt, block_halt);
        assert_eq!(strict_trace.len(), block_trace.len());
        for (s, b) in strict_trace.iter().zip(&block_trace) {
            if let Some(b) = b {
                assert_eq!(s, b, "block-terminal commits must match strict");
            }
        }
        assert_eq!(strict.stats(), block.stats());
        assert_eq!(strict.reg(Reg::A1), block.reg(Reg::A1));
        assert!(block.block_cache_stats().hits > 0, "loop re-enters blocks");
    }

    #[test]
    fn block_dispatch_respects_until_bound() {
        let mut core = core_for("_start: j _start\n");
        core.set_predecode(true);
        let halt = core.run_silent(50);
        assert_eq!(halt, Halt::Budget);
        assert!(core.cycle() >= 50 && core.cycle() < 70, "{}", core.cycle());
    }

    #[test]
    fn self_modifying_store_retranslates_block() {
        // Overwrite the instruction *after* the store with an ebreak; the
        // store's generation bump must end the block and force
        // retranslation, so the new bytes execute.
        let mut core = core_for(
            r"
            _start:
                la t0, patch
                li t1, 0x00100073   # ebreak encoding
                sw t1, 0(t0)
            patch:
                j _start
            ",
        );
        core.set_predecode(true);
        let halt = core.run_silent(10_000);
        assert_eq!(halt, Halt::Breakpoint, "patched ebreak must execute");
    }

    #[test]
    fn recursion_exercises_ras() {
        // fib(12) via naive recursion: deep call/return pairs.
        let mut core = core_for(
            r"
            _start:
                li a0, 12
                call fib
                ebreak
            fib:
                li t0, 2
                blt a0, t0, base
                addi sp, sp, -32
                sd ra, 0(sp)
                sd a0, 8(sp)
                addi a0, a0, -1
                call fib
                sd a0, 16(sp)
                ld a0, 8(sp)
                addi a0, a0, -2
                call fib
                ld t1, 16(sp)
                add a0, a0, t1
                ld ra, 0(sp)
                addi sp, sp, 32
                ret
            base:
                ret
            ",
        );
        let (_, halt) = core.run(10_000_000);
        assert_eq!(halt, Halt::Breakpoint);
        assert_eq!(core.reg(Reg::A0), 144);
        assert!(core.stats().cf_retired > 100);
    }
}
