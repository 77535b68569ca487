//! Sampling-free firmware profiler.
//!
//! The Ibex model retires one instruction at a time with an exact cycle
//! cost, so instead of statistical sampling we attribute *every* firmware
//! cycle to its program counter. PCs resolve to the nearest symbol at or
//! below them, call/return retirements maintain a shadow call stack, and
//! the result renders two ways: a hot-spot table (per-symbol cycles) and
//! collapsed-stack lines that `flamegraph.pl` / `inferno` consume
//! directly.

use crate::probe::RetireSample;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Exact per-PC cycle attribution for the RoT firmware.
#[derive(Debug, Clone)]
pub struct FirmwareProfiler {
    /// Symbol table as sorted `(address, name)` pairs for range lookup.
    symbols: Vec<(u64, String)>,
    /// Per-PC `(instructions, cycles)`.
    by_pc: BTreeMap<u64, (u64, u64)>,
    /// Cycles per collapsed call stack (`root;leaf` keys).
    by_stack: BTreeMap<String, u64>,
    /// The shadow call stack, as symbol names.
    stack: Vec<String>,
    /// Total cycles attributed.
    total_cycles: u64,
    /// Total instructions retired.
    total_insts: u64,
}

impl FirmwareProfiler {
    /// A profiler resolving PCs against the given symbol table (name →
    /// address, as `riscv_asm::Program::symbols` provides it).
    #[must_use]
    pub fn new(symbols: &BTreeMap<String, u64>) -> FirmwareProfiler {
        let mut sorted: Vec<(u64, String)> = symbols
            .iter()
            .map(|(name, &addr)| (addr, name.clone()))
            .collect();
        sorted.sort();
        FirmwareProfiler {
            symbols: sorted,
            by_pc: BTreeMap::new(),
            by_stack: BTreeMap::new(),
            stack: Vec::new(),
            total_cycles: 0,
            total_insts: 0,
        }
    }

    /// Resolves a PC to the nearest symbol at or below it.
    #[must_use]
    pub fn resolve(&self, pc: u64) -> &str {
        match self.symbols.partition_point(|&(addr, _)| addr <= pc) {
            0 => "<unknown>",
            i => &self.symbols[i - 1].1,
        }
    }

    /// Attributes one retired instruction.
    pub fn record(&mut self, sample: RetireSample) {
        self.total_insts += 1;
        self.total_cycles += sample.cost;
        let entry = self.by_pc.entry(sample.pc).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += sample.cost;

        // Cycles are charged to the frame executing the instruction —
        // before a call pushes the callee, after a return still in the
        // returning frame (the pop happens below).
        let frame = self.resolve(sample.pc).to_string();
        let mut key = self.stack.join(";");
        if key.is_empty() {
            key = frame.clone();
        } else if self.stack.last() != Some(&frame) {
            key.push(';');
            key.push_str(&frame);
        }
        *self.by_stack.entry(key).or_insert(0) += sample.cost;

        if sample.is_call {
            let callee = self.resolve(sample.target).to_string();
            if self.stack.last() != Some(&frame) {
                self.stack.push(frame);
            }
            self.stack.push(callee);
        } else if sample.is_ret {
            self.stack.pop();
        }
    }

    /// Total cycles attributed across all samples.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Total instructions retired.
    #[must_use]
    pub fn total_insts(&self) -> u64 {
        self.total_insts
    }

    /// Per-symbol `(cycles, instructions)`, heaviest first.
    #[must_use]
    pub fn hot_spots(&self) -> Vec<(String, u64, u64)> {
        let mut per_symbol: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for (&pc, &(insts, cycles)) in &self.by_pc {
            let entry = per_symbol.entry(self.resolve(pc)).or_insert((0, 0));
            entry.0 += cycles;
            entry.1 += insts;
        }
        let mut rows: Vec<(String, u64, u64)> = per_symbol
            .into_iter()
            .map(|(name, (cycles, insts))| (name.to_string(), cycles, insts))
            .collect();
        // Heaviest first; name breaks ties so output is deterministic.
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        rows
    }

    /// Collapsed-stack lines (`frameA;frameB cycles`), one per distinct
    /// stack, sorted by stack name — the input format of
    /// `flamegraph.pl` and `inferno-flamegraph`.
    #[must_use]
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for (stack, cycles) in &self.by_stack {
            let _ = writeln!(out, "{stack} {cycles}");
        }
        out
    }

    /// Human-readable hot-spot table.
    #[must_use]
    pub fn report(&self, top: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "firmware profile: {} instructions, {} cycles",
            self.total_insts, self.total_cycles
        );
        let _ = writeln!(
            out,
            "{:<24} {:>12} {:>8} {:>10}",
            "symbol", "cycles", "%", "insts"
        );
        for (name, cycles, insts) in self.hot_spots().into_iter().take(top) {
            let pct = if self.total_cycles == 0 {
                0.0
            } else {
                100.0 * cycles as f64 / self.total_cycles as f64
            };
            let _ = writeln!(out, "{name:<24} {cycles:>12} {pct:>7.1}% {insts:>10}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn symbols() -> BTreeMap<String, u64> {
        let mut s = BTreeMap::new();
        s.insert("main".to_string(), 0x100);
        s.insert("check".to_string(), 0x200);
        s.insert("push".to_string(), 0x300);
        s
    }

    fn sample(pc: u64, cost: u64) -> RetireSample {
        RetireSample {
            pc,
            cost,
            cycle: 0,
            is_call: false,
            is_ret: false,
            target: 0,
        }
    }

    #[test]
    fn resolves_nearest_symbol_below() {
        let p = FirmwareProfiler::new(&symbols());
        assert_eq!(p.resolve(0x100), "main");
        assert_eq!(p.resolve(0x1fc), "main");
        assert_eq!(p.resolve(0x204), "check");
        assert_eq!(p.resolve(0x50), "<unknown>");
    }

    #[test]
    fn cycles_attributed_exactly() {
        let mut p = FirmwareProfiler::new(&symbols());
        p.record(sample(0x100, 3));
        p.record(sample(0x104, 2));
        p.record(sample(0x200, 5));
        assert_eq!(p.total_cycles(), 10);
        assert_eq!(p.total_insts(), 3);
        let hot = p.hot_spots();
        assert_eq!(hot[0], ("check".to_string(), 5, 1));
        assert_eq!(hot[1], ("main".to_string(), 5, 2));
    }

    #[test]
    fn shadow_stack_builds_collapsed_output() {
        let mut p = FirmwareProfiler::new(&symbols());
        // main executes, calls check; check executes, returns; main again.
        p.record(RetireSample {
            pc: 0x100,
            cost: 1,
            cycle: 1,
            is_call: true,
            is_ret: false,
            target: 0x200,
        });
        p.record(sample(0x200, 4));
        p.record(RetireSample {
            pc: 0x210,
            cost: 1,
            cycle: 6,
            is_call: false,
            is_ret: true,
            target: 0,
        });
        p.record(sample(0x104, 2));
        let collapsed = p.collapsed();
        assert!(collapsed.contains("main;check 5"), "got:\n{collapsed}");
        assert!(collapsed.contains("main 3"), "got:\n{collapsed}");
        // Total cycles across all stacks equals total attributed.
        let summed: u64 = collapsed
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(summed, p.total_cycles());
    }

    #[test]
    fn report_lists_percentages() {
        let mut p = FirmwareProfiler::new(&symbols());
        p.record(sample(0x300, 10));
        let text = p.report(5);
        assert!(text.contains("push"));
        assert!(text.contains("100.0%"));
    }
}
