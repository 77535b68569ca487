//! The TitanCFI evaluation harness: regenerates every table of the paper.
//!
//! Each `tableN` function reproduces the corresponding artifact of the
//! paper's evaluation section and returns it as formatted text; the
//! `table1`..`table4` binaries print them. `EXPERIMENTS.md` records the
//! paper-vs-measured comparison these functions produce.
//!
//! | Function | Paper artifact | Method |
//! |---|---|---|
//! | [`table1`] | Table I — firmware cycle breakdown | real RV32 firmware on the Ibex model |
//! | [`table2`] | Table II — slowdown vs DExIE/FIXER, queue depth 1 | calibrated traces through the queue model |
//! | [`table3`] | Table III — full-suite slowdown, queue depth 8 | same |
//! | [`table4`] | Table IV — FPGA resource overhead | structural estimator |
//!
//! The `campaign` binary maps these four, [`sweep_text`] and
//! [`native_suite_text`] through [`titancfi_harness::pool::map`] and prints
//! the results in order, so its output is the serial binaries' output by
//! construction.

pub mod fault_campaign;
pub mod gate;

use std::fmt::Write as _;
use titancfi::firmware::{CheckMeasurement, FirmwareKind, FirmwareRunner};
use titancfi::{Category, CommitLog, Phase};
use titancfi_fpga as fpga;
use titancfi_trace::baselines::{DexieModel, FixerModel};
use titancfi_trace::{simulate, Trace};
use titancfi_workloads::published::{
    self, LATENCY_IRQ, LATENCY_OPT, LATENCY_POLL, TABLE2, TABLE2_QUEUE_DEPTH, TABLE3,
    TABLE3_QUEUE_DEPTH,
};
use titancfi_workloads::synthetic::trace_for;
use titancfi_workloads::KERNEL_MEM;

/// A representative call commit log (used by Table I).
#[must_use]
pub fn sample_call() -> CommitLog {
    CommitLog {
        pc: 0x8000_0000,
        insn: 0x1000_00ef,
        next: 0x8000_0004,
        target: 0x8000_0100,
    }
}

/// The matching return commit log.
#[must_use]
pub fn sample_ret() -> CommitLog {
    CommitLog {
        pc: 0x8000_0104,
        insn: 0x0000_8067,
        next: 0x8000_0108,
        target: 0x8000_0004,
    }
}

/// Measures one CALL and one RET in each firmware variant.
#[must_use]
pub fn measure_all_variants() -> Vec<(FirmwareKind, CheckMeasurement, CheckMeasurement)> {
    FirmwareKind::ALL
        .iter()
        .map(|&kind| {
            let mut fw = FirmwareRunner::new(kind);
            let call = fw.check(&sample_call());
            let ret = fw.check(&sample_ret());
            assert!(
                !call.violation && !ret.violation,
                "reference pair must pass"
            );
            (kind, call, ret)
        })
        .collect()
}

/// The measured per-check latencies (IRQ, Polling, Optimized), averaged
/// over CALL and RET — this reproduction's equivalents of the paper's
/// 267 / 112 / 73.
#[must_use]
pub fn measured_latencies() -> [u64; 3] {
    let ms = measure_all_variants();
    [0, 1, 2].map(|i| (ms[i].1.latency + ms[i].2.latency) / 2)
}

// ---------------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------------

/// Regenerates Table I: cycles to enforce the return-address-protection
/// policy in OpenTitan, split {IRQ, CFI} × {Logic, Mem-RoT, Mem-SoC}.
#[must_use]
pub fn table1() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "TABLE I — cycles to implement the return address protection policy in OpenTitan"
    );
    let _ = writeln!(
        out,
        "{:<10} {:<5} {:<9} | {:>5} {:>5} {:>5} | {:>6} {:>6} {:>6}",
        "Variant", "Op.", "", "I.IRQ", "I.CFI", "I.TOT", "C.IRQ", "C.CFI", "C.TOT"
    );
    let _ = writeln!(out, "{}", "-".repeat(78));
    let mut latencies = Vec::new();
    for (kind, call, ret) in measure_all_variants() {
        for (op, m) in [("CALL", &call), ("RET", &ret)] {
            for cat in Category::ALL {
                let irq = m.breakdown.cell(Phase::Irq, cat);
                let cfi = m.breakdown.cell(Phase::Cfi, cat);
                let _ = writeln!(
                    out,
                    "{:<10} {:<5} {:<9} | {:>5} {:>5} {:>5} | {:>6} {:>6} {:>6}",
                    kind.name(),
                    op,
                    cat.to_string(),
                    irq.instructions,
                    cfi.instructions,
                    irq.instructions + cfi.instructions,
                    irq.cycles,
                    cfi.cycles,
                    irq.cycles + cfi.cycles,
                );
            }
            let irq = m.breakdown.phase_total(Phase::Irq);
            let cfi = m.breakdown.phase_total(Phase::Cfi);
            let _ = writeln!(
                out,
                "{:<10} {:<5} {:<9} | {:>5} {:>5} {:>5} | {:>6} {:>6} {:>6}   latency {}",
                kind.name(),
                op,
                "TOT",
                irq.instructions,
                cfi.instructions,
                irq.instructions + cfi.instructions,
                irq.cycles,
                cfi.cycles,
                irq.cycles + cfi.cycles,
                m.latency,
            );
        }
        latencies.push((call.latency + ret.latency) / 2);
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Measured average check latency: IRQ {} / Polling {} / Optimized {} cycles",
        latencies[0], latencies[1], latencies[2]
    );
    let _ = writeln!(
        out,
        "Paper reference:                IRQ {LATENCY_IRQ} / Polling {LATENCY_POLL} / Optimized {LATENCY_OPT} cycles"
    );
    out
}

// ---------------------------------------------------------------------------
// Tables II and III (trace-model replays)
// ---------------------------------------------------------------------------

/// Simulated slowdowns (Opt, Poll, IRQ) in percent for a published row at
/// the given queue depth, using the paper's emulation latencies.
#[must_use]
pub fn simulated_slowdowns(row: &published::PublishedRow, depth: usize) -> [f64; 3] {
    let trace = trace_for(row, xtitan_seed(row.name));
    [LATENCY_OPT, LATENCY_POLL, LATENCY_IRQ]
        .map(|lat| simulate(&trace, lat, depth).slowdown_percent())
}

/// Deterministic per-benchmark seed (stable across runs; FNV-1a over the
/// benchmark name).
#[must_use]
pub fn xtitan_seed(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Regenerates Table II: runtime slowdown at queue depth 1 vs the
/// published DExIE and FIXER numbers.
#[must_use]
pub fn table2() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "TABLE II — runtime slowdown comparison with DExIE [8] and FIXER [6]"
    );
    let _ = writeln!(out, "(CFI queue depth {TABLE2_QUEUE_DEPTH}; slowdown in %)");
    let _ = writeln!(
        out,
        "{:<15} {:>10} {:>7} | {:>7} {:>7} {:>7} | {:>7} {:>7} {:>7}",
        "Benchmark", "Published", "Model", "Opt.", "Poll.", "IRQ", "p.Opt", "p.Poll", "p.IRQ"
    );
    let _ = writeln!(out, "{}", "-".repeat(92));
    for cmp in &TABLE2 {
        let row = published::table3_row(cmp.name).expect("trace stats");
        let trace = trace_for(row, xtitan_seed(row.name));
        let got = simulated_slowdowns(row, TABLE2_QUEUE_DEPTH);
        let competitor = cmp.competitor.map_or_else(
            || "n.a.".to_string(),
            |v| format!("{v:.0} ({})", cmp.competitor_name),
        );
        // Our mechanistic model of the same competitor on the same trace.
        let model = match cmp.competitor_name {
            "DExIE" => DexieModel::default().slowdown_percent(&trace),
            _ => FixerModel::default().slowdown_percent(&trace),
        };
        let _ = writeln!(
            out,
            "{:<15} {:>10} {:>7.0} | {:>7.0} {:>7.0} {:>7.0} | {:>7.0} {:>7.0} {:>7.0}",
            cmp.name,
            competitor,
            model,
            got[0],
            got[1],
            got[2],
            cmp.titancfi[0],
            cmp.titancfi[1],
            cmp.titancfi[2],
        );
    }
    let _ = writeln!(
        out,
        "
(`Model` re-derives the competitor's overhead mechanistically: DExIE as a"
    );
    let _ = writeln!(
        out,
        "clock-degrading lock-step monitor, FIXER as inline check instructions.)"
    );
    let _ = writeln!(
        out,
        "\n(p.* columns are the paper's published values; FIXER reports only a"
    );
    let _ = writeln!(
        out,
        "{:.1} % aggregate overhead without a per-benchmark breakdown.)",
        published::FIXER_AGGREGATE_OVERHEAD
    );
    out
}

/// Regenerates Table III: the full EmBench-IoT + RISC-V-Tests sweep at
/// queue depth 8.
#[must_use]
pub fn table3() -> String {
    let fmt_sd = |v: f64| {
        if v < 0.5 {
            "-".to_string()
        } else {
            format!("{v:.0}")
        }
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "TABLE III — slowdown on the full suites (CFI queue depth {TABLE3_QUEUE_DEPTH})"
    );
    let _ = writeln!(
        out,
        "{:<16} {:>10} {:>9} | {:>7} {:>7} {:>7} | {:>7} {:>7} {:>7}",
        "Benchmark", "Cycles", "CF", "Opt.", "Poll.", "IRQ", "p.Opt", "p.Poll", "p.IRQ"
    );
    let _ = writeln!(out, "{}", "-".repeat(95));
    let mut suite = None;
    for row in &TABLE3 {
        if suite != Some(row.suite) {
            suite = Some(row.suite);
            let _ = writeln!(out, "--- {} ---", row.suite.name());
        }
        let got = simulated_slowdowns(row, TABLE3_QUEUE_DEPTH);
        let _ = writeln!(
            out,
            "{:<16} {:>10} {:>9} | {:>7} {:>7} {:>7} | {:>7} {:>7} {:>7}",
            row.name,
            row.cycles,
            row.cf,
            fmt_sd(got[0]),
            fmt_sd(got[1]),
            fmt_sd(got[2]),
            fmt_sd(row.slowdown_opt),
            fmt_sd(row.slowdown_poll),
            fmt_sd(row.slowdown_irq),
        );
    }
    let _ = writeln!(
        out,
        "\n(p.* columns are the paper's published values. The IRQ column is the"
    );
    let _ = writeln!(
        out,
        "calibration target; Poll./Opt. are predictions of the queue model.)"
    );
    out
}

/// Stall-cause attribution for every Table III benchmark: *why* a depth-1
/// queue stalls where the depth-8 configuration does not. For each row the
/// trace is replayed at both depths (IRQ latency, the worst case) and the
/// stall is decomposed into RoT utilization (`cf · latency / cycles` — is
/// the check server simply oversubscribed?) versus burstiness (checks
/// arriving faster than one per latency window, which a deeper queue
/// absorbs).
#[must_use]
pub fn stall_attribution_table() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Stall-cause attribution (IRQ firmware, latency {LATENCY_IRQ} cycles)"
    );
    let _ = writeln!(
        out,
        "{:<16} {:>9} {:>7} | {:>9} {:>9} {:>9} | {:>9} {:>9}",
        "Benchmark", "CF", "util%", "d1 st.CF", "d1 st.cy", "cy/stall", "d8 st.CF", "d8 st.cy"
    );
    let _ = writeln!(out, "{}", "-".repeat(92));
    for row in &TABLE3 {
        let trace = trace_for(row, xtitan_seed(row.name));
        let d1 = simulate(&trace, LATENCY_IRQ, TABLE2_QUEUE_DEPTH);
        let d8 = simulate(&trace, LATENCY_IRQ, TABLE3_QUEUE_DEPTH);
        let util = 100.0 * (row.cf * LATENCY_IRQ) as f64 / row.cycles as f64;
        let per_stall = if d1.stall_events == 0 {
            0.0
        } else {
            d1.stall_cycles as f64 / d1.stall_events as f64
        };
        let _ = writeln!(
            out,
            "{:<16} {:>9} {:>7.1} | {:>9} {:>9} {:>9.1} | {:>9} {:>9}",
            row.name,
            row.cf,
            util,
            d1.stall_events,
            d1.stall_cycles,
            per_stall,
            d8.stall_events,
            d8.stall_cycles,
        );
    }
    let _ = writeln!(
        out,
        "\n(util% > 100 means the RoT check server itself is oversubscribed — no"
    );
    let _ = writeln!(
        out,
        "queue depth helps; util% < 100 with d1 stalls but no d8 stalls means the"
    );
    let _ = writeln!(
        out,
        "stalls are pure burstiness, which the depth-8 queue absorbs. 'st.CF' ="
    );
    let _ = writeln!(
        out,
        "control-flow retirements that stalled the core, 'st.cy' = stall cycles.)"
    );
    out
}

// ---------------------------------------------------------------------------
// Table IV
// ---------------------------------------------------------------------------

/// Regenerates Table IV: hardware resource utilization vs DExIE.
#[must_use]
pub fn table4() -> String {
    use fpga::published as p;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "TABLE IV — hardware resource utilization (queue depth 8)"
    );
    let _ = writeln!(
        out,
        "{:<6} {:<10} {:>10} {:>10} {:>9} {:>10} | {:>9}",
        "Scope", "Resource", "w/o CFI", "with CFI", "delta", "overhead", "paper d"
    );
    let _ = writeln!(out, "{}", "-".repeat(72));

    let host = fpga::host_delta(8);
    let soc = fpga::soc_delta(8);
    let rows = [
        ("Host", p::HOST_BASE, host, p::HOST_DELTA),
        ("SoC", p::SOC_BASE, soc, p::SOC_DELTA),
        ("DExIE", p::DEXIE_BASE, p::DEXIE_DELTA, p::DEXIE_DELTA),
    ];
    for (scope, base, delta, paper) in rows {
        let (lut_pct, ff_pct, bram_pct) = delta.percent_of(&base);
        for (name, b, d, pct, pd) in [
            ("LUT", base.lut, delta.lut, lut_pct, paper.lut),
            ("Registers", base.ff, delta.ff, ff_pct, paper.ff),
            ("BRAM", base.bram, delta.bram, bram_pct, paper.bram),
        ] {
            let _ = writeln!(
                out,
                "{:<6} {:<10} {:>10} {:>10} {:>9} {:>9.1}% | {:>9}",
                scope,
                name,
                b,
                b + d,
                d,
                pct,
                pd
            );
        }
    }
    let _ = writeln!(
        out,
        "\nTitanCFI host delta is {:.0} % of DExIE's LUT delta and needs no BRAM.",
        host.lut as f64 * 100.0 / p::DEXIE_DELTA.lut as f64
    );
    out
}

// ---------------------------------------------------------------------------
// Design-space sweep (the `sweep` binary's content)
// ---------------------------------------------------------------------------

/// The benchmarks the design-space sweep explores — the heaviest published
/// rows, where the queue-depth choice actually matters.
pub const SWEEP_BENCHMARKS: [&str; 5] = ["mm", "dhrystone", "cubic", "sglib-combined", "huffbench"];

/// Queue depths swept.
pub const SWEEP_DEPTHS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// The fixed calibration seed the sweep uses for every benchmark.
pub const SWEEP_SEED: u64 = 0x5eed;

/// The full design-space sweep: queue depth × check latency on the
/// heaviest published benchmarks.
#[must_use]
pub fn sweep_text() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Queue-depth x latency design space (slowdown %, calibrated traces)\n"
    );
    for name in SWEEP_BENCHMARKS {
        let row = published::table3_row(name).expect("published row");
        let trace = trace_for(row, SWEEP_SEED);
        let _ = writeln!(
            out,
            "{name}  ({} cycles, {} control-flow events)",
            row.cycles, row.cf
        );
        let _ = writeln!(
            out,
            "  {:>8} {:>10} {:>10} {:>10}",
            "depth", "IRQ(267)", "Poll(112)", "Opt(73)"
        );
        for depth in SWEEP_DEPTHS {
            let irq = simulate(&trace, LATENCY_IRQ, depth).slowdown_percent();
            let poll = simulate(&trace, LATENCY_POLL, depth).slowdown_percent();
            let opt = simulate(&trace, LATENCY_OPT, depth).slowdown_percent();
            let _ = writeln!(out, "  {depth:>8} {irq:>10.1} {poll:>10.1} {opt:>10.1}");
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "Reading: queue depth barely helps saturated benchmarks (mm) — only a"
    );
    let _ = writeln!(
        out,
        "faster check does — while bursty ones (huffbench) are fully absorbed at"
    );
    let _ = writeln!(
        out,
        "depth 8. That is the paper's implicit argument for pairing a small queue"
    );
    let _ = writeln!(
        out,
        "with firmware-latency optimization rather than growing the queue."
    );
    out
}

// ---------------------------------------------------------------------------
// Native kernel suite (the `native_suite` binary's content)
// ---------------------------------------------------------------------------

/// Cycle cap for one native kernel run.
pub const NATIVE_CYCLE_CAP: u64 = 500_000_000;

/// The full native-suite sweep: every kernel executed on the CVA6 model
/// and its commit trace replayed through the queue model.
///
/// # Panics
///
/// Panics if any kernel fails to assemble or halt — every kernel in the
/// repository is expected to run to its breakpoint.
#[must_use]
pub fn native_suite_text() -> String {
    use cva6_model::{Cva6Core, Halt, TimingConfig};
    let fmt = |v: f64| {
        if v < 0.5 {
            "-".to_string()
        } else {
            format!("{v:.0}")
        }
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Native kernel suite under the TitanCFI trace model (queue depth {TABLE3_QUEUE_DEPTH})"
    );
    let _ = writeln!(
        out,
        "{:<14} {:>10} {:>8} {:>9} | {:>7} {:>7} {:>7}",
        "Kernel", "Cycles", "CF", "CF/kcyc", "Opt.", "Poll.", "IRQ"
    );
    let _ = writeln!(out, "{}", "-".repeat(74));
    for kernel in titancfi_workloads::all_kernels() {
        let prog = kernel
            .program()
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
        let mut core = Cva6Core::new(&prog, KERNEL_MEM, TimingConfig::default());
        let (commits, halt) = core.run(NATIVE_CYCLE_CAP);
        assert!(
            halt == Halt::Breakpoint,
            "{} did not halt: {halt:?}",
            kernel.name
        );
        let trace = Trace::from_commits(&commits, core.cycle());
        let density = trace.cf_count() as f64 * 1000.0 / core.cycle() as f64;
        let sd = [LATENCY_OPT, LATENCY_POLL, LATENCY_IRQ]
            .map(|lat| simulate(&trace, lat, TABLE3_QUEUE_DEPTH).slowdown_percent());
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>8} {:>9.2} | {:>7} {:>7} {:>7}",
            kernel.name,
            core.cycle(),
            trace.cf_count(),
            density,
            fmt(sd[0]),
            fmt(sd[1]),
            fmt(sd[2]),
        );
    }
    let _ = writeln!(
        out,
        "\nKernels are this repo's own assembly implementations (see"
    );
    let _ = writeln!(
        out,
        "crates/workloads); traces come from actual execution on the CVA6 model."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render_nonempty() {
        for (name, table) in [("t2", table2()), ("t3", table3()), ("t4", table4())] {
            assert!(table.lines().count() > 8, "{name} too short:\n{table}");
        }
    }

    #[test]
    fn table1_runs_firmware() {
        let t = table1();
        assert!(t.contains("IRQ"));
        assert!(t.contains("Optimized"));
        assert!(t.contains("Paper reference"));
    }

    #[test]
    fn measured_latencies_ordered() {
        let [irq, poll, opt] = measured_latencies();
        assert!(irq > poll && poll > opt, "{irq} > {poll} > {opt}");
        // Within 2x of the paper's values.
        assert!((irq as f64 / LATENCY_IRQ as f64) < 2.0);
        assert!((opt as f64 / LATENCY_OPT as f64) < 2.0);
    }

    #[test]
    fn table3_shape_matches_paper() {
        // Spot-check: heavy rows stay heavy, clean rows stay clean, and
        // the latency ordering holds per row.
        for row in &TABLE3 {
            let got = simulated_slowdowns(row, TABLE3_QUEUE_DEPTH);
            assert!(
                got[0] <= got[1] + 1.0 && got[1] <= got[2] + 1.0,
                "{}",
                row.name
            );
            if row.slowdown_irq == 0.0 {
                assert!(got[2] < 2.0, "{}: clean row got {:.1}%", row.name, got[2]);
            }
            if row.slowdown_irq > 100.0 {
                assert!(got[2] > 50.0, "{}: heavy row got {:.1}%", row.name, got[2]);
            }
        }
    }

    #[test]
    fn sweep_text_covers_all_benchmarks() {
        let s = sweep_text();
        for name in SWEEP_BENCHMARKS {
            assert!(s.contains(name), "sweep missing {name}");
        }
    }
}
