//! The single-host workloads (`suite`, `call-dense`, `observed`) and the
//! dual-host workload.

use crate::guest::{self, CALL_DENSE};
use crate::run::{rss_per_instance, Bench, Lap, Reference, BUDGET};
use crate::trace::Tracer;
use cva6_model::Halt;
use riscv_asm::Program;
use riscv_isa::Reg;
use std::sync::Arc;
use titancfi::firmware::build_multicore_firmware;
use titancfi_harness::Xoshiro256;
use titancfi_obs::LatencySpans;
use titancfi_soc::{run_baseline, DualHostSoc, SocConfig, SocReport, SystemOnChip};
use titancfi_workloads::kernels::{all_kernels, KERNEL_MEM};

/// CFI queue depth of every workload (the paper's Table III setting).
const QUEUE_DEPTH: usize = 8;

/// Polling firmware, queue depth 8, block-compiled dispatch.
fn soc_config() -> SocConfig {
    SocConfig {
        queue_depth: QUEUE_DEPTH,
        mem_size: KERNEL_MEM,
        fast_path: true,
        block_compile: true,
        ..SocConfig::default()
    }
}

/// The same machine stepped one cycle at a time: the reference semantics
/// block mode must reproduce.
pub fn strict(config: SocConfig) -> SocConfig {
    SocConfig {
        fast_path: false,
        block_compile: false,
        ..config
    }
}

pub fn soc_print(r: &SocReport, a0: u64) -> String {
    format!(
        "{:?}|cycles={}|logs={}|violations={}|a0={a0:#x}|hw={}|qf={}|dcf={}",
        r.halt,
        r.cycles,
        r.logs_checked,
        r.violations.len(),
        r.queue_high_water,
        r.stalls_queue_full,
        r.stalls_dual_cf
    )
}

/// One untimed run with the commit-log tap on, optionally observed by the
/// latency collector.
pub fn reference_run(
    program: &Program,
    config: SocConfig,
    observe: bool,
) -> (
    SocReport,
    u64,
    Vec<titancfi::CommitLog>,
    Option<LatencySpans>,
) {
    let mut soc = SystemOnChip::new(program, config);
    if observe {
        soc.attach_latency();
    }
    soc.enable_log_tap();
    let report = soc.run(BUDGET);
    let logs = soc.take_log_tap().expect("tap enabled above");
    let latency = soc.take_latency().map(|c| c.spans);
    (report, soc.host_reg(Reg::A0), logs, latency)
}

pub fn merge(into: &mut Option<LatencySpans>, spans: LatencySpans) {
    match into {
        Some(all) => all.merge(&spans),
        None => *into = Some(spans),
    }
}

struct HostGuest {
    name: String,
    program: Arc<Program>,
    violations: u64,
    /// Expected results, where known in advance.
    a0: Option<u64>,
    logs: Option<u64>,
}

/// Guests that each run on a fresh single-host SoC.
pub struct SingleHost {
    guests: Vec<HostGuest>,
    config: SocConfig,
    observed: bool,
}

impl SingleHost {
    /// Every kernel of the suite, in seed-shuffled order.
    pub fn suite(seed: u64, tr: &mut Tracer) -> SingleHost {
        let mut kernels: Vec<_> = all_kernels().collect();
        guest::shuffle(&mut Xoshiro256::new(seed), &mut kernels);
        let guests = kernels
            .iter()
            .map(|k| HostGuest {
                name: k.name.to_string(),
                program: Arc::new(tr.span("riscv_asm.assemble", |_| {
                    k.program().expect("kernel assembles")
                })),
                violations: 0,
                a0: k.expected,
                logs: None,
            })
            .collect();
        SingleHost::build(guests, false, tr)
    }

    /// The seeded call-dense guest, optionally with the latency collector
    /// attached to every lap.
    pub fn generated(seed: u64, observed: bool, tr: &mut Tracer) -> SingleHost {
        let g = tr.span("guest.generate", |_| guest::generate(&CALL_DENSE, seed));
        let program = tr.span("riscv_asm.assemble", |_| g.assemble());
        let guests = vec![HostGuest {
            name: format!("call-dense-{seed}"),
            program: Arc::new(program),
            violations: g.stats.hijacks,
            a0: None,
            logs: Some(g.stats.logs()),
        }];
        SingleHost::build(guests, observed, tr)
    }

    fn build(guests: Vec<HostGuest>, observed: bool, tr: &mut Tracer) -> SingleHost {
        let config = soc_config();
        // The cold construction belongs to set-up.
        for g in &guests {
            drop(tr.span("soc.new", |_| SystemOnChip::new(&g.program, config)));
        }
        SingleHost {
            guests,
            config,
            observed,
        }
    }
}

impl Bench for SingleHost {
    fn lap(&mut self, tr: &mut Tracer) -> Lap {
        let mut lap = Lap::default();
        for g in &self.guests {
            let mut soc = tr.span("soc.new", |_| SystemOnChip::new(&g.program, self.config));
            if self.observed {
                soc.attach_latency();
            }
            let report = tr.span("soc.run", |_| soc.run(BUDGET));
            tr.count("soc.logs_checked", report.logs_checked);
            lap.prints.push(soc_print(&report, soc.host_reg(Reg::A0)));
            if report.halt != Halt::Breakpoint {
                lap.problems
                    .push(format!("{} halted with {:?}", g.name, report.halt));
            }
            lap.sim_cycles += report.cycles;
            lap.ops += report.logs_checked;
            lap.violations += report.violations.len() as u64;
            lap.soc.add(&report);
            if let Some(collector) = soc.take_latency() {
                merge(&mut lap.latency, collector.spans);
            }
        }
        lap
    }

    fn expected_violations(&self) -> u64 {
        self.guests.iter().map(|g| g.violations).sum()
    }

    fn verify(&mut self, first: &Lap) -> Reference {
        let mut r = Reference::default();
        // The reference runs the other engine: strict stepping (observed)
        // when the laps run blocks, and blocks when the laps are observed,
        // which forces strict stepping.
        let (config, engine) = if self.observed {
            (self.config, "block-mode")
        } else {
            (strict(self.config), "strict")
        };
        for (g, lap_print) in self.guests.iter().zip(&first.prints) {
            let (report, a0, logs, latency) = reference_run(&g.program, config, !self.observed);
            let print = soc_print(&report, a0);
            if &print != lap_print {
                r.failures.push(format!(
                    "{}: {engine} run {print} != lap {lap_print}",
                    g.name
                ));
            }
            if g.a0.is_some_and(|want| want != a0) {
                r.failures
                    .push(format!("{}: a0 {a0:#x} != expected {:?}", g.name, g.a0));
            }
            if g.logs.is_some_and(|want| want != report.logs_checked) {
                r.failures.push(format!(
                    "{}: {} logs checked, the generator expects {:?}",
                    g.name, report.logs_checked, g.logs
                ));
            }
            let (halt, baseline) = run_baseline(&g.program, &self.config);
            if halt != Halt::Breakpoint {
                r.failures
                    .push(format!("{}: baseline halted with {halt:?}", g.name));
            }
            r.cfi_cycles += report.cycles;
            r.baseline_cycles += baseline;
            r.streams.push(logs);
            if let Some(spans) = latency {
                merge(&mut r.latency, spans);
            }
        }
        if self.observed {
            r.latency.clone_from(&first.latency);
        }
        r.soc = first.soc;
        r
    }

    fn guests(&self) -> (Vec<Arc<Program>>, usize, Option<(usize, usize)>) {
        let programs = self.guests.iter().map(|g| Arc::clone(&g.program)).collect();
        (programs, self.config.mem_size, None)
    }

    fn soc_rss_kib(&self) -> f64 {
        rss_per_instance(|| SystemOnChip::new(&self.guests[0].program, self.config))
    }
}

/// Two seeded call-dense guests on one dual-host SoC sharing a RoT.
pub struct DualHost {
    programs: [Arc<Program>; 2],
    violations: [u64; 2],
    logs: u64,
}

impl DualHost {
    pub fn new(seed: u64, tr: &mut Tracer) -> DualHost {
        let build = |tr: &mut Tracer, seed: u64| {
            let g = tr.span("guest.generate", |_| guest::generate(&CALL_DENSE, seed));
            let program = tr.span("riscv_asm.assemble", |_| g.assemble());
            (Arc::new(program), g.stats)
        };
        let (a, sa) = build(tr, seed);
        let (b, sb) = build(tr, seed.wrapping_add(1));
        let bench = DualHost {
            programs: [a, b],
            violations: [sa.hijacks, sb.hijacks],
            logs: sa.logs() + sb.logs(),
        };
        drop(tr.span("soc.new", |_| bench.soc()));
        bench
    }

    fn soc(&self) -> DualHostSoc {
        DualHostSoc::new(
            [&self.programs[0], &self.programs[1]],
            KERNEL_MEM,
            QUEUE_DEPTH,
        )
    }
}

fn dual_print(r: &titancfi_soc::DualReport, soc: &DualHostSoc) -> String {
    format!(
        "{r:?}|a0={:#x},{:#x}",
        soc.host_reg(0, Reg::A0),
        soc.host_reg(1, Reg::A0)
    )
}

impl Bench for DualHost {
    fn lap(&mut self, tr: &mut Tracer) -> Lap {
        let mut soc = tr.span("soc.new", |_| self.soc());
        soc.set_fast_path(true);
        soc.set_block_compile(true);
        let r = tr.span("multicore.run", |_| soc.run(BUDGET));
        tr.count("soc.logs_checked", r.logs_checked);
        let mut lap = Lap {
            prints: vec![dual_print(&r, &soc)],
            sim_cycles: r.cores.iter().map(|c| c.cycles).sum(),
            ops: r.logs_checked,
            violations: r.violations.len() as u64,
            ..Lap::default()
        };
        for (core, report) in r.cores.iter().enumerate() {
            if report.halt != Halt::Breakpoint {
                lap.problems
                    .push(format!("core {core} halted with {:?}", report.halt));
            }
            let flagged = r
                .violations
                .iter()
                .filter(|v| usize::from(v.core) == core)
                .count();
            if flagged as u64 != self.violations[core] {
                lap.problems.push(format!(
                    "core {core} flagged {flagged} violations, {} planted",
                    self.violations[core]
                ));
            }
        }
        lap
    }

    fn expected_violations(&self) -> u64 {
        self.violations.iter().sum()
    }

    fn verify(&mut self, first: &Lap) -> Reference {
        let mut r = Reference::default();
        let mut soc = self.soc();
        soc.set_fast_path(false);
        soc.enable_log_tap();
        let report = soc.run(BUDGET);
        let print = dual_print(&report, &soc);
        if print != first.prints[0] {
            r.failures.push(format!(
                "strict dual-host run {print} != lap {}",
                first.prints[0]
            ));
        }
        if report.logs_checked != self.logs {
            r.failures.push(format!(
                "{} logs checked, the generator expects {}",
                report.logs_checked, self.logs
            ));
        }
        let tap = soc.take_log_tap().expect("tap enabled above");
        for core in 0..2u8 {
            r.streams.push(
                tap.iter()
                    .filter(|t| t.core == core)
                    .map(|t| t.log)
                    .collect(),
            );
        }
        for (program, core) in self.programs.iter().zip(&report.cores) {
            let (halt, baseline) = run_baseline(program, &soc_config());
            if halt != Halt::Breakpoint {
                r.failures.push(format!("baseline halted with {halt:?}"));
            }
            r.cfi_cycles += core.cycles;
            r.baseline_cycles += baseline;
        }
        r
    }

    fn guests(&self) -> (Vec<Arc<Program>>, usize, Option<(usize, usize)>) {
        (self.programs.to_vec(), KERNEL_MEM, None)
    }

    fn firmware(&self) -> Program {
        build_multicore_firmware()
    }

    fn soc_rss_kib(&self) -> f64 {
        rss_per_instance(|| self.soc())
    }
}
