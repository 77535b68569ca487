//! Multi-core TitanCFI: two host cores sharing one RoT.
//!
//! The paper's future work (§VII) names "more capable platforms, featuring
//! multi-core hosts". This module implements it as the two-core case of the
//! [`SystemOnChip`] engine: each core keeps its own CFI filter, both feed
//! one CFI queue whose entries carry their source core, and the shared Log
//! Writer streams each log to the mailbox with the core id in data word 7.
//! The RoT runs the banked multi-core firmware, keeping one shadow stack
//! per core.
//!
//! The queue's one-push-per-cycle rule is enforced per core (the dual-CF
//! stall); pushes from the two cores are not serialised against each
//! other, so the model gives the queue one push port per core.

use crate::sim::{SocConfig, SystemOnChip};
use cva6_model::Halt;
use riscv_asm::Program;
use titancfi::firmware::build_multicore_firmware;
pub use titancfi::TaggedLog;
use titancfi_obs::LatencyCollector;

/// Number of host cores.
pub const CORES: usize = 2;

/// A violation attributed to the core whose log raised it
/// ([`titancfi::Violation::core`]).
pub type TaggedViolation = titancfi::Violation;

/// Per-core run report.
#[derive(Debug, Clone)]
pub struct CoreReport {
    /// Why the core stopped.
    pub halt: Halt,
    /// Cycles (including CFI stalls).
    pub cycles: u64,
    /// Instructions retired.
    pub instret: u64,
    /// CFI-relevant instructions streamed.
    pub cf_streamed: u64,
}

/// Results of a dual-core run.
#[derive(Debug, Clone)]
pub struct DualReport {
    /// Per-core reports.
    pub cores: [CoreReport; CORES],
    /// Violations, attributed to cores.
    pub violations: Vec<TaggedViolation>,
    /// Total logs checked by the RoT.
    pub logs_checked: u64,
    /// The RoT firmware trap, if one occurred. When set, both live cores
    /// halt with [`Halt::FirmwareTrap`] (the shared checker is gone; the
    /// dual-core SoC fails closed).
    pub firmware_trap: Option<riscv_isa::Trap>,
}

/// The dual-core SoC.
#[derive(Debug)]
pub struct DualHostSoc {
    soc: SystemOnChip,
}

impl DualHostSoc {
    /// Builds the SoC running `programs[i]` on core `i`, each with
    /// `mem_size` bytes of private RAM, a shared CFI queue of
    /// `queue_depth`, and the multi-core polling firmware in the RoT.
    ///
    /// # Panics
    ///
    /// Panics if a program does not fit its RAM or the firmware fails to
    /// boot.
    #[must_use]
    pub fn new(programs: [&Program; CORES], mem_size: usize, queue_depth: usize) -> DualHostSoc {
        DualHostSoc::with_config(
            programs,
            SocConfig {
                mem_size,
                queue_depth,
                ..SocConfig::default()
            },
        )
    }

    fn with_config(programs: [&Program; CORES], config: SocConfig) -> DualHostSoc {
        DualHostSoc {
            soc: SystemOnChip::with_hosts(&programs, config, &build_multicore_firmware()),
        }
    }

    /// Enables or disables the predecode caches on every core
    /// ([`SocConfig::fast_path`]). Both settings produce identical reports.
    pub fn set_fast_path(&mut self, on: bool) {
        self.soc.set_fast_path(on);
    }

    /// Enables or disables superblock dispatch and event-driven background
    /// scheduling on top of the fast path ([`SocConfig::block_compile`];
    /// ignored while the fast path is off). Identical reports either way.
    pub fn set_block_compile(&mut self, on: bool) {
        self.soc.config.block_compile = on;
    }

    /// Attaches the per-log latency collector
    /// ([`SystemOnChip::attach_latency`]): spans cover the logs of both
    /// cores, and the run keeps block dispatch.
    pub fn attach_latency(&mut self) {
        self.soc.attach_latency();
    }

    /// Detaches and returns the latency collector.
    pub fn take_latency(&mut self) -> Option<LatencyCollector> {
        self.soc.take_latency()
    }

    /// Starts capturing every tagged log pushed into the shared CFI queue.
    /// Purely observational — no timing effect.
    pub fn enable_log_tap(&mut self) {
        self.soc.enable_log_tap();
    }

    /// Detaches and returns the captured tagged-log stream, if a tap was
    /// enabled.
    pub fn take_log_tap(&mut self) -> Option<Vec<TaggedLog>> {
        self.soc.log_tap.take().map(|(logs, cores)| {
            cores
                .into_iter()
                .zip(logs)
                .map(|(core, log)| TaggedLog { core, log })
                .collect()
        })
    }

    /// Runs both programs to completion (or `max_cycles` each).
    #[must_use]
    pub fn run(&mut self, max_cycles: u64) -> DualReport {
        let soc = &mut self.soc;
        if soc.run_slice(max_cycles).is_none() {
            soc.halt_live(Halt::Budget);
        }
        soc.drain();
        DualReport {
            cores: [0, 1].map(|i| {
                let host = &soc.hosts[i];
                CoreReport {
                    halt: host.halt.expect("the run ends once every core halted"),
                    cycles: host.core.cycle(),
                    instret: host.core.stats().instret,
                    cf_streamed: host.filter.stats().emitted,
                }
            }),
            violations: soc.violations.clone(),
            logs_checked: soc.writer.logs_written,
            firmware_trap: soc.firmware_trap(),
        }
    }

    /// Register read-back on core `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= CORES`.
    #[must_use]
    pub fn host_reg(&self, i: usize, r: riscv_isa::Reg) -> u64 {
        self.soc.hosts[i].core.reg(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use titancfi_faults::{FaultClass, FaultConfig};
    use titancfi_workloads::kernels::{Kernel, KERNEL_MEM};

    fn kernel(name: &str) -> Program {
        Kernel::by_name(name)
            .and_then(|k| k.program().ok())
            .unwrap_or_else(|| panic!("kernel {name}"))
    }

    #[test]
    fn firmware_trap_halts_every_live_core() {
        // Every check traps the RoT at entry: the first log kills the shared
        // checker, and the engine must fail both cores closed.
        let (a, b) = (kernel("fib"), kernel("towers"));
        let mut soc = DualHostSoc::with_config(
            [&a, &b],
            SocConfig {
                mem_size: KERNEL_MEM,
                faults: Some(FaultConfig::only(FaultClass::FirmwareTrap, 1, 7)),
                ..SocConfig::default()
            },
        );
        let report = soc.run(500_000_000);
        let trap = report.firmware_trap.expect("the injected trap is reported");
        for (i, core) in report.cores.iter().enumerate() {
            assert_eq!(core.halt, Halt::FirmwareTrap(trap), "core {i}");
        }
        assert_eq!(report.logs_checked, 0, "no check completed");
        assert!(report.cores.iter().all(|c| c.cycles < 1_000_000));
    }
}
