//! The fault-injection campaign: seeded fault scenarios through the
//! `titancfi-harness` pool, aggregated into a per-class detection /
//! recovery matrix.
//!
//! Each scenario is one full-SoC co-simulation with a single fault class
//! armed at a fixed one-in-N rate and a fixed PRNG seed, under either the
//! fail-closed or fail-open escalation policy. The job's metrics carry the
//! [`titancfi_faults::FaultReport`] ledger counters plus the watchdog /
//! retry / drop totals; [`FaultPlan::assemble`] folds them into the matrix
//! and flags any scenario whose faults went unresolved or whose run hit the
//! cycle budget (a hang) — the `faults` binary turns either into a nonzero
//! exit, which is what the CI smoke step keys on.
//!
//! Scenarios are deterministic per (kernel, class, rate, seed, policy), so
//! the matrix is byte-identical at any worker count.

use std::sync::Arc;

use cva6_model::Halt;
use titancfi::{FailPolicy, ResilienceConfig};
use titancfi_faults::{FaultClass, FaultConfig};
use titancfi_harness::{CampaignOutcome, Job, JobOutput};
use titancfi_soc::{SocConfig, SystemOnChip};
use titancfi_workloads::{Kernel, KERNEL_MEM};

use std::fmt::Write as _;

/// Kernels of the default (non-smoke) grid.
pub const DEFAULT_KERNELS: [&str; 2] = ["fib", "dispatch"];

/// Seeds of the default (non-smoke) grid.
pub const DEFAULT_SEEDS: [u64; 3] = [11, 12, 13];

/// Cycle budget for one fault scenario. Every scenario must terminate far
/// inside this — reaching it is reported as a hang and fails the campaign.
pub const FAULT_CYCLE_CAP: u64 = 200_000_000;

/// Watchdog / retry parameters used by every scenario: tight enough that
/// even a permanently wedged RoT escalates within a few thousand cycles.
#[must_use]
pub fn campaign_resilience(policy: FailPolicy) -> ResilienceConfig {
    ResilienceConfig {
        watchdog_timeout: 2_000,
        max_attempts: 3,
        backoff: 128,
        policy,
    }
}

/// Default one-in-N injection rate per fault class (transient transport
/// faults are frequent; firmware hangs/traps are single-shot since the
/// first one wedges the RoT for good).
#[must_use]
pub fn default_rate(class: FaultClass) -> u32 {
    match class {
        FaultClass::AxiBeatError | FaultClass::BitFlip => 5,
        FaultClass::AxiExtraLatency | FaultClass::DoorbellDrop | FaultClass::DoorbellDelay => 3,
        FaultClass::FirmwareGlitch => 2,
        FaultClass::FirmwareHang | FaultClass::FirmwareTrap => 1,
    }
}

/// One seeded fault scenario: kernel × class × rate × seed × policy.
pub struct FaultScenarioJob {
    /// Kernel name (resolved via [`Kernel::by_name`]).
    pub kernel: &'static str,
    /// The single fault class armed for this run.
    pub class: FaultClass,
    /// One-in-N injection rate at the class's fault sites.
    pub one_in: u32,
    /// PRNG seed for the injection schedule.
    pub seed: u64,
    /// Escalation policy once retries are exhausted.
    pub policy: FailPolicy,
}

fn policy_name(policy: FailPolicy) -> &'static str {
    match policy {
        FailPolicy::FailClosed => "closed",
        FailPolicy::FailOpen => "open",
    }
}

impl Job for FaultScenarioJob {
    fn label(&self) -> String {
        format!(
            "fault:{}:{}:{}:{}",
            self.kernel,
            self.class.name(),
            self.seed,
            policy_name(self.policy)
        )
    }

    fn run(&self) -> Result<JobOutput, String> {
        let kernel = Kernel::by_name(self.kernel)
            .ok_or_else(|| format!("unknown kernel {}", self.kernel))?;
        let prog = kernel
            .program()
            .map_err(|e| format!("{}: {e}", self.kernel))?;
        let mut soc = SystemOnChip::new(
            &prog,
            SocConfig {
                mem_size: KERNEL_MEM,
                resilience: campaign_resilience(self.policy),
                faults: Some(FaultConfig::only(self.class, self.one_in, self.seed)),
                ..SocConfig::default()
            },
        );
        let report = soc.run(FAULT_CYCLE_CAP);
        let ledger = report
            .faults
            .ok_or_else(|| "run produced no fault ledger".to_string())?;
        let stats = ledger.class(self.class);
        let hung = report.halt == Halt::Budget;
        let artifact = format!(
            "{:<10} {:<18} {:>4} {:>6} {:<7} {:>8} {:>8} {:>9} {:>9} {:>10}  {}\n",
            self.kernel,
            self.class.name(),
            self.one_in,
            self.seed,
            policy_name(self.policy),
            stats.injected,
            stats.detected,
            stats.recovered,
            stats.escalated,
            stats.unresolved,
            if hung {
                "HUNG".to_string()
            } else {
                format!("{:?}@{}", report.halt, report.cycles)
            },
        );
        Ok(JobOutput {
            artifact,
            metrics: vec![
                ("injected".to_string(), stats.injected as f64),
                ("detected".to_string(), stats.detected as f64),
                ("recovered".to_string(), stats.recovered as f64),
                ("escalated".to_string(), stats.escalated as f64),
                ("unresolved".to_string(), stats.unresolved as f64),
                ("hung".to_string(), u64::from(hung) as f64),
                ("watchdogs".to_string(), report.watchdog_timeouts as f64),
                ("retries".to_string(), report.writer_retries as f64),
                ("dropped".to_string(), report.logs_dropped as f64),
                ("forced".to_string(), report.forced_violations as f64),
                ("sim_cycles".to_string(), report.cycles as f64),
            ],
        })
    }
}

/// Aggregated matrix row for one fault class.
#[derive(Debug, Default, Clone, Copy)]
pub struct MatrixRow {
    /// Scenarios run for this class.
    pub runs: u64,
    /// Ledger totals across those scenarios.
    pub injected: u64,
    /// Faults noticed by a detector (watchdog, integrity check, trap path).
    pub detected: u64,
    /// Faults whose log was still delivered by a retry.
    pub recovered: u64,
    /// Faults resolved by the escalation policy instead.
    pub escalated: u64,
    /// Faults neither recovered nor escalated — must be zero.
    pub unresolved: u64,
    /// Scenarios that exhausted the cycle budget — must be zero.
    pub hangs: u64,
}

/// The campaign result: per-class rows plus the scenario detail lines.
#[derive(Debug)]
pub struct FaultMatrix {
    /// One aggregate row per fault class, in [`FaultClass::ALL`] order.
    pub rows: Vec<(FaultClass, MatrixRow)>,
    /// Per-scenario detail lines, in submission order.
    pub detail: Vec<String>,
    /// Scenarios whose job failed outright (error string per scenario).
    pub failures: Vec<String>,
}

impl FaultMatrix {
    /// Whether every injected fault was detected or recovered and no run
    /// hung — the campaign's pass criterion.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
            && self
                .rows
                .iter()
                .all(|(_, r)| r.unresolved == 0 && r.hangs == 0 && r.injected > 0)
    }

    /// Renders the matrix (and the detail table when `verbose`).
    #[must_use]
    pub fn render(&self, verbose: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Fault-injection campaign: detection / recovery matrix");
        let _ = writeln!(
            out,
            "{:<18} {:>5} {:>9} {:>9} {:>10} {:>10} {:>11} {:>6}",
            "Class",
            "Runs",
            "Injected",
            "Detected",
            "Recovered",
            "Escalated",
            "Unresolved",
            "Hangs"
        );
        let _ = writeln!(out, "{}", "-".repeat(84));
        for (class, r) in &self.rows {
            let _ = writeln!(
                out,
                "{:<18} {:>5} {:>9} {:>9} {:>10} {:>10} {:>11} {:>6}",
                class.name(),
                r.runs,
                r.injected,
                r.detected,
                r.recovered,
                r.escalated,
                r.unresolved,
                r.hangs
            );
        }
        if verbose {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "{:<10} {:<18} {:>4} {:>6} {:<7} {:>8} {:>8} {:>9} {:>9} {:>10}  outcome",
                "kernel",
                "class",
                "1-in",
                "seed",
                "policy",
                "injected",
                "detected",
                "recovered",
                "escalated",
                "unresolved"
            );
            for line in &self.detail {
                out.push_str(line);
            }
        }
        for failure in &self.failures {
            let _ = writeln!(out, "FAILED: {failure}");
        }
        let _ = writeln!(
            out,
            "\nverdict: {}",
            if self.clean() {
                "every injected fault detected or recovered; no hangs"
            } else {
                "UNRESOLVED FAULTS OR HANGS — see rows above"
            }
        );
        out
    }
}

/// The scenario list for one fault campaign.
pub struct FaultPlan {
    scenarios: Vec<Arc<FaultScenarioJob>>,
}

impl FaultPlan {
    /// Builds the scenario grid: each kernel × each fault class × each seed
    /// × each policy, at the class's default rate.
    #[must_use]
    pub fn build(kernels: &[&'static str], seeds: &[u64], policies: &[FailPolicy]) -> FaultPlan {
        let mut scenarios = Vec::new();
        for &kernel in kernels {
            for &class in &FaultClass::ALL {
                for &seed in seeds {
                    for &policy in policies {
                        scenarios.push(Arc::new(FaultScenarioJob {
                            kernel,
                            class,
                            one_in: default_rate(class),
                            seed,
                            policy,
                        }));
                    }
                }
            }
        }
        FaultPlan { scenarios }
    }

    /// The small fixed grid for the CI smoke step: one kernel, one seed,
    /// both policies — every class still covered.
    #[must_use]
    pub fn smoke() -> FaultPlan {
        FaultPlan::build(
            &["fib"],
            &[11],
            &[FailPolicy::FailClosed, FailPolicy::FailOpen],
        )
    }

    /// The job list, in submission order.
    #[must_use]
    pub fn jobs(&self) -> Vec<Arc<dyn Job>> {
        self.scenarios
            .iter()
            .map(|s| Arc::clone(s) as Arc<dyn Job>)
            .collect()
    }

    /// Number of scenarios.
    #[must_use]
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the plan is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Folds the pool outputs into the per-class matrix.
    #[must_use]
    pub fn assemble(&self, outcome: &CampaignOutcome) -> FaultMatrix {
        let mut per_class = [MatrixRow::default(); FaultClass::ALL.len()];
        let mut detail = Vec::new();
        let mut failures = Vec::new();
        for (i, scenario) in self.scenarios.iter().enumerate() {
            let Some(output) = outcome.output(i) else {
                failures.push(scenario.label());
                continue;
            };
            let row = &mut per_class[scenario.class.index()];
            let count = |name: &str| output.metric(name).unwrap_or(0.0) as u64;
            row.runs += 1;
            row.injected += count("injected");
            row.detected += count("detected");
            row.recovered += count("recovered");
            row.escalated += count("escalated");
            row.unresolved += count("unresolved");
            row.hangs += count("hung");
            detail.push(output.artifact.clone());
        }
        FaultMatrix {
            rows: FaultClass::ALL
                .iter()
                .map(|&c| (c, per_class[c.index()]))
                .collect(),
            detail,
            failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_plan_covers_every_class() {
        let plan = FaultPlan::smoke();
        assert_eq!(plan.len(), FaultClass::ALL.len() * 2);
        let mut labels: Vec<String> = plan.jobs().iter().map(|j| j.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), plan.len(), "distinct labels");
    }

    #[test]
    fn empty_matrix_is_not_clean() {
        let plan = FaultPlan::build(&[], &[], &[]);
        assert!(plan.is_empty());
    }

    #[test]
    fn every_class_has_a_nonzero_default_rate() {
        for class in FaultClass::ALL {
            assert!(default_rate(class) > 0, "{class:?}");
        }
    }
}
