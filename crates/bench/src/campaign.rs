//! The simulation campaign: every evaluation artifact expressed as
//! independent jobs for the `titancfi-harness` pool.
//!
//! A [`CampaignPlan`] turns the evaluation into a job list — one job per
//! Table I firmware variant, per Table II/III row, per sweep benchmark, per
//! native kernel — remembers which submission indices belong to which
//! artifact, and [`assemble`](CampaignPlan::assemble)s the pool's outputs
//! back into the exact texts the serial binaries print. Jobs call the same
//! fragment functions as the serial paths (`table3_row_line`,
//! `sweep_block`, ...), so parallel and serial output are byte-identical
//! by construction, regardless of worker count or scheduling. Every
//! campaign runs every job, so the artifacts always come from the current
//! models.

use std::ops::Range;
use std::sync::Arc;

use titancfi::firmware::FirmwareKind;
use titancfi_harness::{CampaignOutcome, Job, JobOutput};
use titancfi_workloads::published::{self, LATENCY_IRQ, TABLE2, TABLE3, TABLE3_QUEUE_DEPTH};
use titancfi_workloads::{ComparisonRow, Kernel, PublishedRow};

/// One Table I firmware variant: runs the RV32 firmware on the Ibex model
/// and renders that variant's rows.
struct Table1VariantJob {
    kind: FirmwareKind,
}

impl Job for Table1VariantJob {
    fn label(&self) -> String {
        format!("table1:{}", self.kind.name())
    }

    fn run(&self) -> Result<JobOutput, String> {
        let (rows, latency) = crate::table1_variant_rows(self.kind);
        Ok(JobOutput {
            artifact: rows,
            metrics: vec![("avg_latency".to_string(), latency as f64)],
        })
    }
}

/// One Table II row: calibrates the benchmark's trace and replays it at
/// queue depth 1 against the competitor models.
struct Table2RowJob {
    row: &'static ComparisonRow,
}

impl Job for Table2RowJob {
    fn label(&self) -> String {
        format!("table2:{}", self.row.name)
    }

    fn run(&self) -> Result<JobOutput, String> {
        let stats = published::table3_row(self.row.name)
            .ok_or_else(|| format!("no trace stats for {}", self.row.name))?;
        Ok(JobOutput {
            artifact: crate::table2_row_line(self.row),
            // Three latencies replayed plus two competitor models.
            metrics: vec![("sim_cycles".to_string(), stats.cycles as f64 * 5.0)],
        })
    }
}

/// One Table III row: calibrated trace replayed at queue depth 8 and the
/// three firmware latencies.
struct Table3RowJob {
    row: &'static PublishedRow,
}

impl Job for Table3RowJob {
    fn label(&self) -> String {
        format!("table3:{}", self.row.name)
    }

    fn run(&self) -> Result<JobOutput, String> {
        // Stall attribution at the table's queue depth and the depth-1
        // counterfactual, so the campaign report can total why rows stall.
        let trace =
            titancfi_workloads::synthetic::trace_for(self.row, crate::xtitan_seed(self.row.name));
        let d8 = titancfi_trace::simulate(&trace, LATENCY_IRQ, TABLE3_QUEUE_DEPTH);
        let d1 = titancfi_trace::simulate(&trace, LATENCY_IRQ, 1);
        Ok(JobOutput {
            artifact: crate::table3_row_line(self.row),
            metrics: vec![
                ("sim_cycles".to_string(), self.row.cycles as f64 * 3.0),
                ("stall.cycles.d8".to_string(), d8.stall_cycles as f64),
                ("stall.events.d8".to_string(), d8.stall_events as f64),
                ("stall.cycles.d1".to_string(), d1.stall_cycles as f64),
                ("stall.events.d1".to_string(), d1.stall_events as f64),
            ],
        })
    }
}

/// Table IV: the structural resource estimator (cheap; a single job).
struct Table4Job;

impl Job for Table4Job {
    fn label(&self) -> String {
        "table4".to_string()
    }

    fn run(&self) -> Result<JobOutput, String> {
        Ok(JobOutput::text(crate::table4()))
    }
}

/// One design-space sweep benchmark: depth × latency grid on a calibrated
/// trace.
struct SweepJob {
    name: &'static str,
}

impl Job for SweepJob {
    fn label(&self) -> String {
        format!("sweep:{}", self.name)
    }

    fn run(&self) -> Result<JobOutput, String> {
        let stats = published::table3_row(self.name)
            .ok_or_else(|| format!("no published row for {}", self.name))?;
        let grid = (crate::SWEEP_DEPTHS.len() * 3) as f64;
        Ok(JobOutput {
            artifact: crate::sweep_block(self.name),
            metrics: vec![("sim_cycles".to_string(), stats.cycles as f64 * grid)],
        })
    }
}

/// One native kernel: assembled, executed on the CVA6 model, and replayed
/// through the queue model — the campaign's heaviest jobs.
struct NativeKernelJob {
    name: &'static str,
}

impl Job for NativeKernelJob {
    fn label(&self) -> String {
        format!("native:{}", self.name)
    }

    fn run(&self) -> Result<JobOutput, String> {
        let kernel =
            Kernel::by_name(self.name).ok_or_else(|| format!("unknown kernel {}", self.name))?;
        let (line, cycles) = crate::native_kernel_line(kernel)?;
        Ok(JobOutput {
            artifact: line,
            metrics: vec![("sim_cycles".to_string(), cycles as f64)],
        })
    }
}

/// A job that always panics — `--poison` appends it to demonstrate that
/// one crashing job is isolated and reported without taking down the
/// campaign or corrupting any artifact.
pub struct PoisonJob;

impl Job for PoisonJob {
    fn label(&self) -> String {
        "poison".to_string()
    }

    fn run(&self) -> Result<JobOutput, String> {
        panic!("deliberately poisoned job (--poison)");
    }
}

/// Which artifacts a plan covers.
#[derive(Debug, Clone, Copy)]
pub struct PlanSpec {
    /// Tables I–IV.
    pub tables: bool,
    /// The queue-depth × latency design-space sweep.
    pub sweep: bool,
    /// The native kernel suite on the CVA6 model.
    pub native: bool,
}

/// The job list for one campaign, with the submission-index ranges needed
/// to reassemble each artifact afterwards.
pub struct CampaignPlan {
    jobs: Vec<Arc<dyn Job>>,
    t1: Range<usize>,
    t2: Range<usize>,
    t3: Range<usize>,
    t4: Range<usize>,
    sweep: Range<usize>,
    native: Range<usize>,
}

/// The reassembled artifacts; `None` where the plan did not cover the
/// artifact or one of its jobs failed.
#[derive(Debug)]
pub struct Artifacts {
    /// Table I text.
    pub table1: Option<String>,
    /// Table II text.
    pub table2: Option<String>,
    /// Table III text.
    pub table3: Option<String>,
    /// Table IV text.
    pub table4: Option<String>,
    /// Design-space sweep text.
    pub sweep: Option<String>,
    /// Native-suite text.
    pub native: Option<String>,
}

impl CampaignPlan {
    /// Builds the job list for the requested artifacts.
    #[must_use]
    pub fn build(spec: PlanSpec) -> CampaignPlan {
        let mut jobs: Vec<Arc<dyn Job>> = Vec::new();
        let (t1, t2, t3, t4);
        if spec.tables {
            let s = jobs.len();
            for &kind in &FirmwareKind::ALL {
                jobs.push(Arc::new(Table1VariantJob { kind }));
            }
            t1 = s..jobs.len();
            let s = jobs.len();
            for row in &TABLE2 {
                jobs.push(Arc::new(Table2RowJob { row }));
            }
            t2 = s..jobs.len();
            let s = jobs.len();
            for row in &TABLE3 {
                jobs.push(Arc::new(Table3RowJob { row }));
            }
            t3 = s..jobs.len();
            let s = jobs.len();
            jobs.push(Arc::new(Table4Job));
            t4 = s..jobs.len();
        } else {
            (t1, t2, t3, t4) = (0..0, 0..0, 0..0, 0..0);
        }
        let sweep = if spec.sweep {
            let s = jobs.len();
            for name in crate::SWEEP_BENCHMARKS {
                jobs.push(Arc::new(SweepJob { name }));
            }
            s..jobs.len()
        } else {
            0..0
        };
        let native = if spec.native {
            let s = jobs.len();
            for kernel in titancfi_workloads::all_kernels() {
                jobs.push(Arc::new(NativeKernelJob { name: kernel.name }));
            }
            s..jobs.len()
        } else {
            0..0
        };
        CampaignPlan {
            jobs,
            t1,
            t2,
            t3,
            t4,
            sweep,
            native,
        }
    }

    /// The full evaluation: all four tables, the sweep, and the native
    /// suite.
    #[must_use]
    pub fn full() -> CampaignPlan {
        CampaignPlan::build(PlanSpec {
            tables: true,
            sweep: true,
            native: true,
        })
    }

    /// Just the four paper tables (what the `report` binary needs).
    #[must_use]
    pub fn tables_only() -> CampaignPlan {
        CampaignPlan::build(PlanSpec {
            tables: true,
            sweep: false,
            native: false,
        })
    }

    /// The job list, in submission order, for [`titancfi_harness::run_campaign`].
    #[must_use]
    pub fn jobs(&self) -> Vec<Arc<dyn Job>> {
        self.jobs.clone()
    }

    /// Number of jobs in the plan.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the plan is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    fn fragments(&self, outcome: &CampaignOutcome, range: &Range<usize>) -> Option<Vec<String>> {
        if range.is_empty() {
            return None; // artifact not covered by this plan
        }
        range
            .clone()
            .map(|i| outcome.output(i).map(|o| o.artifact.clone()))
            .collect()
    }

    /// The measured check latencies (IRQ, Polling, Optimized) recovered
    /// from the Table I jobs' metrics.
    #[must_use]
    pub fn latencies(&self, outcome: &CampaignOutcome) -> Option<[u64; 3]> {
        if self.t1.len() != 3 {
            return None;
        }
        let mut latencies = [0u64; 3];
        for (slot, index) in self.t1.clone().enumerate() {
            latencies[slot] = outcome.output(index)?.metric("avg_latency")? as u64;
        }
        Some(latencies)
    }

    /// Reassembles every artifact this plan covers from the pool outputs.
    #[must_use]
    pub fn assemble(&self, outcome: &CampaignOutcome) -> Artifacts {
        Artifacts {
            table1: self
                .fragments(outcome, &self.t1)
                .and_then(|rows| Some(crate::table1_assemble(&rows, self.latencies(outcome)?))),
            table2: self
                .fragments(outcome, &self.t2)
                .map(|rows| crate::table2_assemble(&rows)),
            table3: self
                .fragments(outcome, &self.t3)
                .map(|rows| crate::table3_assemble(&rows)),
            table4: self
                .fragments(outcome, &self.t4)
                .and_then(|mut rows| (rows.len() == 1).then(|| rows.remove(0))),
            sweep: self
                .fragments(outcome, &self.sweep)
                .map(|blocks| crate::sweep_assemble(&blocks)),
            native: self
                .fragments(outcome, &self.native)
                .map(|lines| crate::native_assemble(&lines)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_plan_counts() {
        let plan = CampaignPlan::full();
        let native_kernels = titancfi_workloads::all_kernels().count();
        assert_eq!(
            plan.len(),
            3 + TABLE2.len() + TABLE3.len() + 1 + crate::SWEEP_BENCHMARKS.len() + native_kernels
        );
    }

    #[test]
    fn labels_are_unique() {
        use crate::fault_campaign::{FaultPlan, DEFAULT_KERNELS, DEFAULT_SEEDS};
        use titancfi::FailPolicy;
        let faults = FaultPlan::build(
            &DEFAULT_KERNELS,
            &DEFAULT_SEEDS,
            &[FailPolicy::FailClosed, FailPolicy::FailOpen],
        );
        for jobs in [CampaignPlan::full().jobs(), faults.jobs()] {
            let mut labels: Vec<String> = jobs.iter().map(|j| j.label()).collect();
            let total = labels.len();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(
                labels.len(),
                total,
                "telemetry identifies a job by its label, so labels must be distinct"
            );
        }
    }

    #[test]
    fn empty_ranges_assemble_to_none() {
        let plan = CampaignPlan::build(PlanSpec {
            tables: false,
            sweep: false,
            native: false,
        });
        assert!(plan.is_empty());
    }
}
