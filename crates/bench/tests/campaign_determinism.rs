//! The campaign's headline guarantee, tested end to end on the real jobs:
//! parallel output is byte-identical to the serial paths.

use titancfi_bench::campaign::{CampaignPlan, PlanSpec};
use titancfi_harness::{run_campaign, CampaignConfig, Telemetry, TelemetrySink};

fn run(plan: &CampaignPlan, workers: usize) -> titancfi_harness::CampaignOutcome {
    let cfg = CampaignConfig {
        workers,
        ..CampaignConfig::default()
    };
    run_campaign(plan.jobs(), &cfg, &Telemetry::new(TelemetrySink::Null))
}

/// A four-worker campaign assembles the exact bytes the serial functions
/// produce — the scheduling of the pool never leaks into the artifacts.
#[test]
fn parallel_campaign_matches_serial_output() {
    let plan = CampaignPlan::build(PlanSpec {
        tables: true,
        sweep: true,
        native: false,
    });
    let outcome = run(&plan, 4);
    assert_eq!(
        outcome.report.failed, 0,
        "failures: {:?}",
        outcome.report.failures
    );
    let artifacts = plan.assemble(&outcome);
    assert_eq!(
        artifacts.table1.as_deref(),
        Some(titancfi_bench::table1().as_str())
    );
    assert_eq!(
        artifacts.table2.as_deref(),
        Some(titancfi_bench::table2().as_str())
    );
    assert_eq!(
        artifacts.table3.as_deref(),
        Some(titancfi_bench::table3().as_str())
    );
    assert_eq!(
        artifacts.table4.as_deref(),
        Some(titancfi_bench::table4().as_str())
    );
    assert_eq!(
        artifacts.sweep.as_deref(),
        Some(titancfi_bench::sweep_text().as_str())
    );
    assert!(
        artifacts.native.is_none(),
        "native suite was not in the plan"
    );
}

/// Aggregated metric totals — including the stall-attribution counters the
/// Table III jobs emit — are identical at `-j1` and `-j8`: instrumentation
/// is as deterministic as the artifacts.
#[test]
fn metric_totals_deterministic_across_worker_counts() {
    let plan = CampaignPlan::build(PlanSpec {
        tables: true,
        sweep: false,
        native: false,
    });
    let serial = run(&plan, 1);
    let wide = run(&plan, 8);
    assert_eq!(serial.report.failed, 0);
    assert_eq!(wide.report.failed, 0);
    assert_eq!(
        serial.report.metric_totals, wide.report.metric_totals,
        "metric totals must not depend on worker count"
    );
    for key in [
        "sim_cycles",
        "stall.cycles.d1",
        "stall.cycles.d8",
        "stall.events.d1",
        "stall.events.d8",
    ] {
        assert!(
            serial.report.metric_totals.contains_key(key),
            "missing metric total `{key}`"
        );
    }
    // Depth 8 can only help: the aggregate confirms Table III's premise.
    assert!(
        serial.report.metric_totals["stall.cycles.d8"]
            <= serial.report.metric_totals["stall.cycles.d1"]
    );
}
