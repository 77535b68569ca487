//! End-to-end fleet tests: real `SystemOnChip` devices, real fault
//! injection, the full boot → run → ingest → drain lifecycle.

use std::sync::Arc;
use titancfi::{FailPolicy, ResilienceConfig};
use titancfi_faults::{FaultClass, FaultConfig};
use titancfi_fleet::{
    call_dense_workload, run_fleet, AlertKind, FleetConfig, HealthConfig, SocDevice,
    SocDeviceConfig, SupervisionConfig,
};
use titancfi_soc::SocConfig;

#[test]
fn trapping_devices_are_escalated_parked_and_ledgered_without_fleet_loss() {
    let program = Arc::new(call_dense_workload(4));
    // Slot 0 traps its RoT firmware on (nearly) every CFI check; the
    // other slots are clean. The supervisor must burn slot 0's restart
    // budget, park it with a ledger entry, and leave the rest streaming.
    const TRAPPED_SLOT: u32 = 0;
    const BUDGET: u32 = 2;
    let config = FleetConfig {
        devices: 4,
        shards: 2,
        passes: 600,
        transport_capacity: 32,
        supervision: SupervisionConfig {
            liveness_polls: 200,
            restart_budget: BUDGET,
        },
        ..FleetConfig::default()
    };
    let report = run_fleet(&config, move |slot, seq, tx| {
        let mut dev_config = SocDeviceConfig::new(Arc::clone(&program));
        if slot == TRAPPED_SLOT {
            dev_config.faults = Some(FaultConfig::only(
                FaultClass::FirmwareTrap,
                1,
                0x5EED_0000 + u64::from(slot),
            ));
        }
        Box::new(SocDevice::new(dev_config, tx, seq))
    });

    // The sick slot: initial boot + BUDGET respawns all trap, then park.
    assert_eq!(report.supervision.escalated_trapped, u64::from(BUDGET) + 1);
    assert_eq!(report.supervision.respawns, u64::from(BUDGET));
    assert_eq!(report.supervision.permanent_failures, 1);
    assert_eq!(report.ledger.len(), 1);
    assert_eq!(report.ledger[0].slot, TRAPPED_SLOT);
    assert_eq!(report.ledger[0].restarts_used, BUDGET);
    assert!(
        report.ledger[0].reason.contains("trap"),
        "ledger records why: {}",
        report.ledger[0].reason
    );

    // The healthy slots: plenty of clean completed runs and a lossless
    // stream end to end.
    assert!(
        report.supervision.completed_runs > 0,
        "healthy slots recycle"
    );
    assert!(report.frames_ok > 0);
    assert!(
        report.is_lossless(),
        "lost={} corrupt={} undrained={}",
        report.frames_lost,
        report.frames_corrupt,
        report.undrained_devices
    );
    assert_eq!(report.seq_duplicates, 0);
    assert_eq!(report.seq_gaps, 0, "seq continuity survives reaping");
}

#[test]
fn fleet_latency_histogram_keeps_every_finished_run() {
    // Every slot recycles its device hundreds of times; the fleet-wide
    // histogram must carry the logs of those finished runs, not only the
    // live ones'.
    let program = Arc::new(call_dense_workload(4));
    let config = FleetConfig {
        devices: 4,
        shards: 2,
        passes: 800,
        ..FleetConfig::default()
    };
    let report = run_fleet(&config, move |_, seq, tx| {
        let mut dev_config = SocDeviceConfig::new(Arc::clone(&program));
        dev_config.latency = true;
        Box::new(SocDevice::new(dev_config, tx, seq))
    });
    assert!(report.is_lossless());
    assert!(
        report.supervision.completed_runs > u64::from(config.devices),
        "slots must recycle for the test to mean anything"
    );
    let e2e = report.latency_e2e.expect("devices collect latency");
    // Only the live runs' in-flight logs may be missing: a full queue plus
    // the one the Log Writer holds, per device.
    let in_flight = u64::from(config.devices) * (SocConfig::default().queue_depth as u64 + 1);
    assert!(
        report.frames_ok.saturating_sub(in_flight) <= e2e.count && e2e.count <= report.frames_ok,
        "{} frames ingested, {} latencies recorded",
        report.frames_ok,
        e2e.count
    );
}

#[test]
fn clean_fleet_raises_zero_alerts_and_scores_100() {
    let program = Arc::new(call_dense_workload(4));
    let config = FleetConfig {
        devices: 6,
        shards: 3,
        passes: 800,
        transport_capacity: 32,
        // Hair-trigger thresholds: any violation, gap, or escalation on a
        // clean fleet would page immediately — the point of the test.
        health: HealthConfig {
            violation_burst: 1,
            gap_storm: 1,
            debounce: 1,
            ..HealthConfig::default()
        },
        ..FleetConfig::default()
    };
    let report = run_fleet(&config, move |_, seq, tx| {
        Box::new(SocDevice::new(
            SocDeviceConfig::new(Arc::clone(&program)),
            tx,
            seq,
        ))
    });
    assert!(report.is_lossless());
    assert!(report.frames_ok > 0);
    assert!(
        report.alerts.is_empty(),
        "clean fleet must raise zero alerts: {:?}",
        report.alerts
    );
    assert!(
        report.health_scores.iter().all(|&s| s == 100),
        "clean fleet scores perfect health: {:?}",
        report.health_scores
    );
}

#[test]
fn alert_engine_pages_on_fault_injected_fleet() {
    let program = Arc::new(call_dense_workload(4));
    // Slot 0 drops every doorbell ring; a short fail-closed watchdog turns
    // each dropped log into a forced violation, which must surface as a
    // ViolationBurst alert and a dented health score — while the clean
    // slots stay at 100 with no alerts against them.
    const SICK_SLOT: u32 = 0;
    let config = FleetConfig {
        devices: 4,
        shards: 2,
        passes: 800,
        transport_capacity: 32,
        health: HealthConfig {
            window: 32,
            violation_burst: 1,
            debounce: 1,
            ..HealthConfig::default()
        },
        ..FleetConfig::default()
    };
    let report = run_fleet(&config, move |slot, seq, tx| {
        let mut dev_config = SocDeviceConfig::new(Arc::clone(&program));
        if slot == SICK_SLOT {
            dev_config.faults = Some(FaultConfig::only(FaultClass::DoorbellDrop, 1, 0xD00B));
            dev_config.resilience = Some(ResilienceConfig {
                watchdog_timeout: 200,
                max_attempts: 2,
                backoff: 16,
                policy: FailPolicy::FailClosed,
            });
        }
        Box::new(SocDevice::new(dev_config, tx, seq))
    });

    assert!(
        report.supervision.violations > 0,
        "fail-closed doorbell drops must force violations"
    );
    assert!(!report.alerts.is_empty(), "faulted fleet must page");
    assert!(
        report
            .alerts
            .iter()
            .any(|a| a.kind == AlertKind::ViolationBurst && a.device == Some(SICK_SLOT)),
        "expected a violation burst against slot {SICK_SLOT}: {:?}",
        report.alerts
    );
    assert!(
        report
            .alerts
            .iter()
            .all(|a| { a.device.is_none_or(|d| d == SICK_SLOT) }),
        "no alert may blame a healthy slot: {:?}",
        report.alerts
    );
    assert!(
        report.health_scores[SICK_SLOT as usize] < 100,
        "sick slot's score must drop: {:?}",
        report.health_scores
    );
}
