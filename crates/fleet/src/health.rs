//! The fleet health pipeline: sliding-window per-device aggregation, a
//! 0–100 health score per slot, and a severity-debounced alert engine.
//!
//! Everything here is driven by *cumulative counters* sampled on the fleet
//! service's health cadence (one sample = one evaluation). The monitor
//! differences consecutive samples itself, keeps the last
//! [`HealthConfig::window`] deltas per device, and evaluates the alert
//! conditions over those window sums. Alert conditions are pure functions
//! of counter values — violations, sequence gaps, supervisor escalations,
//! parked slots, a merged latency percentile — never of wall-clock time or
//! sweep counts, so a clean fleet raises exactly zero alerts no matter how
//! the monitor thread's timing interleaves with the shard workers.
//!
//! Debounce semantics: a condition must hold for
//! [`HealthConfig::debounce`] *consecutive* evaluations before its alert
//! fires; a sustained condition re-fires at most once per
//! [`HealthConfig::cooldown`] evaluations. One flapping sample never pages
//! anyone, and a wedged device does not page every sweep.

use std::collections::VecDeque;

/// Alert-engine and scoring thresholds.
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// Evaluations kept in each device's sliding window.
    pub window: usize,
    /// Violations within the window that constitute a burst.
    pub violation_burst: u64,
    /// Sequence gaps within the window that constitute a storm.
    pub gap_storm: u64,
    /// End-to-end latency p99 SLO in simulated cycles; `0` disables the
    /// SLO alert (the default — latency collection is opt-in per device).
    pub latency_slo_p99: u64,
    /// Consecutive breaching evaluations before an alert fires.
    pub debounce: u32,
    /// Evaluations before the same `(device, kind)` alert may re-fire.
    pub cooldown: u64,
}

impl Default for HealthConfig {
    fn default() -> HealthConfig {
        HealthConfig {
            window: 8,
            violation_burst: 3,
            gap_storm: 8,
            latency_slo_p99: 0,
            debounce: 2,
            cooldown: 16,
        }
    }
}

/// What went wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlertKind {
    /// Violations in one device's window reached the burst threshold.
    ViolationBurst,
    /// Sequence gaps in one device's window reached the storm threshold.
    SeqGapStorm,
    /// The supervisor escalated the device for missing its liveness
    /// deadline within the window.
    StalledDevice,
    /// The fleet-wide end-to-end latency p99 exceeded the SLO.
    LatencySloBreach,
    /// The slot burned its whole restart budget and is parked for good.
    RestartBudgetExhausted,
}

/// How loud the alert is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Threshold crossed.
    Warning,
    /// Threshold crossed by 2x, or an unrecoverable condition.
    Critical,
}

/// One raised alert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// What condition fired.
    pub kind: AlertKind,
    /// How loud.
    pub severity: Severity,
    /// The offending device slot, or `None` for fleet-wide conditions.
    pub device: Option<u32>,
    /// Evaluation index (1-based) at which the alert fired.
    pub eval: u64,
    /// The observed value that breached.
    pub value: u64,
    /// The configured threshold it breached.
    pub threshold: u64,
}

/// Cumulative per-device counters sampled at each evaluation. The monitor
/// does its own differencing; callers just snapshot current totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceCounters {
    /// Frames verified and ingested from this slot.
    pub frames_ok: u64,
    /// Violations the slot's devices have reported across all polls.
    pub violations: u64,
    /// Sequence gaps observed on this slot's stream.
    pub seq_gaps: u64,
    /// Duplicate sequence numbers observed on this slot's stream.
    pub seq_duplicates: u64,
    /// Liveness-deadline escalations of this slot.
    pub escalated_hung: u64,
    /// Trap escalations of this slot.
    pub escalated_trapped: u64,
    /// Failure respawns consumed by this slot so far.
    pub restarts_used: u32,
    /// Whether the slot is permanently parked.
    pub parked: bool,
}

/// One evaluation's delta for a device (derived, windowed).
#[derive(Debug, Clone, Copy, Default)]
struct Delta {
    violations: u64,
    seq_gaps: u64,
    escalated_hung: u64,
}

/// Per-(device, kind) debounce state.
#[derive(Debug, Clone, Copy, Default)]
struct Debounce {
    /// Consecutive evaluations the condition has held.
    streak: u32,
    /// Evaluation index of the last fire, if any.
    last_fired: Option<u64>,
}

impl Debounce {
    /// Advances the state for one evaluation; returns `true` when the
    /// alert should fire now.
    fn advance(&mut self, breaching: bool, eval: u64, debounce: u32, cooldown: u64) -> bool {
        if !breaching {
            self.streak = 0;
            return false;
        }
        self.streak = self.streak.saturating_add(1);
        let armed = self.streak >= debounce.max(1);
        let cooled = self
            .last_fired
            .is_none_or(|last| eval.saturating_sub(last) >= cooldown.max(1));
        if armed && cooled {
            self.last_fired = Some(eval);
            true
        } else {
            false
        }
    }
}

const DEVICE_KINDS: usize = 4; // burst, storm, stalled, budget

fn device_kind_index(kind: AlertKind) -> usize {
    match kind {
        AlertKind::ViolationBurst => 0,
        AlertKind::SeqGapStorm => 1,
        AlertKind::StalledDevice => 2,
        AlertKind::RestartBudgetExhausted => 3,
        AlertKind::LatencySloBreach => unreachable!("latency SLO is fleet-wide"),
    }
}

/// The fleet health monitor: windows, scores, and the alert engine.
#[derive(Debug)]
pub struct HealthMonitor {
    config: HealthConfig,
    /// Evaluations performed (1-based after the first `evaluate`).
    evals: u64,
    /// Previous cumulative sample per slot.
    prev: Vec<DeviceCounters>,
    /// Sliding delta window per slot.
    windows: Vec<VecDeque<Delta>>,
    /// Debounce state per slot per device-scoped alert kind.
    debounce: Vec<[Debounce; DEVICE_KINDS]>,
    /// Debounce state for the fleet-wide latency SLO.
    latency_debounce: Debounce,
    /// Latest health score per slot (0–100).
    scores: Vec<u8>,
    /// Every alert raised so far, in fire order.
    alerts: Vec<Alert>,
}

impl HealthMonitor {
    /// A monitor over `devices` slots.
    #[must_use]
    pub fn new(devices: usize, config: HealthConfig) -> HealthMonitor {
        HealthMonitor {
            config,
            evals: 0,
            prev: vec![DeviceCounters::default(); devices],
            windows: (0..devices).map(|_| VecDeque::new()).collect(),
            debounce: vec![[Debounce::default(); DEVICE_KINDS]; devices],
            latency_debounce: Debounce::default(),
            scores: vec![100; devices],
            alerts: Vec::new(),
        }
    }

    /// Latest per-slot health scores (0–100; 100 until first evaluation).
    #[must_use]
    pub fn scores(&self) -> &[u8] {
        &self.scores
    }

    /// Every alert raised so far.
    #[must_use]
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Runs one evaluation over fresh cumulative `counters` (one entry per
    /// slot, same order every call) plus the current merged end-to-end
    /// latency p99 (when devices collect latency). Returns the alerts that
    /// fired *this* evaluation; all alerts also accumulate in
    /// [`HealthMonitor::alerts`].
    ///
    /// # Panics
    ///
    /// Panics if `counters.len()` differs from the monitor's slot count.
    pub fn evaluate(
        &mut self,
        counters: &[DeviceCounters],
        latency_p99: Option<u64>,
    ) -> Vec<Alert> {
        assert_eq!(
            counters.len(),
            self.prev.len(),
            "evaluate wants one counter sample per slot"
        );
        self.evals += 1;
        let eval = self.evals;
        let mut fired = Vec::new();

        for (slot, now) in counters.iter().enumerate() {
            let prev = self.prev[slot];
            let delta = Delta {
                violations: now.violations.saturating_sub(prev.violations),
                seq_gaps: now.seq_gaps.saturating_sub(prev.seq_gaps),
                escalated_hung: now.escalated_hung.saturating_sub(prev.escalated_hung),
            };
            self.prev[slot] = *now;
            let window = &mut self.windows[slot];
            window.push_back(delta);
            while window.len() > self.config.window.max(1) {
                window.pop_front();
            }
            let violations_w: u64 = window.iter().map(|d| d.violations).sum();
            let gaps_w: u64 = window.iter().map(|d| d.seq_gaps).sum();
            let hung_w: u64 = window.iter().map(|d| d.escalated_hung).sum();

            self.scores[slot] = score(now, violations_w, gaps_w, hung_w);

            let conditions = [
                (
                    AlertKind::ViolationBurst,
                    violations_w >= self.config.violation_burst,
                    violations_w,
                    self.config.violation_burst,
                ),
                (
                    AlertKind::SeqGapStorm,
                    gaps_w >= self.config.gap_storm,
                    gaps_w,
                    self.config.gap_storm,
                ),
                (AlertKind::StalledDevice, hung_w >= 1, hung_w, 1),
                (
                    AlertKind::RestartBudgetExhausted,
                    now.parked,
                    u64::from(now.restarts_used),
                    u64::from(now.restarts_used),
                ),
            ];
            for (kind, breaching, value, threshold) in conditions {
                let state = &mut self.debounce[slot][device_kind_index(kind)];
                if state.advance(breaching, eval, self.config.debounce, self.config.cooldown) {
                    let severity = if kind == AlertKind::RestartBudgetExhausted
                        || (threshold > 0 && value >= threshold.saturating_mul(2))
                    {
                        Severity::Critical
                    } else {
                        Severity::Warning
                    };
                    fired.push(Alert {
                        kind,
                        severity,
                        device: Some(slot as u32),
                        eval,
                        value,
                        threshold,
                    });
                }
            }
        }

        // Fleet-wide latency SLO.
        let slo = self.config.latency_slo_p99;
        let p99 = latency_p99.unwrap_or(0);
        let breaching = slo > 0 && p99 > slo;
        if self.latency_debounce.advance(
            breaching,
            eval,
            self.config.debounce,
            self.config.cooldown,
        ) {
            fired.push(Alert {
                kind: AlertKind::LatencySloBreach,
                severity: if p99 >= slo.saturating_mul(2) {
                    Severity::Critical
                } else {
                    Severity::Warning
                },
                device: None,
                eval,
                value: p99,
                threshold: slo,
            });
        }

        self.alerts.extend(fired.iter().cloned());
        fired
    }
}

/// The per-device health score: start at 100, subtract bounded penalties
/// for windowed violations, gaps, and hangs plus cumulative restarts; a
/// parked slot scores 0 outright.
fn score(now: &DeviceCounters, violations_w: u64, gaps_w: u64, hung_w: u64) -> u8 {
    if now.parked {
        return 0;
    }
    let mut penalty = (10 * violations_w).min(40);
    penalty += (2 * gaps_w).min(20);
    penalty += (15 * hung_w).min(30);
    penalty += (5 * u64::from(now.restarts_used)).min(15);
    (100u64.saturating_sub(penalty)) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> HealthConfig {
        HealthConfig {
            window: 4,
            violation_burst: 3,
            gap_storm: 4,
            latency_slo_p99: 0,
            debounce: 2,
            cooldown: 8,
        }
    }

    fn clean(frames: u64) -> DeviceCounters {
        DeviceCounters {
            frames_ok: frames,
            ..DeviceCounters::default()
        }
    }

    #[test]
    fn clean_counters_raise_no_alerts_and_score_100() {
        let mut mon = HealthMonitor::new(2, quick_config());
        for eval in 1..=20u64 {
            let fired = mon.evaluate(&[clean(eval * 10), clean(eval * 7)], None);
            assert!(fired.is_empty(), "eval {eval}: {fired:?}");
        }
        assert_eq!(mon.alerts().len(), 0);
        assert_eq!(mon.scores(), &[100, 100]);
    }

    #[test]
    fn violation_burst_fires_after_debounce_with_severity() {
        let mut mon = HealthMonitor::new(1, quick_config());
        // Eval 1: 6 violations land (>= 2x threshold 3). Debounce = 2, so
        // nothing fires yet.
        let mut c = clean(10);
        c.violations = 6;
        assert!(mon.evaluate(&[c], None).is_empty(), "debounce holds fire");
        // Eval 2: still breaching (windowed) — fires Critical.
        c.violations += 6;
        let fired = mon.evaluate(&[c], None);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AlertKind::ViolationBurst);
        assert_eq!(fired[0].severity, Severity::Critical);
        assert_eq!(fired[0].device, Some(0));
        assert_eq!(fired[0].value, 12);
        // A sustained violation stream stays silent until the cooldown
        // elapses: fired at eval 2, cooldown 8 => evals 3..=9 quiet, 10
        // refires.
        for _ in 0..7 {
            c.violations += 6;
            assert!(mon.evaluate(&[c], None).is_empty());
        }
        c.violations += 6;
        let refire = mon.evaluate(&[c], None);
        assert_eq!(refire.len(), 1, "cooldown elapsed: refire");
        assert!(mon.scores()[0] < 100, "burst dents the health score");
    }

    #[test]
    fn condition_clearing_resets_the_debounce_streak() {
        let mut mon = HealthMonitor::new(1, quick_config());
        let mut sick = clean(5);
        sick.violations = 4;
        assert!(mon.evaluate(&[sick], None).is_empty());
        // Window is 4: after 4 clean evals the burst ages out entirely.
        for _ in 0..4 {
            mon.evaluate(&[sick], None); // cumulative unchanged => delta 0
        }
        // Now the window holds zero violations; streak must be reset.
        let fired = mon.evaluate(&[sick], None);
        assert!(fired.len() <= 1, "at most the original debounced fire");
        assert_eq!(mon.scores()[0], 100, "clean window restores the score");
    }

    #[test]
    fn parked_slot_is_critical_and_scores_zero() {
        let config = HealthConfig {
            debounce: 1,
            ..quick_config()
        };
        let mut mon = HealthMonitor::new(2, config);
        let mut parked = clean(3);
        parked.parked = true;
        parked.restarts_used = 3;
        let fired = mon.evaluate(&[parked, clean(9)], None);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AlertKind::RestartBudgetExhausted);
        assert_eq!(fired[0].severity, Severity::Critical);
        assert_eq!(mon.scores()[0], 0);
        assert_eq!(mon.scores()[1], 100);
    }

    #[test]
    fn stalled_device_fires_on_hung_escalations() {
        let config = HealthConfig {
            debounce: 1,
            ..quick_config()
        };
        let mut mon = HealthMonitor::new(1, config);
        let mut c = clean(4);
        c.escalated_hung = 1;
        let fired = mon.evaluate(&[c], None);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AlertKind::StalledDevice);
    }

    #[test]
    fn latency_slo_breach_is_fleet_wide() {
        let config = HealthConfig {
            latency_slo_p99: 1_000,
            debounce: 1,
            ..quick_config()
        };
        let mut mon = HealthMonitor::new(3, config);
        let devices = [clean(1), clean(2), clean(3)];
        assert!(mon.evaluate(&devices, Some(900)).is_empty(), "under SLO");
        let fired = mon.evaluate(&devices, Some(2_500));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AlertKind::LatencySloBreach);
        assert_eq!(fired[0].severity, Severity::Critical, ">= 2x SLO");
        assert_eq!(fired[0].device, None);
    }
}
