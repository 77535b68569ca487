//! Fail-fast device supervision.
//!
//! Each fleet slot holds one live device. The supervisor polls it, health-
//! checks the outcome against a liveness deadline (consecutive idle polls —
//! the deterministic analog of a wall-clock heartbeat), and reacts the
//! fail-fast way: anything wedged or trapped is *escalated* — reaped
//! immediately and respawned fresh — rather than nursed along. Respawns
//! after a failure draw from a bounded restart budget; once a slot exhausts
//! it, the slot is parked permanently and the failure is recorded in the
//! ledger. Benign completions respawn for free: a fleet device's job is to
//! run forever, and a clean exit just means the next run boots.
//!
//! All slot state lives behind per-slot mutexes, so shard workers drive
//! disjoint slots in parallel and work-stealing needs no extra
//! coordination.

use crate::device::{Device, DeviceStatus, PollOutcome};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Factory producing a device for `(slot, start_seq)`. Called at fleet
/// start and at every respawn.
pub type DeviceFactory = Box<dyn Fn(u32, u16) -> Box<dyn Device> + Send + Sync>;

/// Supervision policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct SupervisionConfig {
    /// Consecutive zero-progress polls before a device counts as hung.
    pub liveness_polls: u32,
    /// Failure respawns allowed per slot before it is parked for good.
    pub restart_budget: u32,
}

impl Default for SupervisionConfig {
    fn default() -> SupervisionConfig {
        SupervisionConfig {
            liveness_polls: 50,
            restart_budget: 3,
        }
    }
}

/// Why a device was escalated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EscalationReason {
    /// Missed the liveness deadline (idle for `liveness_polls` polls).
    Hung,
    /// Reported [`DeviceStatus::Trapped`].
    Trapped(String),
}

impl std::fmt::Display for EscalationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EscalationReason::Hung => f.write_str("hung: missed liveness deadline"),
            EscalationReason::Trapped(why) => write!(f, "trapped: {why}"),
        }
    }
}

/// A permanent-failure ledger entry: a slot that exhausted its restart
/// budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureRecord {
    /// Which slot failed.
    pub slot: u32,
    /// Failure respawns consumed before parking.
    pub restarts_used: u32,
    /// The final escalation that parked the slot.
    pub reason: String,
}

/// What one supervision turn did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Turn {
    /// The device made (possibly zero) progress and stays live.
    Progress(PollOutcome),
    /// The run completed cleanly and a fresh run was booted (no budget
    /// consumed). Carries the completing poll.
    Recycled(PollOutcome),
    /// The device was escalated, reaped, and respawned from the restart
    /// budget.
    Respawned(EscalationReason),
    /// The device was escalated and the budget was exhausted: the slot is
    /// now parked and the ledger holds a [`FailureRecord`].
    Parked(EscalationReason),
    /// The slot was already parked; nothing to do.
    Dead,
}

struct Slot {
    device: Option<Box<dyn Device>>,
    idle_polls: u32,
    restarts_used: u32,
    completed_runs: u64,
    violations: u64,
    escalated_hung: u64,
    escalated_trapped: u64,
    /// End-to-end latency of the slot's finished runs (recycled or reaped).
    latency_done: Option<titancfi_obs::Histogram>,
}

impl Slot {
    /// Removes the live device, folding its latency histogram into the
    /// finished-run total. Returns its last assigned seq, which the
    /// replacement continues from (0 when the slot held no device).
    fn retire_device(&mut self) -> u16 {
        let Some(device) = self.device.take() else {
            return 0;
        };
        if let Some(hist) = device.latency_e2e() {
            fold_histogram(&mut self.latency_done, hist);
        }
        device.last_seq()
    }
}

/// Merges `hist` into `total`, starting the total when it is empty.
pub(crate) fn fold_histogram(
    total: &mut Option<titancfi_obs::Histogram>,
    hist: titancfi_obs::Histogram,
) {
    match total.as_mut() {
        Some(t) => t.merge(&hist),
        None => *total = Some(hist),
    }
}

/// Per-slot health counters, snapshotted for the fleet health monitor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotHealth {
    /// Violations this slot's devices reported across all polls.
    pub violations: u64,
    /// Liveness-deadline escalations of this slot.
    pub escalated_hung: u64,
    /// Trap escalations of this slot.
    pub escalated_trapped: u64,
    /// Failure respawns consumed so far.
    pub restarts_used: u32,
    /// Clean run completions on this slot.
    pub completed_runs: u64,
    /// Whether the slot is permanently parked.
    pub parked: bool,
}

/// The per-slot supervision state machine over a fixed set of slots.
pub struct Supervisor {
    config: SupervisionConfig,
    factory: DeviceFactory,
    slots: Vec<Mutex<Slot>>,
    ledger: Mutex<Vec<FailureRecord>>,
    escalated_hung: AtomicU64,
    escalated_trapped: AtomicU64,
    respawns: AtomicU64,
    completed_runs: AtomicU64,
    violations: AtomicU64,
}

/// Aggregate supervision counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisionStats {
    /// Devices escalated for missing the liveness deadline.
    pub escalated_hung: u64,
    /// Devices escalated for trapping.
    pub escalated_trapped: u64,
    /// Failure respawns performed (budget draws).
    pub respawns: u64,
    /// Clean guest-run completions (free recycles).
    pub completed_runs: u64,
    /// Slots parked permanently.
    pub permanent_failures: u64,
    /// Violations reported by devices across all polls.
    pub violations: u64,
}

impl Supervisor {
    /// Boots `slots` devices through `factory`.
    #[must_use]
    pub fn new(slots: u32, config: SupervisionConfig, factory: DeviceFactory) -> Supervisor {
        let slots = (0..slots)
            .map(|s| {
                Mutex::new(Slot {
                    device: Some(factory(s, 0)),
                    idle_polls: 0,
                    restarts_used: 0,
                    completed_runs: 0,
                    violations: 0,
                    escalated_hung: 0,
                    escalated_trapped: 0,
                    latency_done: None,
                })
            })
            .collect();
        Supervisor {
            config,
            factory,
            slots,
            ledger: Mutex::new(Vec::new()),
            escalated_hung: AtomicU64::new(0),
            escalated_trapped: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            completed_runs: AtomicU64::new(0),
            violations: AtomicU64::new(0),
        }
    }

    fn lock(&self, slot: u32) -> std::sync::MutexGuard<'_, Slot> {
        self.slots[slot as usize]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Runs one supervision turn on `slot`: poll, health-check, escalate /
    /// recycle / park as the outcome demands.
    pub fn turn(&self, slot: u32) -> Turn {
        let mut state = self.lock(slot);
        let outcome = match state.device.as_mut() {
            Some(device) => device.poll(),
            None => return Turn::Dead,
        };
        self.violations
            .fetch_add(outcome.violations, Ordering::Relaxed);
        state.violations += outcome.violations;
        match &outcome.status {
            DeviceStatus::Running => {
                if outcome.is_idle() {
                    state.idle_polls += 1;
                    if state.idle_polls >= self.config.liveness_polls {
                        return self.escalate(slot, &mut state, EscalationReason::Hung);
                    }
                } else {
                    state.idle_polls = 0;
                }
                Turn::Progress(outcome)
            }
            DeviceStatus::Completed => {
                state.completed_runs += 1;
                self.completed_runs.fetch_add(1, Ordering::Relaxed);
                // Free recycle: boot the next run, seq continuing where the
                // finished one stopped.
                let next_seq = state.retire_device();
                state.device = Some((self.factory)(slot, next_seq));
                state.idle_polls = 0;
                Turn::Recycled(outcome)
            }
            DeviceStatus::Trapped(why) => {
                let reason = EscalationReason::Trapped(why.clone());
                self.escalate(slot, &mut state, reason)
            }
        }
    }

    /// Reap + respawn-or-park. The escalated device is dropped on the spot
    /// (fail fast: no salvage of a compromised or wedged sim); its last
    /// assigned seq carries into the replacement so the monitor-side stream
    /// stays continuous.
    fn escalate(&self, slot: u32, state: &mut Slot, reason: EscalationReason) -> Turn {
        match reason {
            EscalationReason::Hung => {
                self.escalated_hung.fetch_add(1, Ordering::Relaxed);
                state.escalated_hung += 1;
            }
            EscalationReason::Trapped(_) => {
                self.escalated_trapped.fetch_add(1, Ordering::Relaxed);
                state.escalated_trapped += 1;
            }
        };
        let next_seq = state.retire_device(); // reaped
        state.idle_polls = 0;
        if state.restarts_used < self.config.restart_budget {
            state.restarts_used += 1;
            self.respawns.fetch_add(1, Ordering::Relaxed);
            state.device = Some((self.factory)(slot, next_seq));
            Turn::Respawned(reason)
        } else {
            self.ledger
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(FailureRecord {
                    slot,
                    restarts_used: state.restarts_used,
                    reason: reason.to_string(),
                });
            Turn::Parked(reason)
        }
    }

    /// Flushes `slot`'s buffered frames without simulating further.
    /// Returns the frames still buffered afterwards (0 = drained, also 0
    /// for parked slots, which hold no device).
    pub fn flush(&self, slot: u32) -> usize {
        let mut state = self.lock(slot);
        state.device.as_mut().map_or(0, |d| d.flush())
    }

    /// Whether `slot` is parked (permanently failed).
    #[must_use]
    pub fn is_parked(&self, slot: u32) -> bool {
        self.lock(slot).device.is_none()
    }

    /// Snapshot of `slot`'s health counters for the fleet health monitor.
    #[must_use]
    pub fn slot_health(&self, slot: u32) -> SlotHealth {
        let state = self.lock(slot);
        SlotHealth {
            violations: state.violations,
            escalated_hung: state.escalated_hung,
            escalated_trapped: state.escalated_trapped,
            restarts_used: state.restarts_used,
            completed_runs: state.completed_runs,
            parked: state.device.is_none(),
        }
    }

    /// The end-to-end latency histogram of every run `slot` has hosted —
    /// finished runs (recycled or reaped) merged with the live device's —
    /// when its devices collect one ([`Device::latency_e2e`]).
    #[must_use]
    pub fn slot_latency_e2e(&self, slot: u32) -> Option<titancfi_obs::Histogram> {
        let state = self.lock(slot);
        let mut total = state.latency_done.clone();
        if let Some(live) = state.device.as_ref().and_then(|d| d.latency_e2e()) {
            fold_histogram(&mut total, live);
        }
        total
    }

    /// Snapshot of the permanent-failure ledger.
    #[must_use]
    pub fn ledger(&self) -> Vec<FailureRecord> {
        self.ledger
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Aggregate counters.
    #[must_use]
    pub fn stats(&self) -> SupervisionStats {
        SupervisionStats {
            escalated_hung: self.escalated_hung.load(Ordering::Relaxed),
            escalated_trapped: self.escalated_trapped.load(Ordering::Relaxed),
            respawns: self.respawns.load(Ordering::Relaxed),
            completed_runs: self.completed_runs.load(Ordering::Relaxed),
            permanent_failures: self
                .ledger
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .len() as u64,
            violations: self.violations.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scripted device: a fixed tape of poll outcomes, then idles forever.
    struct Scripted {
        tape: std::vec::IntoIter<PollOutcome>,
        sent: u64,
    }

    impl Scripted {
        fn boxed(tape: Vec<PollOutcome>) -> Box<dyn Device> {
            Box::new(Scripted {
                tape: tape.into_iter(),
                sent: 0,
            })
        }
    }

    fn running(cycles: u64, frames: u64) -> PollOutcome {
        PollOutcome {
            cycles,
            frames,
            violations: 0,
            stalled: false,
            status: DeviceStatus::Running,
        }
    }

    impl Device for Scripted {
        fn poll(&mut self) -> PollOutcome {
            let out = self.tape.next().unwrap_or_else(|| running(0, 0));
            self.sent += out.frames;
            out
        }
        fn flush(&mut self) -> usize {
            0
        }
        fn last_seq(&self) -> u16 {
            self.sent as u16
        }
        fn frames_sent(&self) -> u64 {
            self.sent
        }
    }

    fn config(liveness: u32, budget: u32) -> SupervisionConfig {
        SupervisionConfig {
            liveness_polls: liveness,
            restart_budget: budget,
        }
    }

    #[test]
    fn hang_past_liveness_deadline_is_escalated() {
        // Device makes progress twice, then wedges silently.
        let sup = Supervisor::new(
            1,
            config(3, 1),
            Box::new(|_, _| Scripted::boxed(vec![running(10, 1), running(10, 1)])),
        );
        assert!(matches!(sup.turn(0), Turn::Progress(_)));
        assert!(matches!(sup.turn(0), Turn::Progress(_)));
        // Two idle polls tolerated, the third trips the deadline.
        assert!(matches!(sup.turn(0), Turn::Progress(_)));
        assert!(matches!(sup.turn(0), Turn::Progress(_)));
        assert_eq!(sup.turn(0), Turn::Respawned(EscalationReason::Hung));
        assert_eq!(sup.stats().escalated_hung, 1);
        assert_eq!(sup.stats().respawns, 1);
        // Progress on the respawn resets the idle count.
        assert!(matches!(sup.turn(0), Turn::Progress(_)));
    }

    #[test]
    fn exhausted_restart_budget_parks_the_slot_with_a_ledger_entry() {
        let trap = || PollOutcome {
            cycles: 5,
            frames: 0,
            violations: 0,
            stalled: false,
            status: DeviceStatus::Trapped("firmware trap: test".into()),
        };
        let sup = Supervisor::new(
            1,
            config(10, 2),
            Box::new(move |_, _| Scripted::boxed(vec![trap()])),
        );
        // Every boot traps on its first poll: 2 budgeted respawns, then park.
        assert!(matches!(sup.turn(0), Turn::Respawned(_)));
        assert!(matches!(sup.turn(0), Turn::Respawned(_)));
        assert!(matches!(sup.turn(0), Turn::Parked(_)));
        assert!(sup.is_parked(0));
        assert_eq!(sup.turn(0), Turn::Dead, "parked slots stay dead");
        let ledger = sup.ledger();
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger[0].slot, 0);
        assert_eq!(ledger[0].restarts_used, 2);
        assert!(ledger[0].reason.contains("firmware trap"));
        let stats = sup.stats();
        assert_eq!(stats.escalated_trapped, 3);
        assert_eq!(stats.respawns, 2);
        assert_eq!(stats.permanent_failures, 1);
    }

    #[test]
    fn clean_completion_recycles_without_spending_budget() {
        let done = || PollOutcome {
            cycles: 100,
            frames: 4,
            violations: 0,
            stalled: false,
            status: DeviceStatus::Completed,
        };
        let boots = std::sync::Arc::new(AtomicU64::new(0));
        let factory_boots = std::sync::Arc::clone(&boots);
        let sup = Supervisor::new(
            1,
            config(5, 0), // zero failure budget: any escalation would park
            Box::new(move |_, _| {
                factory_boots.fetch_add(1, Ordering::Relaxed);
                Scripted::boxed(vec![done()])
            }),
        );
        for _ in 0..5 {
            assert!(matches!(sup.turn(0), Turn::Recycled(_)));
        }
        assert!(!sup.is_parked(0), "free recycles never park");
        assert_eq!(sup.stats().completed_runs, 5);
        assert_eq!(sup.stats().respawns, 0);
        assert_eq!(
            boots.load(Ordering::Relaxed),
            6,
            "initial boot + 5 recycles"
        );
    }
}
