//! The CFI Queue and its Queue Controller.
//!
//! Paper §IV-B2: the queue is a FIFO buffering commit logs between the
//! filters and the Log Writer. Its push port accepts **one log per cycle**;
//! the Queue Controller inhibits the CVA6 commit stage when (a) the queue
//! is full, or (b) *both* commit ports retire a control-flow instruction in
//! the same cycle (two pushes would be needed). The queue depth is the key
//! run-time/area knob: Table II uses depth 1, Table III depth 8.

use crate::commit_log::CommitLog;
use std::collections::VecDeque;
use titancfi_obs::{Probe, Track};

/// A queue entry: a commit log tagged with the host core that retired it,
/// so one queue and one Log Writer serve any number of monitored cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaggedLog {
    /// Originating host core (always 0 on a single-core SoC).
    pub core: u8,
    /// The log.
    pub log: CommitLog,
}

impl From<CommitLog> for TaggedLog {
    /// A log from core 0.
    fn from(log: CommitLog) -> TaggedLog {
        TaggedLog { core: 0, log }
    }
}

/// The commit-log FIFO.
#[derive(Debug, Clone)]
pub struct CfiQueue {
    entries: VecDeque<TaggedLog>,
    depth: usize,
    /// High-water mark (for area/behaviour analysis).
    pub max_occupancy: usize,
    /// Total pushes accepted.
    pub pushes: u64,
}

impl CfiQueue {
    /// A queue of the given `depth` (entries).
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    #[must_use]
    pub fn new(depth: usize) -> CfiQueue {
        assert!(depth > 0, "queue depth must be at least 1");
        CfiQueue {
            entries: VecDeque::with_capacity(depth),
            depth,
            max_occupancy: 0,
            pushes: 0,
        }
    }

    /// Configured depth.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Current occupancy.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue holds no logs.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether a push would be refused.
    #[must_use]
    #[inline]
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.depth
    }

    /// Pushes a log (a bare [`CommitLog`] counts as core 0's); returns
    /// `false` (and drops nothing) when full.
    #[inline]
    pub fn push(&mut self, entry: impl Into<TaggedLog>) -> bool {
        if self.is_full() {
            return false;
        }
        self.entries.push_back(entry.into());
        self.pushes += 1;
        self.max_occupancy = self.max_occupancy.max(self.entries.len());
        true
    }

    /// Like [`CfiQueue::push`], marking the push on the queue timeline
    /// track and sampling the resulting occupancy.
    pub fn push_probed(
        &mut self,
        entry: impl Into<TaggedLog>,
        cycle: u64,
        probe: &mut dyn Probe,
    ) -> bool {
        let pushed = self.push(entry);
        if pushed {
            probe.log_accepted(cycle);
        }
        if probe.enabled() {
            if pushed {
                probe.counter_add("queue.pushes", 1);
                probe.instant(Track::Queue, "push", cycle);
                probe.counter_sample("queue.occupancy", cycle, self.len() as u64);
            } else {
                probe.counter_add("queue.rejects", 1);
            }
        }
        pushed
    }

    /// Pops the oldest log.
    #[inline]
    pub fn pop(&mut self) -> Option<TaggedLog> {
        self.entries.pop_front()
    }

    /// Like [`CfiQueue::pop`], marking the pop on the queue timeline track
    /// and sampling the resulting occupancy.
    pub fn pop_probed(&mut self, cycle: u64, probe: &mut dyn Probe) -> Option<TaggedLog> {
        let entry = self.pop();
        if entry.is_some() && probe.enabled() {
            probe.instant(Track::Queue, "pop", cycle);
            probe.counter_sample("queue.occupancy", cycle, self.len() as u64);
        }
        entry
    }

    /// Peeks at the oldest log without removing it.
    #[must_use]
    #[inline]
    pub fn front(&self) -> Option<&TaggedLog> {
        self.entries.front()
    }
}

/// The Queue Controller's stall counters. The stall policy itself is
/// applied by the SoC run loop at each queue push.
#[derive(Debug, Clone, Default)]
pub struct QueueController {
    /// Cycles stalled because the queue was full.
    pub stalls_queue_full: u64,
    /// Stalls because two CF instructions tried to commit together.
    pub stalls_dual_cf: u64,
}

impl QueueController {
    /// A fresh controller.
    #[must_use]
    pub fn new() -> QueueController {
        QueueController::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(pc: u64) -> CommitLog {
        CommitLog {
            pc,
            insn: 0x0000_8067,
            next: pc + 4,
            target: 0x100,
        }
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = CfiQueue::new(4);
        for pc in [10, 20, 30] {
            assert!(q.push(log(pc)));
        }
        assert_eq!(q.pop().map(|e| e.log.pc), Some(10));
        assert_eq!(q.pop().map(|e| e.log.pc), Some(20));
        assert_eq!(q.front().map(|e| e.log.pc), Some(30));
        assert_eq!(q.pop().map(|e| e.log.pc), Some(30));
        assert!(q.pop().is_none());
    }

    #[test]
    fn entries_keep_their_source_core() {
        let mut q = CfiQueue::new(2);
        q.push(log(1));
        q.push(TaggedLog {
            core: 1,
            log: log(2),
        });
        assert_eq!(q.pop().map(|e| e.core), Some(0), "a bare log is core 0's");
        assert_eq!(q.pop().map(|e| e.core), Some(1));
    }

    #[test]
    fn push_refused_when_full() {
        let mut q = CfiQueue::new(1);
        assert!(q.push(log(1)));
        assert!(q.is_full());
        assert!(!q.push(log(2)), "second push must be refused at depth 1");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pushes, 1);
    }

    #[test]
    fn occupancy_high_water_mark() {
        let mut q = CfiQueue::new(8);
        for pc in 0..5 {
            q.push(log(pc));
        }
        q.pop();
        q.pop();
        assert_eq!(q.len(), 3);
        assert_eq!(q.max_occupancy, 5);
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn zero_depth_rejected() {
        let _ = CfiQueue::new(0);
    }
}
