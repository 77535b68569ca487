//! The fleet's commit-log transport: one lock-free in-process ring per
//! device.
//!
//! Every frame on the ring is the 32-byte wire frame of
//! [`titancfi::wire`]: the 28-byte commit-log record plus the resilience
//! layer's seq+checksum integrity word. The monitor side decodes and
//! *verifies* each frame at ingest, so corruption between a device and the
//! fleet service is detected and counted rather than silently aggregated —
//! the same property the mailbox hardware enforces at doorbell-ring time.
//!
//! [`InProcRing`] is the only transport. The paper moves commit logs along
//! one path (AXI beats into the RoT's mailbox), the fleet runs every device
//! in one process, and std offers no shared-memory mapping, so a second
//! backend would only emulate a boundary nothing crosses. The
//! [`Transport`] trait and the one-variant [`Backend`] stay because the
//! benchmark package (`benchmark/src/fleet.rs`, `benchmark/src/run.rs`)
//! names them: devices hold an `Arc<dyn Transport>`.
//!
//! Backpressure is explicit: a full ring accepts a short prefix of a
//! batch and counts the stall — it never spins, drops, or silently grows.
//!
//! ## Batched operation
//!
//! Frames move in *bursts*: one [`Transport::send_many`] /
//! [`Transport::try_recv_many`] call pays one cursor publish for a whole
//! batch of frames. A partial `send_many` counts exactly one stall.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use titancfi::wire::{Frame, SeqTracker, FRAME_BYTES};
use titancfi::CommitLog;

/// The transport kind. There is one; the type stays only because the
/// benchmark package pins it through [`crate::FleetConfig::backend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Bounded lock-free in-process ring buffer of frames.
    InProcRing,
}

/// Outcome of one [`Transport::try_recv_many`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecvBatch {
    /// Verified frames written to the caller's buffer, in wire order.
    pub received: usize,
    /// Frames consumed from the transport but rejected by the integrity
    /// word (also counted in [`TransportStats::corrupt`]).
    pub corrupt: usize,
}

impl RecvBatch {
    /// Total frames removed from the transport by the call — the ingest
    /// loop's progress measure (a corrupt frame is still progress).
    #[must_use]
    pub fn moved(&self) -> usize {
        self.received + self.corrupt
    }
}

/// A transport's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Frames accepted by `send_many`.
    pub sent: u64,
    /// Frames handed out by `try_recv_many` (verified only).
    pub received: u64,
    /// Frames rejected at ingest by the integrity word.
    pub corrupt: u64,
    /// Send stalls: `send_many` calls that accepted less than their whole
    /// batch (one stall per backpressured call, not per refused frame).
    pub would_block: u64,
}

/// A device→monitor commit-log channel. Implementations use interior
/// mutability: the device side calls [`Transport::send_many`], the monitor
/// side [`Transport::try_recv_many`], concurrently.
pub trait Transport: Send + Sync {
    /// Enqueues a prefix of `frames` in one synchronization episode and
    /// returns how many were accepted. A short count means the transport
    /// filled mid-batch, which counts exactly one stall in
    /// [`TransportStats::would_block`].
    fn send_many(&self, frames: &[Frame]) -> usize;
    /// Dequeues and verifies up to `out.len()` frames in one
    /// synchronization episode. Verified frames land in `out[..received]`
    /// in wire order; corrupt frames are consumed, counted, and skipped.
    fn try_recv_many(&self, out: &mut [Frame]) -> RecvBatch;
    /// Counter snapshot.
    fn stats(&self) -> TransportStats;
}

/// The ring's counters.
#[derive(Debug, Default)]
struct Counters {
    sent: AtomicU64,
    received: AtomicU64,
    corrupt: AtomicU64,
    would_block: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> TransportStats {
        TransportStats {
            sent: self.sent.load(Ordering::Relaxed),
            received: self.received.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            would_block: self.would_block.load(Ordering::Relaxed),
        }
    }
}

/// A cache-line-sized box so the producer cursor, consumer cursor, and
/// their cached copies never share a line (false sharing would put the
/// "lock-free" ring right back on the coherence bus every frame).
#[repr(align(64))]
#[derive(Debug, Default)]
struct CacheLine<T>(T);

/// Exclusive-side gate: the SPSC protocol is only sound with one producer
/// and one consumer at a time, but [`Transport`] is an `Arc`-shared `&self`
/// API that cannot enforce that statically. Each side therefore claims a
/// one-word gate around its critical section. In the intended SPSC use the
/// gate is always uncontended — one relaxed-failure CAS and one release
/// store, never a shared line with the *other* side — and under accidental
/// same-side concurrency it degrades to a spin, preserving soundness
/// instead of corrupting cursors.
#[derive(Debug, Default)]
struct Gate(AtomicBool);

struct GateGuard<'a>(&'a AtomicBool);

impl Gate {
    fn claim(&self) -> GateGuard<'_> {
        while self
            .0
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
        GateGuard(&self.0)
    }
}

impl Drop for GateGuard<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

/// Bounded lock-free SPSC ring of encoded frames — the fleet's transport
/// takes **zero locks per frame**.
///
/// ## Memory-ordering argument
///
/// Cursors are monotonic (never masked); `tail` is written only by the
/// producer, `head` only by the consumer.
///
/// * **Publish:** the producer writes the slot bytes, *then* stores
///   `tail + n` with `Release`. The consumer loads `tail` with `Acquire`
///   before reading any slot, so the release/acquire pair orders the slot
///   writes before the consumer's reads (no torn or stale frames).
/// * **Reclaim:** the consumer copies the slot out, *then* stores
///   `head + n` with `Release`. The producer loads `head` with `Acquire`
///   before overwriting a slot, so a slot is never rewritten while the
///   consumer may still read it.
/// * **Cached cursors:** each side keeps a relaxed-only copy of the other
///   side's cursor (`head_cache` written by the producer, `tail_cache` by
///   the consumer) and re-reads the shared cursor only when the cache says
///   full/empty. A steady-state send or recv therefore touches *only*
///   lines owned by its own side — the same discipline that lets
///   `harness::steal` keep the common case uncontended, taken all the way
///   to zero locks.
///
/// Batched sends/receives run the protocol once per batch: n slot copies,
/// one cursor publish.
#[derive(Debug)]
pub struct InProcRing {
    /// Frame slots; `slots.len()` is a power of two ≥ `capacity`.
    slots: Box<[UnsafeCell<[u8; FRAME_BYTES]>]>,
    /// Logical capacity (occupancy never exceeds this).
    capacity: usize,
    /// `slots.len() - 1`, for cheap index masking.
    mask: usize,
    /// Consumer cursor: next slot index to read (monotonic).
    head: CacheLine<AtomicUsize>,
    /// Producer cursor: next slot index to write (monotonic).
    tail: CacheLine<AtomicUsize>,
    /// Producer-owned cache of `head` (relaxed; refreshed on apparent full).
    head_cache: CacheLine<AtomicUsize>,
    /// Consumer-owned cache of `tail` (relaxed; refreshed on apparent empty).
    tail_cache: CacheLine<AtomicUsize>,
    producer_gate: Gate,
    consumer_gate: Gate,
    counters: Counters,
}

// SAFETY: the `UnsafeCell` slots are only accessed under the SPSC
// publish/reclaim protocol documented above (release/acquire cursor
// handoff), with each side serialized by its gate; no slot is ever read
// and written concurrently.
unsafe impl Send for InProcRing {}
unsafe impl Sync for InProcRing {}

impl InProcRing {
    /// A ring holding at most `capacity` frames (clamped to at least one).
    #[must_use]
    pub fn new(capacity: usize) -> InProcRing {
        let capacity = capacity.max(1);
        let slots = (0..capacity.next_power_of_two())
            .map(|_| UnsafeCell::new([0u8; FRAME_BYTES]))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let mask = slots.len() - 1;
        InProcRing {
            slots,
            capacity,
            mask,
            head: CacheLine(AtomicUsize::new(0)),
            tail: CacheLine(AtomicUsize::new(0)),
            head_cache: CacheLine(AtomicUsize::new(0)),
            tail_cache: CacheLine(AtomicUsize::new(0)),
            producer_gate: Gate::default(),
            consumer_gate: Gate::default(),
            counters: Counters::default(),
        }
    }

    /// Producer-side free-slot count, refreshing the cached head only when
    /// the cache cannot satisfy `wanted` slots. Call with the producer gate
    /// held.
    fn free_slots(&self, tail: usize, wanted: usize) -> usize {
        let mut head = self.head_cache.0.load(Ordering::Relaxed);
        if self.capacity - (tail - head) < wanted {
            head = self.head.0.load(Ordering::Acquire);
            self.head_cache.0.store(head, Ordering::Relaxed);
        }
        self.capacity - (tail - head)
    }

    /// Consumer-side occupied-slot count, refreshing the cached tail only
    /// when the cache holds fewer than `wanted` frames. Call with the
    /// consumer gate held.
    fn occupied_slots(&self, head: usize, wanted: usize) -> usize {
        let mut tail = self.tail_cache.0.load(Ordering::Relaxed);
        if tail - head < wanted {
            tail = self.tail.0.load(Ordering::Acquire);
            self.tail_cache.0.store(tail, Ordering::Relaxed);
        }
        tail - head
    }
}

impl Transport for InProcRing {
    fn send_many(&self, frames: &[Frame]) -> usize {
        if frames.is_empty() {
            return 0;
        }
        let _gate = self.producer_gate.claim();
        let tail = self.tail.0.load(Ordering::Relaxed); // producer-owned
        let n = self.free_slots(tail, frames.len()).min(frames.len());
        for (i, frame) in frames[..n].iter().enumerate() {
            let slot = (tail + i) & self.mask;
            // SAFETY: slots [tail, tail + n) are unoccupied (free_slots
            // proved head has moved past them, with Acquire), and only
            // this producer — serialized by the gate — writes slots.
            unsafe { *self.slots[slot].get() = frame.encode() };
        }
        // Publish: slot writes above happen-before any consumer that
        // acquires this new tail.
        self.tail.0.store(tail + n, Ordering::Release);
        self.counters.sent.fetch_add(n as u64, Ordering::Relaxed);
        if n < frames.len() {
            self.counters.would_block.fetch_add(1, Ordering::Relaxed);
        }
        n
    }

    fn try_recv_many(&self, out: &mut [Frame]) -> RecvBatch {
        if out.is_empty() {
            return RecvBatch::default();
        }
        let _gate = self.consumer_gate.claim();
        let head = self.head.0.load(Ordering::Relaxed); // consumer-owned
        let n = self.occupied_slots(head, out.len()).min(out.len());
        let mut batch = RecvBatch::default();
        for i in 0..n {
            let slot = (head + i) & self.mask;
            // SAFETY: slots [head, head + n) were published by a Release
            // store of tail that occupied_slots Acquired; the producer
            // will not rewrite them until head moves past.
            let bytes = unsafe { *self.slots[slot].get() };
            match Frame::decode(&bytes) {
                Ok(frame) => {
                    out[batch.received] = frame;
                    batch.received += 1;
                }
                Err(_) => batch.corrupt += 1,
            }
        }
        // Reclaim: the copies above happen-before the producer reuses the
        // slots.
        self.head.0.store(head + n, Ordering::Release);
        if n > 0 {
            let counters = &self.counters;
            counters
                .received
                .fetch_add(batch.received as u64, Ordering::Relaxed);
            counters
                .corrupt
                .fetch_add(batch.corrupt as u64, Ordering::Relaxed);
        }
        batch
    }

    fn stats(&self) -> TransportStats {
        self.counters.snapshot()
    }
}

/// Routes a commit-log stream through a fresh ring and returns the
/// reassembled logs — the fuzz oracle's "fleet ingest" cell. The ring is
/// sized *smaller* than the stream so the pump exercises real
/// backpressure (send until the ring is full, drain, repeat).
///
/// # Errors
///
/// Reports corrupt frames, out-of-order sequence numbers, or a stuck pump
/// as a human-readable string.
pub fn ingest_roundtrip(logs: &[CommitLog]) -> Result<Vec<CommitLog>, String> {
    const CAPACITY: usize = 8;
    let ring = InProcRing::new(CAPACITY);
    let frames: Vec<Frame> = logs
        .iter()
        .enumerate()
        .map(|(i, &log)| Frame {
            seq: (i as u16).wrapping_add(1),
            log,
        })
        .collect();
    let mut tracker = SeqTracker::new();
    let mut buf = [Frame {
        seq: 0,
        log: CommitLog::default(),
    }; CAPACITY];
    let mut out = Vec::with_capacity(logs.len());
    let mut next = 0usize;
    while out.len() < logs.len() {
        let sent = ring.send_many(&frames[next..]);
        next += sent;
        let batch = ring.try_recv_many(&mut buf);
        if batch.corrupt > 0 {
            return Err("corrupt frame at ingest".to_string());
        }
        for frame in &buf[..batch.received] {
            if !tracker.observe(frame.seq) {
                return Err(format!(
                    "out-of-order frame (seq {}, dups {}, gaps {})",
                    frame.seq, tracker.duplicates, tracker.gaps
                ));
            }
            out.push(frame.log);
        }
        if sent == 0 && batch.received == 0 {
            return Err(format!("pump stuck at {}/{} logs", out.len(), logs.len()));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl InProcRing {
        /// Flips one bit inside the oldest queued frame, modelling in-flight
        /// corruption between a device and the monitor.
        fn corrupt_oldest(&mut self, bit: u32) {
            let head = *self.head.0.get_mut();
            if head == *self.tail.0.get_mut() {
                return; // empty
            }
            let slot = self.slots[head & self.mask].get_mut();
            slot[(bit as usize / 8) % FRAME_BYTES] ^= 1 << (bit % 8);
        }
    }

    fn log(i: u64) -> CommitLog {
        CommitLog {
            pc: 0x8000_0000 + i * 4,
            insn: 0x0000_8067,
            next: 0x8000_0004 + i * 4,
            target: 0x9000_0000 + i * 8,
        }
    }

    fn frame(i: u64) -> Frame {
        Frame {
            seq: (i as u16).wrapping_add(1),
            log: log(i),
        }
    }

    fn zero_frame() -> Frame {
        Frame {
            seq: 0,
            log: CommitLog::default(),
        }
    }

    fn frames(range: std::ops::Range<u64>) -> Vec<Frame> {
        range.map(frame).collect()
    }

    /// Receives whatever one `try_recv_many` of up to `max` frames yields.
    fn recv(t: &InProcRing, max: usize) -> (Vec<Frame>, RecvBatch) {
        let mut buf = vec![zero_frame(); max];
        let batch = t.try_recv_many(&mut buf);
        buf.truncate(batch.received);
        (buf, batch)
    }

    #[test]
    fn ring_roundtrips_in_order() {
        let t = InProcRing::new(8);
        assert_eq!(t.send_many(&frames(0..5)), 5);
        assert_eq!(recv(&t, 8).0, frames(0..5), "wire order");
        assert_eq!(recv(&t, 8).1, RecvBatch::default(), "drained");
        let s = t.stats();
        assert_eq!((s.sent, s.received, s.corrupt), (5, 5, 0));
    }

    #[test]
    fn inproc_ring_full_is_explicit_backpressure() {
        let t = InProcRing::new(3);
        assert_eq!(t.send_many(&frames(0..3)), 3);
        assert_eq!(t.send_many(&frames(3..4)), 0);
        assert_eq!(t.send_many(&frames(3..4)), 0);
        assert_eq!(t.stats().would_block, 2, "stalls are counted");
        // Draining one slot unblocks exactly one send.
        assert_eq!(recv(&t, 1).0, frames(0..1));
        assert_eq!(t.send_many(&frames(3..5)), 1, "one slot freed");
        assert_eq!(t.stats().sent, 4);
    }

    #[test]
    fn inproc_ring_wraps_many_times_without_reordering() {
        // A capacity that is not a power of two, cycled enough times to
        // wrap both cursors repeatedly.
        let t = InProcRing::new(3);
        let mut sent = 0u64;
        let mut got = 0u64;
        while got < 1000 {
            sent += t.send_many(&frames(sent..sent + 5)) as u64;
            loop {
                let (batch, outcome) = recv(&t, 2);
                assert_eq!(outcome.corrupt, 0, "clean ring");
                if batch.is_empty() {
                    break;
                }
                for f in batch {
                    assert_eq!(f, frame(got), "wire order across wraps");
                    got += 1;
                }
            }
        }
        let s = t.stats();
        assert_eq!(s.received, s.sent, "fully drained after the last cycle");
        assert!(s.received >= 1000);
    }

    #[test]
    fn inproc_ring_is_lossless_under_concurrent_producer_consumer() {
        // The SPSC protocol's real test: one producer thread, one consumer
        // thread, a tiny ring, every frame delivered exactly once in order.
        const FRAMES: u64 = 20_000;
        let t = InProcRing::new(4);
        std::thread::scope(|scope| {
            let t = &t;
            scope.spawn(move || {
                let mut i = 0u64;
                while i < FRAMES {
                    if t.send_many(&[frame(i)]) == 1 {
                        i += 1;
                    } else {
                        // On a single-core host the consumer needs the
                        // time slice to free space; spinning would burn it.
                        std::thread::yield_now();
                    }
                }
            });
            let mut tracker = SeqTracker::new();
            let mut got = 0u64;
            let mut buf = [zero_frame(); 8];
            while got < FRAMES {
                let batch = t.try_recv_many(&mut buf);
                assert_eq!(batch.corrupt, 0);
                for f in &buf[..batch.received] {
                    assert_eq!(*f, frame(got), "exact wire order under concurrency");
                    assert!(tracker.observe(f.seq));
                    got += 1;
                }
                if batch.received == 0 {
                    std::thread::yield_now();
                }
            }
            assert_eq!((tracker.duplicates, tracker.gaps), (0, 0));
        });
        let s = t.stats();
        assert_eq!((s.sent, s.received, s.corrupt), (FRAMES, FRAMES, 0));
    }

    #[test]
    fn corruption_is_detected_at_ingest() {
        // Frame-at-a-time ingest: a one-slot batch that meets a flipped
        // frame reports it as corrupt, and the next frame arrives intact.
        let mut t = InProcRing::new(4);
        assert_eq!(t.send_many(&frames(0..2)), 2);
        t.corrupt_oldest(13);
        let (got, batch) = recv(&t, 1);
        assert_eq!(
            batch,
            RecvBatch {
                received: 0,
                corrupt: 1
            },
            "flip caught by the integrity word"
        );
        assert!(got.is_empty());
        assert_eq!(recv(&t, 1).0, frames(1..2), "later frames intact");
        let s = t.stats();
        assert_eq!((s.received, s.corrupt), (1, 1));
    }

    #[test]
    fn corruption_is_skipped_and_counted_by_batched_recv() {
        let mut t = InProcRing::new(4);
        assert_eq!(t.send_many(&frames(0..3)), 3);
        t.corrupt_oldest(21);
        let (got, batch) = recv(&t, 4);
        assert_eq!(
            batch,
            RecvBatch {
                received: 2,
                corrupt: 1
            },
            "flip caught by the integrity word"
        );
        assert_eq!(batch.moved(), 3, "corrupt frames still count as progress");
        assert_eq!(got, frames(1..3), "good frames keep order");
        let s = t.stats();
        assert_eq!((s.received, s.corrupt), (2, 1));
    }

    #[test]
    fn send_many_accepts_exactly_the_free_space_and_counts_one_stall() {
        let t = InProcRing::new(4);
        let all = frames(0..7);
        assert_eq!(t.send_many(&all), 4, "prefix fills capacity");
        assert_eq!(t.stats().would_block, 1, "one partial batch = one stall");
        assert_eq!(t.send_many(&all[4..]), 0, "still full");
        assert_eq!(t.stats().would_block, 2);
        let (got, batch) = recv(&t, 8);
        assert_eq!(
            batch,
            RecvBatch {
                received: 4,
                corrupt: 0
            }
        );
        assert_eq!(got, &all[..4], "order preserved");
        // Freed space accepts the rest of the batch.
        assert_eq!(t.send_many(&all[4..]), 3);
    }

    #[test]
    fn partial_batch_drain_returns_short_counts_at_shutdown() {
        // The drain path asks for more than is buffered: the batch comes
        // back short rather than blocking, and a second call reports empty.
        let t = InProcRing::new(16);
        assert_eq!(t.send_many(&frames(0..5)), 5);
        let (got, batch) = recv(&t, 16);
        assert_eq!(
            batch,
            RecvBatch {
                received: 5,
                corrupt: 0
            }
        );
        assert_eq!(got, frames(0..5));
        assert_eq!(recv(&t, 16).1, RecvBatch::default(), "drained");
    }

    #[test]
    fn ingest_roundtrip_reassembles_the_stream_byte_identically() {
        let logs: Vec<CommitLog> = (0..100).map(log).collect();
        let got = ingest_roundtrip(&logs).expect("clean roundtrip");
        assert_eq!(got, logs);
        assert_eq!(
            titancfi::wire::stream_bytes(&got),
            titancfi::wire::stream_bytes(&logs),
            "byte-identical"
        );
    }
}
