//! Superblock translation cache: whole-block dispatch over predecoded ops.
//!
//! [`DecodeCache`](crate::predecode::DecodeCache) removes the per-instruction
//! decode cost, but the interpreter still pays the full dispatch overhead on
//! every op: a cache probe, a control-flow classification check, a timing
//! model update, and (inside the SoC simulators) a transport poll. PR 4's
//! benchmark numbers showed that on call-dense workloads that overhead
//! dominates — the fast path barely broke 1.0×.
//!
//! [`BlockCache`] fixes the dispatch half of the problem. It stores
//! *translated superblocks*: straight-line runs of [`Predecoded`] ops,
//! terminated by (and including) the first control-flow instruction, laid
//! out contiguously in one arena so the core's block interpreter runs a
//! threaded chain of ops with a single bounds check and zero per-op cache
//! probes. A core executes a block op-by-op from the arena and only returns
//! to the (expensive) outer loop when something *observable* happens: a
//! CFI-relevant commit, a trap, a due sibling, or the cycle budget
//! expiring. Timing-model updates are still exact per-op — blocks
//! batch the *dispatch*, not the timing.
//!
//! # Keying and invalidation
//!
//! A block is keyed on `(entry pc, decode-cache generation)`. The generation
//! (see [`DecodeCache::generation`](crate::predecode::DecodeCache::generation))
//! is bumped by every store that passes the decode cache's code watermark
//! and by `invalidate_all`, so the existing store-span invalidation contract
//! carries over to whole blocks without a second span index: a store that
//! *could* alias code makes every cached block stale at once. Lookups with a
//! newer generation simply miss and retranslate. This is deliberately
//! coarse — self-modifying code is vanishingly rare in the workloads, and
//! coarse invalidation keeps the hot lookup to one tag + one generation
//! compare.
//!
//! Because the generation is *not* bumped while the planted
//! `mutate_skip_store_invalidation` bug is armed, stale blocks keep
//! executing under the mutation exactly like stale decode-cache entries do —
//! the fuzz oracle's mutation self-test exercises the block layer too.
//!
//! # Arena management
//!
//! Ops live in a single `Vec<Predecoded>` arena capped at
//! [`BlockCache::ARENA_CAP`]. When translation would overflow the cap the
//! whole cache resets (arena cleared, all slots emptied) — a full reset
//! costs a few retranslations and keeps the arena from growing without
//! bound under pathological conflict patterns. The slot table is
//! direct-mapped like the decode cache: conflicting entry pcs overwrite
//! each other, losing only cached work, never correctness.

use crate::predecode::{slot_count, Predecoded};

/// Slot-empty tag — no instruction can live at the top of the address space.
const EMPTY: u64 = u64::MAX;

/// Hit/miss/installation counters for a [`BlockCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockCacheStats {
    /// Lookups that found a current-generation block.
    pub hits: u64,
    /// Lookups that missed (cold, conflict-evicted, or stale generation).
    pub misses: u64,
    /// Blocks translated and installed.
    pub installs: u64,
    /// Wholesale arena resets (cap overflow).
    pub resets: u64,
}

/// One installed superblock: a contiguous arena span.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Entry pc of the block (`EMPTY` when the slot is vacant).
    pc: u64,
    /// Decode-cache generation the block was translated under.
    generation: u64,
    /// First op index in the arena.
    start: u32,
    /// Number of ops.
    len: u32,
}

const VACANT: Slot = Slot {
    pc: EMPTY,
    generation: 0,
    start: 0,
    len: 0,
};

/// Direct-mapped cache of translated superblocks over a shared op arena.
#[derive(Debug, Clone)]
pub struct BlockCache {
    slots: Vec<Slot>,
    mask: u64,
    arena: Vec<Predecoded>,
    stats: BlockCacheStats,
}

impl BlockCache {
    /// Default slot count. Kernels in the repo are well under 4096 distinct
    /// block entry points.
    pub const DEFAULT_SLOTS: usize = 4096;

    /// Arena capacity in ops. At the cap the cache resets wholesale; 64 Ki
    /// ops is roughly 8× the largest kernel image, so resets only fire
    /// under adversarial self-modification patterns.
    pub const ARENA_CAP: usize = 1 << 16;

    /// Longest block the translator will emit. Bounds the worst-case time a
    /// core spends inside one block between outer-loop checks.
    pub const MAX_BLOCK_OPS: usize = 64;

    /// A cache with `slots` entries (rounded up to a power of two, min 16).
    #[must_use]
    pub fn new(slots: usize) -> BlockCache {
        let n = slot_count(slots);
        BlockCache {
            slots: vec![VACANT; n],
            mask: n as u64 - 1,
            arena: Vec::new(),
            stats: BlockCacheStats::default(),
        }
    }

    /// Rebuilds the cache empty with `slots` entries (rounded as in
    /// [`BlockCache::new`]), unless it already has that many.
    pub fn resize(&mut self, slots: usize) {
        if self.slots.len() != slot_count(slots) {
            *self = BlockCache::new(slots);
        }
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        ((pc >> 1) & self.mask) as usize
    }

    /// Looks up the block installed for `pc` under `generation`. Returns the
    /// arena span `(start, len)` of its ops. A block translated under an
    /// older generation is treated as a miss (the caller retranslates and
    /// overwrites the slot).
    #[inline]
    pub fn lookup(&mut self, pc: u64, generation: u64) -> Option<(u32, u32)> {
        let slot = self.slots[self.index(pc)];
        if slot.pc == pc && slot.generation == generation {
            self.stats.hits += 1;
            Some((slot.start, slot.len))
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// The op at arena index `idx` (indices come from [`BlockCache::lookup`]
    /// or [`BlockCache::finish`] and stay valid until the next arena reset —
    /// i.e. for the duration of one block execution, since only
    /// [`BlockCache::begin`]/[`BlockCache::finish`] can reset).
    #[inline]
    #[must_use]
    pub fn op(&self, idx: u32) -> Predecoded {
        self.arena[idx as usize]
    }

    /// Starts translating a new block, returning the arena start index.
    /// Resets the whole cache first if the arena cannot fit a maximal block.
    pub fn begin(&mut self) -> u32 {
        if self.arena.len() + Self::MAX_BLOCK_OPS > Self::ARENA_CAP {
            self.arena.clear();
            self.slots.iter_mut().for_each(|s| *s = VACANT);
            self.stats.resets += 1;
        }
        self.arena.len() as u32
    }

    /// Appends one op to the block being translated. Must only be called
    /// between [`BlockCache::begin`] and [`BlockCache::finish`], at most
    /// [`BlockCache::MAX_BLOCK_OPS`] times.
    #[inline]
    pub fn push(&mut self, op: Predecoded) {
        debug_assert!(self.arena.len() < Self::ARENA_CAP);
        self.arena.push(op);
    }

    /// Installs the block begun at arena index `start` for `(pc,
    /// generation)`, returning its `(start, len)` span. A zero-length block
    /// (translation hit an undecodable word immediately) is not installed —
    /// the caller falls back to single-stepping and will trap there.
    pub fn finish(&mut self, pc: u64, generation: u64, start: u32) -> (u32, u32) {
        let len = self.arena.len() as u32 - start;
        if len > 0 {
            let idx = self.index(pc);
            self.slots[idx] = Slot {
                pc,
                generation,
                start,
                len,
            };
            self.stats.installs += 1;
        }
        (start, len)
    }

    /// Hit/miss/install/reset counters.
    #[must_use]
    pub fn stats(&self) -> BlockCacheStats {
        self.stats
    }
}

impl Default for BlockCache {
    fn default() -> BlockCache {
        BlockCache::new(BlockCache::DEFAULT_SLOTS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{decode, Xlen};
    use crate::encode::encode;
    use crate::inst::Inst;
    use crate::reg::Reg;

    fn op(inst: &Inst) -> Predecoded {
        Predecoded::new(decode(encode(inst), Xlen::Rv64).expect("decodes"))
    }

    #[test]
    fn install_then_lookup_round_trips() {
        let mut c = BlockCache::new(64);
        assert!(c.lookup(0x1000, 7).is_none());
        let start = c.begin();
        c.push(op(&Inst::NOP));
        c.push(op(&Inst::Jal {
            rd: Reg::RA,
            offset: 16,
        }));
        let (s, len) = c.finish(0x1000, 7, start);
        assert_eq!((s, len), (start, 2));
        assert_eq!(c.lookup(0x1000, 7), Some((start, 2)));
        assert_eq!(c.op(start).decoded.inst, Inst::NOP);
        assert_eq!(c.stats().installs, 1);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn stale_generation_misses() {
        let mut c = BlockCache::new(64);
        let start = c.begin();
        c.push(op(&Inst::NOP));
        c.finish(0x1000, 3, start);
        assert!(c.lookup(0x1000, 4).is_none(), "newer generation is stale");
        assert!(c.lookup(0x1000, 2).is_none(), "older generation is stale");
        assert!(c.lookup(0x1000, 3).is_some());
    }

    #[test]
    fn conflicting_pcs_overwrite_not_corrupt() {
        let mut c = BlockCache::new(16); // mask over (pc >> 1) & 15
        let start = c.begin();
        c.push(op(&Inst::NOP));
        c.finish(0x1000, 0, start);
        let start = c.begin();
        c.push(op(&Inst::Ecall));
        c.finish(0x1020, 0, start); // same slot as 0x1000
        assert!(c.lookup(0x1000, 0).is_none(), "conflict evicts older block");
        let (s, _) = c.lookup(0x1020, 0).expect("newer block present");
        assert_eq!(c.op(s).decoded.inst, Inst::Ecall);
    }

    #[test]
    fn zero_length_block_not_installed() {
        let mut c = BlockCache::new(64);
        let start = c.begin();
        let (_, len) = c.finish(0x1000, 0, start);
        assert_eq!(len, 0);
        assert!(c.lookup(0x1000, 0).is_none());
        assert_eq!(c.stats().installs, 0);
    }

    #[test]
    fn arena_overflow_resets_everything() {
        let mut c = BlockCache::new(64);
        let start = c.begin();
        c.push(op(&Inst::NOP));
        c.finish(0x1000, 0, start);
        // Fill the arena to within one maximal block of the cap.
        while c.arena.len() + BlockCache::MAX_BLOCK_OPS <= BlockCache::ARENA_CAP {
            c.arena.push(op(&Inst::NOP));
        }
        let start = c.begin(); // must reset
        assert_eq!(start, 0);
        assert_eq!(c.stats().resets, 1);
        assert!(
            c.lookup(0x1000, 0).is_none(),
            "reset drops installed blocks whose arena spans are gone"
        );
    }
}
