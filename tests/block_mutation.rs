//! The planted decode-cache bug (`mutate_skip_store_invalidation`) must
//! stay observable *through the superblock layer*: with the hook armed a
//! store neither evicts its slot nor bumps the generation counter, so
//! CVA6's block dispatch replays stale translations (and the Ibex decode
//! cache a stale decode) and self-modifying code goes wrong under the fast
//! path while strict stepping stays correct — exactly the divergence the
//! fuzz mutation self-test (`crates/fuzz/tests/mutation.rs`) hunts for.
//!
//! The hook is process-global, so this file contains exactly one test and
//! lives in its own integration-test binary (its own process) — it must
//! never share a process with other simulator tests.

use cva6_model::{Cva6Core, Halt, TimingConfig};
use ibex_model::{IbexCore, IbexTiming, RegionKind, RegionLatency, SystemBus};
use riscv_asm::assemble;
use riscv_isa::predecode::set_mutate_skip_store_invalidation;
use riscv_isa::{Reg, Xlen};

/// Same self-patching shape as `tests/decode_cache.rs`: correct runs end
/// with a0 == 3; a replayed stale `li a0, 1` ends with a0 == 2.
const SELF_MODIFYING: &str = r"
_start:
    la   t0, patch
    li   t1, 0x00200513      # encoding of `li a0, 2`
    jal  ra, patch           # a0 = 1 (and the site is now cached)
    mv   s0, a0
    sw   t1, 0(t0)           # overwrite the cached instruction
    jal  ra, patch           # must fetch the new encoding: a0 = 2
    add  a0, a0, s0          # 3
    ebreak
patch:
    li   a0, 1
    ret
";

fn cva6_a0(predecode: bool) -> u64 {
    let prog = assemble(SELF_MODIFYING, Xlen::Rv64, 0x8000_0000).expect("assembles");
    let mut core = Cva6Core::new(&prog, 0x1_0000, TimingConfig::default());
    core.set_predecode(predecode);
    assert_eq!(core.run_silent(100_000), Halt::Breakpoint);
    core.reg(Reg::A0)
}

fn ibex_a0(predecode: bool) -> u64 {
    let prog = assemble(SELF_MODIFYING, Xlen::Rv32, 0x1_0000).expect("assembles");
    let mut bus = SystemBus::new();
    bus.add_ram(
        0x1_0000,
        0x1_0000,
        RegionKind::RotPrivate,
        RegionLatency::symmetric(1),
    );
    bus.load(prog.base, &prog.bytes);
    let mut core = IbexCore::new(bus, prog.entry, IbexTiming::default());
    core.set_predecode(predecode);
    let (_, event) = core.run_until_idle(100_000);
    assert!(matches!(event, Some(ibex_model::IbexEvent::Trapped(_))));
    core.hart.reg(Reg::A0)
}

#[test]
fn armed_mutation_is_visible_through_the_block_layer() {
    // Baseline: both stepping styles agree while the hook is disarmed.
    assert_eq!(cva6_a0(false), 3);
    assert_eq!(cva6_a0(true), 3);
    assert_eq!(ibex_a0(false), 3);
    assert_eq!(ibex_a0(true), 3);

    set_mutate_skip_store_invalidation(true);
    // Strict stepping fetches from memory each commit — immune to the bug.
    let strict_cva6 = cva6_a0(false);
    let strict_ibex = ibex_a0(false);
    // Predecoded runs replay cached decodes (CVA6's `run_silent` through
    // its superblock layer, Ibex's `run_until_idle` through its decode
    // cache), so the skipped invalidation must surface as a stale replay.
    let block_cva6 = cva6_a0(true);
    let block_ibex = ibex_a0(true);
    set_mutate_skip_store_invalidation(false);

    assert_eq!(strict_cva6, 3, "strict stepping is immune to the mutation");
    assert_eq!(strict_ibex, 3, "strict stepping is immune to the mutation");
    assert_eq!(
        block_cva6, 2,
        "the armed mutation must replay the stale block on CVA6 — if it \
         doesn't, the fuzz mutation self-test has lost its teeth"
    );
    assert_eq!(
        block_ibex, 2,
        "the armed mutation must replay the stale decode on Ibex — if it \
         doesn't, the fuzz mutation self-test has lost its teeth"
    );

    // Disarmed again, the same programs are correct — the divergence above
    // is the mutation, not the block layer.
    assert_eq!(cva6_a0(true), 3);
    assert_eq!(ibex_a0(true), 3);
}
