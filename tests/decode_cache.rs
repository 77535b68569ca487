//! The predecoded-instruction cache must be architecturally invisible:
//! stale entries are impossible (stores into executable ranges evict),
//! and the fast path (predecode + block-compiled dispatch) retires the exact
//! same instruction stream, cycle counts, and CFI verdicts as strict
//! per-cycle stepping — pinned here for the bare cores, the full SoC,
//! the multi-core SoC, the scrambled secure-boot flash path, and every
//! table binary of the evaluation harness.
//!
//! All tests except `tables_byte_identical_with_fast_path_default_flipped`
//! set predecode/fast-path explicitly per instance, so they are immune to
//! the global-default flip that test performs (tests share one process).

use cva6_model::{Cva6Core, Halt, TimingConfig};
use ibex_model::{IbexCore, IbexTiming, RegionKind, RegionLatency, SystemBus};
use opentitan_model::hmac::HmacEngine;
use opentitan_model::secure_boot::{boot, provision, IMAGE_BASE_WORD};
use opentitan_model::Flash;
use riscv_asm::assemble;
use riscv_isa::{Reg, Xlen};
use titancfi_soc::{DualHostSoc, SocConfig, SystemOnChip};
use titancfi_workloads::kernels::{all_kernels, KERNEL_MEM};

/// A program that patches one of its own instructions: the first call of
/// `patch` must execute the original `li a0, 1`, the second call the
/// stored-over `li a0, 2`. A decode cache that failed to invalidate on
/// the store would replay the stale `li a0, 1` and end with a0 == 2.
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

#[test]
fn cva6_store_to_cached_instruction_invalidates() {
    let prog = assemble(SELF_MODIFYING, Xlen::Rv64, 0x8000_0000).expect("assembles");
    let mut runs = Vec::new();
    for predecode in [false, true] {
        let mut core = Cva6Core::new(&prog, 0x1_0000, TimingConfig::default());
        core.set_predecode(predecode);
        let halt = core.run_silent(100_000);
        assert_eq!(halt, Halt::Breakpoint, "predecode={predecode}");
        assert_eq!(
            core.reg(Reg::A0),
            3,
            "predecode={predecode}: stale decode-cache entry executed"
        );
        if predecode {
            let stats = core.decode_cache_stats();
            assert!(stats.hits > 0, "fast path must actually hit the cache");
            assert!(
                stats.invalidated > 0,
                "the self-modifying store must evict its slot"
            );
        }
        runs.push((core.cycle(), core.stats()));
    }
    assert_eq!(runs[0], runs[1], "fast path must be cycle-invisible");
}

fn ibex_system(src: &str) -> IbexCore {
    let prog = assemble(src, Xlen::Rv32, 0x1_0000).expect("assembles");
    let mut bus = SystemBus::new();
    bus.add_ram(
        0x1_0000,
        0x1_0000,
        RegionKind::RotPrivate,
        RegionLatency::symmetric(1),
    );
    bus.load(prog.base, &prog.bytes);
    IbexCore::new(bus, prog.entry, IbexTiming::default())
}

#[test]
fn ibex_store_to_cached_instruction_invalidates() {
    let mut runs = Vec::new();
    for predecode in [false, true] {
        let mut core = ibex_system(SELF_MODIFYING);
        core.set_predecode(predecode);
        let (burst, event) = core.run_until_idle(100_000);
        assert!(
            matches!(event, Some(ibex_model::IbexEvent::Trapped(_))),
            "predecode={predecode}: expected the ebreak trap, got {event:?}"
        );
        assert_eq!(
            core.hart.reg(Reg::A0),
            3,
            "predecode={predecode}: stale decode-cache entry executed"
        );
        if predecode {
            assert!(core.decode_cache_stats().invalidated > 0);
        }
        runs.push((core.cycle(), burst.len()));
    }
    assert_eq!(runs[0], runs[1], "fast path must be cycle-invisible");
}

/// A patch whose span crosses a superblock boundary: `p1` is the tail of
/// the block entered at `p1` *and* `p2` heads its own block (it is a jump
/// target of the second call). One 8-byte store rewrites both at once, so
/// both blocks must retranslate. Correct runs end with a0 == 27; a stale
/// `p2` block yields 24, a stale `p1` block 25.
const STRADDLE_RV64: &str = r"
_start:
    la   t0, p1
    li   t1, 0x00700513      # encoding of `li a0, 7`
    li   t2, 0x00900593      # encoding of `li a1, 9`
    slli t2, t2, 32
    or   t1, t1, t2          # one doubleword carrying both replacements
    jal  ra, p1              # a0 = 5, a1 = 6; caches the block spanning p1..ret
    jal  ra, p2              # a1 = 6; caches the block headed at the boundary
    add  s0, a0, a1          # 11
    sd   t1, 0(t0)           # one store straddling the p1|p2 block boundary
    jal  ra, p1              # must refetch: a0 = 7, a1 = 9
    add  s0, s0, a0          # 18
    jal  ra, p2              # must refetch: a1 = 9
    add  a0, s0, a1          # 27
    ebreak
p1:
    li   a0, 5
p2:
    li   a1, 6
    ret
";

/// RV32 variant of [`STRADDLE_RV64`] for the Ibex decode cache: no `sd`,
/// so two word stores whose combined span crosses the `p1|p2` boundary.
const STRADDLE_RV32: &str = r"
_start:
    la   t0, p1
    li   t1, 0x00700513      # encoding of `li a0, 7`
    li   t2, 0x00900593      # encoding of `li a1, 9`
    jal  ra, p1              # a0 = 5, a1 = 6; caches the block spanning p1..ret
    jal  ra, p2              # a1 = 6; caches the block headed at the boundary
    add  s0, a0, a1          # 11
    sw   t1, 0(t0)           # the pair of stores straddles the p1|p2 boundary
    sw   t2, 4(t0)
    jal  ra, p1              # must refetch: a0 = 7, a1 = 9
    add  s0, s0, a0          # 18
    jal  ra, p2              # must refetch: a1 = 9
    add  a0, s0, a1          # 27
    ebreak
p1:
    li   a0, 5
p2:
    li   a1, 6
    ret
";

#[test]
fn cva6_store_straddling_block_boundary_invalidates() {
    let prog = assemble(STRADDLE_RV64, Xlen::Rv64, 0x8000_0000).expect("assembles");
    let mut runs = Vec::new();
    for predecode in [false, true] {
        let mut core = Cva6Core::new(&prog, 0x1_0000, TimingConfig::default());
        core.set_predecode(predecode);
        let halt = core.run_silent(100_000);
        assert_eq!(halt, Halt::Breakpoint, "predecode={predecode}");
        assert_eq!(
            core.reg(Reg::A0),
            27,
            "predecode={predecode}: a block on one side of the patched \
             boundary replayed stale code"
        );
        if predecode {
            assert!(core.decode_cache_stats().invalidated > 0);
            // Every block here runs at most once per generation, so the
            // lookups after the store must miss (stale) and retranslate.
            assert!(
                core.block_cache_stats().installs > 2,
                "both straddled blocks must retranslate after the store"
            );
        }
        runs.push((core.cycle(), core.stats()));
    }
    assert_eq!(runs[0], runs[1], "fast path must be cycle-invisible");
}

#[test]
fn ibex_store_straddling_block_boundary_invalidates() {
    let mut runs = Vec::new();
    for predecode in [false, true] {
        let mut core = ibex_system(STRADDLE_RV32);
        core.set_predecode(predecode);
        let (burst, event) = core.run_until_idle(100_000);
        assert!(
            matches!(event, Some(ibex_model::IbexEvent::Trapped(_))),
            "expected the ebreak trap, got {event:?}"
        );
        assert_eq!(
            core.hart.reg(Reg::A0),
            27,
            "predecode={predecode}: a decoded op on one side of the patched \
             boundary replayed stale code"
        );
        if predecode {
            assert!(core.decode_cache_stats().invalidated > 0);
        }
        runs.push((core.cycle(), burst.len()));
    }
    assert_eq!(runs[0], runs[1], "fast path must be cycle-invisible");
}

/// A store that patches an instruction *later in the very block being
/// executed*: by the time the store retires, `site` has already been
/// translated into the live superblock, so dispatch must notice the
/// generation bump mid-block and refetch before `site` retires. A block
/// layer that only checked staleness at block entry would execute the
/// stale `li a0, 1` and end with a0 == 1.
const PATCH_CURRENT_BLOCK: &str = r"
_start:
    la   t0, site
    li   t1, 0x00900513      # encoding of `li a0, 9`
    sw   t1, 0(t0)           # rewrites an op already in this very block
site:
    li   a0, 1
    ebreak
";

#[test]
fn cva6_store_into_currently_executing_block_refetches() {
    let prog = assemble(PATCH_CURRENT_BLOCK, Xlen::Rv64, 0x8000_0000).expect("assembles");
    let mut runs = Vec::new();
    for predecode in [false, true] {
        let mut core = Cva6Core::new(&prog, 0x1_0000, TimingConfig::default());
        core.set_predecode(predecode);
        let halt = core.run_silent(100_000);
        assert_eq!(halt, Halt::Breakpoint, "predecode={predecode}");
        assert_eq!(
            core.reg(Reg::A0),
            9,
            "predecode={predecode}: the live block kept executing its \
             stale translation past the store"
        );
        if predecode {
            assert!(core.decode_cache_stats().invalidated > 0);
        }
        runs.push((core.cycle(), core.stats()));
    }
    assert_eq!(runs[0], runs[1], "fast path must be cycle-invisible");
}

/// An image delivered through the scrambled + SECDED + HMAC boot path must
/// run identically with the fast path on and off — the descrambled bytes
/// are loaded at a different base than they were assembled for nothing:
/// the cache keys on the PCs the core actually fetches from.
#[test]
fn scrambled_secure_boot_image_runs_identically() {
    let src = r"
_start:
    li   a0, 0
    li   a1, 24
loop:
    addi a0, a0, 3
    addi a1, a1, -1
    bnez a1, loop
    ebreak
";
    let prog = assemble(src, Xlen::Rv32, 0x1_0000).expect("assembles");

    let mut flash = Flash::new(512, 0x5eed_0123_4567_89ab);
    let engine = HmacEngine::new(b"decode-cache-test-key");
    provision(&mut flash, &engine, &prog.bytes);
    // The image really is scrambled at rest.
    assert_ne!(
        flash.raw(IMAGE_BASE_WORD + 1) as u32,
        u32::from_le_bytes(prog.bytes[0..4].try_into().expect("4 bytes")),
        "flash stores the scrambled encoding"
    );
    let (image, report) = boot(&flash, &engine).expect("authenticated boot");
    assert_eq!(image, prog.bytes, "boot must descramble back to plaintext");
    assert!(report.words_read > 0);

    let mut runs = Vec::new();
    for predecode in [false, true] {
        let mut bus = SystemBus::new();
        bus.add_ram(
            0x1_0000,
            0x1_0000,
            RegionKind::RotPrivate,
            RegionLatency::symmetric(1),
        );
        bus.load(prog.base, &image);
        let mut core = IbexCore::new(bus, prog.entry, IbexTiming::default());
        core.set_predecode(predecode);
        let (burst, event) = core.run_until_idle(100_000);
        assert!(matches!(event, Some(ibex_model::IbexEvent::Trapped(_))));
        assert_eq!(core.hart.reg(Reg::A0), 72, "predecode={predecode}");
        runs.push((core.cycle(), burst.len(), core.hart.pc));
    }
    assert_eq!(runs[0], runs[1], "booted image must run cycle-identically");
}

/// Full-SoC fingerprints: host + CFI transport + RoT firmware with the fast
/// path on vs off, over kernels covering calls, branches, and memory.
#[test]
fn soc_reports_identical_fast_path_on_vs_off() {
    for name in ["fib", "towers", "crc32", "dhry-calls"] {
        let kernel = all_kernels().find(|k| k.name == name).expect(name);
        let prog = kernel.program().expect("assembles");
        let mut fingerprints = Vec::new();
        for fast in [false, true] {
            let config = SocConfig {
                mem_size: KERNEL_MEM,
                fast_path: fast,
                ..SocConfig::default()
            };
            let mut soc = SystemOnChip::new(&prog, config);
            let report = soc.run(500_000_000);
            assert_eq!(report.halt, Halt::Breakpoint, "{name} fast={fast}");
            fingerprints.push(format!("{report:?}|a0={:#x}", soc.host_reg(Reg::A0)));
        }
        assert_eq!(
            fingerprints[0], fingerprints[1],
            "{name}: the fast path changed the SoC report"
        );
    }
}

#[test]
fn multicore_report_identical_fast_path_on_vs_off() {
    let a = all_kernels().find(|k| k.name == "fib").expect("fib");
    let b = all_kernels().find(|k| k.name == "towers").expect("towers");
    let (a, b) = (a.program().expect("a"), b.program().expect("b"));
    let mut fingerprints = Vec::new();
    for fast in [false, true] {
        let mut soc = DualHostSoc::new([&a, &b], KERNEL_MEM, 8);
        soc.set_fast_path(fast);
        let report = soc.run(500_000_000);
        fingerprints.push(format!("{report:?}"));
    }
    assert_eq!(
        fingerprints[0], fingerprints[1],
        "the fast path changed the multicore report"
    );
}

/// Every table of the evaluation harness must render byte-identically with
/// the fast path globally off and globally on — the paper's numbers cannot
/// depend on a simulator optimisation. This is the one test that flips the
/// process-wide default; all other tests here pin predecode per instance.
#[test]
fn tables_byte_identical_with_fast_path_default_flipped() {
    use riscv_isa::predecode::{fast_path_default, set_fast_path_default};
    let render = || {
        let mut out = String::new();
        out.push_str(&titancfi_bench::table1());
        out.push_str(&titancfi_bench::table2());
        out.push_str(&titancfi_bench::table3());
        out.push_str(&titancfi_bench::table4());
        for name in ["fib", "crc32"] {
            let kernel = all_kernels().find(|k| k.name == name).expect(name);
            let (line, _) = titancfi_bench::native_kernel_line(kernel).expect(name);
            out.push_str(&line);
        }
        out
    };
    let prev = fast_path_default();
    set_fast_path_default(false);
    let slow = render();
    set_fast_path_default(true);
    let fast = render();
    set_fast_path_default(prev);
    assert_eq!(slow, fast, "tables must not depend on the fast path");
}
