//! Seeded guest programs for the `call-dense`, `observed`, `dual-host` and
//! `fleet` workloads.
//!
//! A guest is a static call tree driven by a main loop: level-0 functions
//! call level-1 functions, and so on down to leaves. Every non-leaf
//! function has the same number of call segments; a segment is 2–6
//! instructions ending in a direct call or an indirect `jalr` call. Planted
//! return hijacks use the stack-smash pattern: the callee overwrites its
//! saved return address with a gadget that jumps back to the call site, so
//! each hijack is exactly one shadow-stack violation.
//!
//! The seed picks the order of everything (gap lengths, which segments are
//! indirect, call targets, filler instructions, root order, hijack sites),
//! never the amounts. Call targets are a shuffled balanced multiset, so
//! every function of a level runs equally often, and the instruction,
//! call and hijack counts of a run are the same for every seed. That keeps
//! the per-lap work, and so the timings, comparable across seeds.

use riscv_asm::Program;
use titancfi_harness::Xoshiro256;

/// Load address of every guest image.
const BASE: u64 = 0x8000_0000;

/// Call segments per non-leaf function. Their gaps are 2, 3, 4, 5, 6 and 2
/// instructions, in seeded order.
const SEGMENTS: usize = 6;

/// Segments per non-leaf function that call indirectly; each takes one of
/// the four gaps of 3+ instructions (`la` is two of them).
const INDIRECT: usize = 2;

/// Shape of a generated guest.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Functions per call level, outermost first; the last level are leaves.
    /// A level's call sites (`SEGMENTS` per function) must spread evenly
    /// over the next level.
    pub levels: &'static [usize],
    /// Main-loop iterations per run.
    pub iters: u32,
    /// Non-leaf functions of the deepest non-leaf level that carry one
    /// planted return hijack each.
    pub hijack_sites: usize,
}

/// ~10k commit logs per run with one call in ~57 a planted hijack; the code
/// fits the default simulator caches.
pub const CALL_DENSE: Profile = Profile {
    levels: &[8, 16, 16],
    iters: 15,
    hijack_sites: 2,
};

/// Benign, with a static footprint about twice a fleet device's 256-slot
/// block cache; one run is ~1.4k commit logs.
pub const FLEET: Profile = Profile {
    levels: &[16, 48, 48],
    iters: 1,
    hijack_sites: 0,
};

/// Dynamic counts of one run, derived from the call tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuestStats {
    /// Instructions in the image.
    pub static_insts: u64,
    /// Calls executed per run, hijacked ones included.
    pub calls: u64,
    /// Planted hijacks executed per run.
    pub hijacks: u64,
}

impl GuestStats {
    /// Commit logs per run: every call and every return is streamed.
    #[must_use]
    pub fn logs(&self) -> u64 {
        2 * self.calls
    }
}

/// A generated guest: assembly source and its expected dynamic counts.
#[derive(Debug, Clone)]
pub struct Guest {
    /// RV64 assembly.
    pub source: String,
    /// Expected counts.
    pub stats: GuestStats,
}

impl Guest {
    /// Assembles the guest at [`BASE`].
    ///
    /// # Panics
    ///
    /// Panics if the generated source does not assemble (a generator bug).
    #[must_use]
    pub fn assemble(&self) -> Program {
        riscv_asm::assemble(&self.source, riscv_isa::Xlen::Rv64, BASE)
            .expect("generated guest assembles")
    }
}

/// Seeded Fisher-Yates shuffle.
pub fn shuffle<T>(rng: &mut Xoshiro256, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// One filler instruction over `a0..a5`; `a0` ends up as the run's
/// checksum.
fn filler(rng: &mut Xoshiro256) -> String {
    let imm = rng.range_i64(1, 64);
    match rng.below(6) {
        0 => format!("addi a0, a0, {imm}"),
        1 => "xor a1, a1, a0".to_string(),
        2 => "add a2, a2, a1".to_string(),
        3 => format!("slli a3, a2, {}", imm % 13),
        4 => "sub a4, a4, a3".to_string(),
        _ => "add a0, a0, a4".to_string(),
    }
}

fn fn_label(level: usize, index: usize) -> String {
    format!("f{level}_{index}")
}

/// Generates the guest for `profile` and `seed`.
///
/// # Panics
///
/// Panics if a level's call sites do not spread evenly over the next
/// level, or if there are more hijack sites than functions in the deepest
/// non-leaf level.
#[must_use]
pub fn generate(profile: &Profile, seed: u64) -> Guest {
    let levels = profile.levels;
    let s = SEGMENTS;
    let deepest = levels.len() - 2;
    assert!(profile.hijack_sites <= levels[deepest]);
    let mut rng = Xoshiro256::new(seed);
    let mut out = String::new();
    let mut static_insts = 0u64;
    let mut emit = |out: &mut String, line: &str, insts: u64| {
        out.push_str("    ");
        out.push_str(line);
        out.push('\n');
        static_insts += insts;
    };

    // Main loop: every root once per iteration, in seeded order.
    let mut roots: Vec<usize> = (0..levels[0]).collect();
    shuffle(&mut rng, &mut roots);
    out.push_str("_start:\n");
    emit(&mut out, &format!("li s0, {}", profile.iters), 1);
    out.push_str("main_loop:\n");
    for r in roots {
        emit(&mut out, &format!("call {}", fn_label(0, r)), 1);
    }
    emit(&mut out, "addi s0, s0, -1", 1);
    emit(&mut out, "bnez s0, main_loop", 1);
    emit(&mut out, "ebreak", 1);

    let mut hijack_fns: Vec<usize> = (0..levels[deepest]).collect();
    shuffle(&mut rng, &mut hijack_fns);
    hijack_fns.truncate(profile.hijack_sites);
    let mut hijack = 0usize;

    for (level, &count) in levels.iter().enumerate().take(levels.len() - 1) {
        let next = levels[level + 1];
        assert_eq!(
            count * s % next,
            0,
            "level {level} call sites must spread evenly"
        );
        let mut targets: Vec<usize> = (0..count * s).map(|i| i % next).collect();
        shuffle(&mut rng, &mut targets);
        for f in 0..count {
            out.push_str(&format!("{}:\n", fn_label(level, f)));
            emit(&mut out, "addi sp, sp, -16", 1);
            emit(&mut out, "sd ra, 8(sp)", 1);
            let mut gaps: Vec<usize> = (0..s).map(|i| 2 + i % 5).collect();
            shuffle(&mut rng, &mut gaps);
            let mut wide: Vec<usize> = (0..s).filter(|&i| gaps[i] >= 3).collect();
            shuffle(&mut rng, &mut wide);
            let indirect = &wide[..INDIRECT];
            let hijack_at = (level == deepest && hijack_fns.contains(&f))
                .then(|| rng.below(s as u64 + 1) as usize);
            for (seg, &gap) in gaps.iter().enumerate() {
                if hijack_at == Some(seg) {
                    emit(&mut out, &format!("call hj{hijack}"), 1);
                    out.push_str(&format!("hr{hijack}:\n"));
                    hijack += 1;
                }
                let target = fn_label(level + 1, targets[f * s + seg]);
                if indirect.contains(&seg) {
                    for _ in 0..gap - 3 {
                        emit(&mut out, &filler(&mut rng), 1);
                    }
                    emit(&mut out, &format!("la t1, {target}"), 2);
                    emit(&mut out, "jalr t1", 1);
                } else {
                    for _ in 0..gap - 1 {
                        emit(&mut out, &filler(&mut rng), 1);
                    }
                    emit(&mut out, &format!("call {target}"), 1);
                }
            }
            if hijack_at == Some(s) {
                emit(&mut out, &format!("call hj{hijack}"), 1);
                out.push_str(&format!("hr{hijack}:\n"));
                hijack += 1;
            }
            emit(&mut out, "ld ra, 8(sp)", 1);
            emit(&mut out, "addi sp, sp, 16", 1);
            emit(&mut out, "ret", 1);
        }
    }

    // Leaves: 1–5 filler instructions and a return; lengths are fixed per
    // leaf index so the total is seed-independent.
    let leaf_level = levels.len() - 1;
    for l in 0..levels[leaf_level] {
        out.push_str(&format!("{}:\n", fn_label(leaf_level, l)));
        for _ in 0..1 + l % 5 {
            emit(&mut out, &filler(&mut rng), 1);
        }
        emit(&mut out, "ret", 1);
    }

    // Hijack stubs: smash the saved return address with the gadget, return
    // into it, and let the gadget resume at the call site.
    for h in 0..hijack {
        out.push_str(&format!("hj{h}:\n"));
        emit(&mut out, "addi sp, sp, -16", 1);
        emit(&mut out, "sd ra, 8(sp)", 1);
        emit(&mut out, &format!("la t0, hg{h}"), 2);
        emit(&mut out, "sd t0, 8(sp)", 1);
        emit(&mut out, "ld ra, 8(sp)", 1);
        emit(&mut out, "addi sp, sp, 16", 1);
        emit(&mut out, "ret", 1);
        out.push_str(&format!("hg{h}:\n"));
        emit(&mut out, &format!("j hr{h}"), 1);
    }

    // Every function of level l runs `runs[l]` times per run.
    let mut runs = vec![u64::from(profile.iters)];
    for level in 0..levels.len() - 1 {
        let per_callee = (levels[level] * s / levels[level + 1]) as u64;
        runs.push(runs[level] * per_callee);
    }
    let hijacks = profile.hijack_sites as u64 * runs[deepest];
    let calls = (0..levels.len() - 1)
        .map(|level| levels[level] as u64 * s as u64 * runs[level])
        .sum::<u64>()
        + u64::from(profile.iters) * levels[0] as u64
        + hijacks;
    Guest {
        source: out,
        stats: GuestStats {
            static_insts,
            calls,
            hijacks,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cva6_model::{Cva6Core, Halt, TimingConfig};
    use titancfi_soc::{SocConfig, SystemOnChip};

    #[test]
    fn a_seed_fixes_the_guest_and_seeds_differ_in_order_only() {
        for profile in [CALL_DENSE, FLEET] {
            let a = generate(&profile, 7);
            assert_eq!(a.source, generate(&profile, 7).source);
            let b = generate(&profile, 8);
            assert_ne!(a.source, b.source);
            assert_eq!(a.stats, b.stats, "the seed changes order, not amounts");
        }
    }

    #[test]
    fn cf_density_and_footprint_stay_in_each_profiles_band() {
        // (profile, static instructions, translated superblocks): the
        // call-dense guest sits well inside the default 4096-slot block
        // cache, the fleet guest at about twice a device's 256 slots.
        for (profile, insts, blocks) in [
            (CALL_DENSE, 600..900, 150..300),
            (FLEET, 1500..2500, 448..640),
        ] {
            for seed in 0..4 {
                let g = generate(&profile, seed);
                let mut core = Cva6Core::new(&g.assemble(), 1 << 20, TimingConfig::default());
                assert_eq!(core.run_silent(u64::MAX / 2), Halt::Breakpoint);
                // Streamed control-flow commits per retired instruction:
                // one every 2-6 instructions.
                let density = g.stats.logs() as f64 / core.stats().instret as f64;
                assert!((1.0 / 6.0..=0.5).contains(&density), "CF density {density}");
                assert!(
                    insts.contains(&g.stats.static_insts),
                    "{} instructions",
                    g.stats.static_insts
                );
                let translated = core.block_cache_stats().installs;
                assert!(blocks.contains(&translated), "{translated} superblocks");
            }
        }
    }

    #[test]
    fn planted_hijacks_are_detected_exactly_once_each() {
        let g = generate(&CALL_DENSE, 3);
        let program = g.assemble();
        let mut soc = SystemOnChip::new(&program, SocConfig::default());
        let report = soc.run(u64::MAX / 2);
        assert_eq!(report.halt, Halt::Breakpoint);
        assert_eq!(report.logs_checked, g.stats.logs());
        assert_eq!(report.violations.len() as u64, g.stats.hijacks);
        // Every violation returns into a gadget, and every site fires once
        // per execution of its function.
        let sites = CALL_DENSE.hijack_sites as u64;
        for k in 0..sites {
            let gadget = program.symbol(&format!("hg{k}")).expect("gadget symbol");
            let hits = report
                .violations
                .iter()
                .filter(|v| v.log.target == gadget)
                .count() as u64;
            assert_eq!(hits, g.stats.hijacks / sites, "site {k}");
        }
        let benign = generate(&FLEET, 3);
        let mut soc = SystemOnChip::new(&benign.assemble(), SocConfig::default());
        assert!(
            soc.run(u64::MAX / 2).violations.is_empty(),
            "no false positives"
        );
    }
}
