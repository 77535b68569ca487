//! Seeded random control-flow program generator.
//!
//! Programs are built as a small AST ([`FuzzProgram`]) and rendered to
//! `riscv-asm` source, so the shrinker can delete structure (functions,
//! then individual operations) and re-render instead of patching bytes.
//!
//! # Termination by construction
//!
//! Every generated program halts on its own:
//!
//! * the call graph is a DAG — function `i` only ever calls functions with
//!   a *higher* index;
//! * the one sanctioned cycle is bounded self-recursion: a recursive
//!   function counts `a0` down to zero and every entry re-checks it;
//! * loops are counted (`t4` down from a literal), never conditional on
//!   data;
//! * indirect jumps only dispatch through generated jump tables whose arms
//!   all rejoin straight-line code.
//!
//! # Register discipline
//!
//! `s1` is the global checksum accumulator (compared across configurations
//! at halt), `a0` carries recursion depth and the final result, `t4` is
//! reserved for loop counters, and `t0`–`t3` are per-operation scratch.
//! `t0`/`ra` are never used as indirect-jump scratch: `x1`/`x5` are link
//! registers to the CFI filter's classifier, and the generator must produce
//! `IndirectJump`-classified dispatches, not phantom calls.

use riscv_isa::encode::encode;
use riscv_isa::inst::{AluImmOp, Inst};
use riscv_isa::Reg;
use titancfi_harness::Xoshiro256;

/// Bump when generated programs change for a given seed. Reproducer
/// headers record it, so a seed named in an old report can be told apart
/// from the program the current generator makes for it.
pub const GENERATOR_VERSION: u32 = 2;

/// Landing-pad label on every generated function entry.
pub const FN_LABEL: u32 = 1;
/// Landing-pad label on every jump-table arm.
pub const ARM_LABEL: u32 = 2;
/// Landing-pad label on the never-executed decoy pad after `finish` — a
/// correctly-formed but *mislabeled* pad present in every program, so a
/// smashed edge that happens to land there still trips label matching.
pub const DECOY_LABEL: u32 = 3;

/// Host RAM base for generated programs (same as the workload kernels).
pub const FUZZ_BASE: u64 = 0x8000_0000;
/// Host RAM size for generated programs.
pub const FUZZ_MEM: usize = 1 << 20;

/// A checksum-mixing step (all state lives in `s1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixKind {
    /// `addi s1, s1, imm`.
    Add(i32),
    /// `xori s1, s1, imm`.
    Xor(i32),
    /// `li t0, k; mul s1, s1, t0; addi s1, s1, 1` (k odd, keeps entropy).
    MulAdd(i64),
}

/// One generated operation inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Fold a constant into the checksum.
    Mix(MixKind),
    /// Store/load round trip through `data_buf` (near-code memory traffic,
    /// exercising the decode-cache watermark on every store).
    DataRoundTrip {
        /// 8-byte slot index inside `data_buf`.
        slot: u8,
    },
    /// Counted loop over mix/data ops (`t4` literal countdown).
    Loop {
        /// Iteration count (≥ 1).
        count: u8,
        /// Loop body (mix/data ops only — no calls, no nested loops).
        body: Vec<Op>,
    },
    /// Direct call (`call f<callee>`, classified `Call` via `jal ra`).
    Call {
        /// Callee function index (always > caller index).
        callee: usize,
    },
    /// Register-indirect call (`la t1, f<callee>; jalr t1`, classified
    /// `Call` via the `ra` link destination).
    IndirectCall {
        /// Callee function index (always > caller index).
        callee: usize,
    },
    /// Call into a recursive function with a literal depth in `a0`.
    RecursiveCall {
        /// Callee function index (must be recursive).
        callee: usize,
        /// Recursion depth (bounded, ≥ 1).
        depth: u8,
    },
    /// Data-dependent dispatch through a jump table: the arm is selected
    /// by the low bits of the checksum, so different checksum histories
    /// take different indirect-jump targets.
    TableSwitch {
        /// Number of arms (2, 4, or 8).
        arms: u8,
    },
    /// Self-modifying call pair: call the patchable callee (warming the
    /// decode cache over its patch slot), overwrite the slot's `xori`
    /// immediate with a 4-byte store, `fence.i`, call again. The patched
    /// immediate changes which jump-table arm the callee takes, so a stale
    /// decoded instruction diverges the commit-log stream.
    PatchedCall {
        /// Callee function index (must be patchable).
        callee: usize,
    },
}

/// A generated function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Func {
    /// Counts `a0` down through bounded self-recursion.
    pub recursive: bool,
    /// Contains a patchable `xori` slot feeding a 4-arm jump table.
    pub patchable: bool,
    /// `(original, patched)` `xori` immediates for patchable functions;
    /// chosen so the selected jump-table arm differs.
    pub patch_consts: Option<(u16, u16)>,
    /// Body operations.
    pub body: Vec<Op>,
}

/// A deliberate control-flow corruption planted into an otherwise benign
/// program — the oracle demands the policy fires on it in every
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// After the epilogue restores `ra` in function `func`, overwrite it
    /// with the address of a landing pad — a classic backward-edge hijack
    /// the shadow stack must flag. The pad rejoins the exit path, so the
    /// program still terminates.
    ReturnHijack {
        /// Hijacked function index (0 is always reachable from `_start`).
        func: usize,
    },
    /// Every `.dword` entry of the first jump table in function `func` is
    /// redirected to a mid-function gadget carrying no `lpad` marker — the
    /// classic JOP pivot only the landing-pad policy can flag (the gadget
    /// rejoins the dispatch exit, so the program still terminates, and no
    /// call/return edge is disturbed).
    JumpTableSmash {
        /// Function whose first top-level jump table is smashed.
        func: usize,
    },
    /// The first `IndirectCall` to `from` inside function `func` loads the
    /// address of `to` instead — a function of a *different type class*
    /// whose entry carries a perfectly valid landing pad. Landing pads
    /// miss it; only the KCFI type-hash comparison catches it.
    FnPtrTypeConfusion {
        /// Function whose call site is confused.
        func: usize,
        /// Original callee index (the site's `.kcfi_expect` still names
        /// this function's type).
        from: usize,
        /// Swapped-in callee index (wrong type, valid pad).
        to: usize,
    },
}

impl Corruption {
    /// The anchor function indices the shrinker must never delete: the
    /// corrupted function itself plus, for pointer confusion, both callees.
    #[must_use]
    pub fn anchors(&self) -> Vec<usize> {
        match *self {
            Corruption::ReturnHijack { func } | Corruption::JumpTableSmash { func } => vec![func],
            Corruption::FnPtrTypeConfusion { func, from, to } => vec![func, from, to],
        }
    }
}

/// Which corruption to plant — the anchor indices and any structural
/// prerequisites are filled in by [`FuzzProgram::with_corruption_variant`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorruptionVariant {
    /// Backward-edge return-address overwrite (shadow stack catches).
    ReturnHijack,
    /// Jump-table entry redirected to a non-`lpad` gadget (landing pads
    /// catch).
    JumpTableSmash,
    /// Function pointer swapped to a wrong-type, validly-padded function
    /// (only KCFI catches).
    FnPtrTypeConfusion,
}

impl CorruptionVariant {
    /// All variants, in detection-map order.
    pub const ALL: [CorruptionVariant; 3] = [
        CorruptionVariant::ReturnHijack,
        CorruptionVariant::JumpTableSmash,
        CorruptionVariant::FnPtrTypeConfusion,
    ];
}

/// The type class of function `i` in `funcs` (see
/// [`FuzzProgram::type_class`]).
#[must_use]
pub fn func_type_class(funcs: &[Func], i: usize) -> u32 {
    if funcs[i].recursive {
        0
    } else if funcs[i].patchable {
        1
    } else {
        2 + (i as u32 % 2)
    }
}

/// FNV-1a hash of a type class — the 32-bit KCFI signature stored at
/// `[fn-4]` and expected by every instrumented call site.
#[must_use]
pub fn type_hash(class: u32) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for b in class.to_le_bytes() {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Generation knobs beyond the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GenOptions {
    /// Guarantee at least one patchable function and one `PatchedCall`
    /// reaching it (used by the decode-cache mutation test, which needs
    /// self-modifying code to expose stale cache entries).
    pub force_self_modify: bool,
}

/// A generated program: AST plus everything needed to re-render it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzProgram {
    /// Generation seed (for reproduction commands).
    pub seed: u64,
    /// Whether the RVC compressor runs over eligible statements.
    pub compressed: bool,
    /// Initial checksum value loaded into `s1`.
    pub init: i64,
    /// `a0` passed to `f0` (recursion depth when `f0` is recursive).
    pub entry_depth: u8,
    /// Function bodies; `f0` is the entry callee.
    pub funcs: Vec<Func>,
    /// Planted corruption, if any.
    pub corruption: Option<Corruption>,
}

/// Domain-separation salt for the generator's PRNG stream.
const GEN_SALT: u64 = 0x7469_7461_6e63_6669; // "titancfi"

fn gen_mix(rng: &mut Xoshiro256) -> Op {
    match rng.below(3) {
        0 => Op::Mix(MixKind::Add(rng.range_i64(-2048, 2048) as i32)),
        1 => Op::Mix(MixKind::Xor(rng.range_i64(0, 2048) as i32)),
        _ => Op::Mix(MixKind::MulAdd(rng.range_i64(3, 9999) | 1)),
    }
}

fn gen_simple_op(rng: &mut Xoshiro256) -> Op {
    match rng.below(4) {
        0 => Op::DataRoundTrip {
            slot: rng.below(8) as u8,
        },
        _ => gen_mix(rng),
    }
}

/// Generates one body op for function `i`. `leaf` bans call-like ops
/// (recursive and patchable bodies must not clobber `a0`/`ra` mid-flight).
fn gen_op(rng: &mut Xoshiro256, i: usize, funcs: &[Func], leaf: bool) -> Op {
    let callees: Vec<usize> = (i + 1..funcs.len()).collect();
    let roll = rng.below(10);
    match roll {
        0 | 1 if !leaf && !callees.is_empty() => {
            let callee = callees[rng.below(callees.len() as u64) as usize];
            if funcs[callee].recursive {
                Op::RecursiveCall {
                    callee,
                    depth: 1 + rng.below(3) as u8,
                }
            } else if funcs[callee].patchable {
                if rng.below(2) == 0 {
                    Op::PatchedCall { callee }
                } else {
                    Op::Call { callee }
                }
            } else if rng.below(2) == 0 {
                Op::IndirectCall { callee }
            } else {
                Op::Call { callee }
            }
        }
        2 => Op::TableSwitch {
            arms: 1 << (1 + rng.below(3)),
        },
        3 => {
            let n = 1 + rng.below(3) as usize;
            Op::Loop {
                count: 1 + rng.below(4) as u8,
                body: (0..n).map(|_| gen_simple_op(rng)).collect(),
            }
        }
        4 => Op::DataRoundTrip {
            slot: rng.below(8) as u8,
        },
        _ => gen_mix(rng),
    }
}

fn gen_patch_consts(rng: &mut Xoshiro256) -> (u16, u16) {
    let k0 = rng.below(2048) as u16;
    loop {
        let k1 = rng.below(2048) as u16;
        // The patch dispatch selects on bit 0, so the patched immediate
        // must flip it — otherwise both encodings take the same arm and a
        // stale decode would be invisible.
        if (k0 ^ k1) & 1 != 0 {
            return (k0, k1);
        }
    }
}

/// Whether a body contains call-like ops (needs `ra` saved across it).
fn has_call_ops(body: &[Op]) -> bool {
    body.iter().any(|op| match op {
        Op::Call { .. }
        | Op::IndirectCall { .. }
        | Op::RecursiveCall { .. }
        | Op::PatchedCall { .. } => true,
        Op::Loop { body, .. } => has_call_ops(body),
        _ => false,
    })
}

impl FuzzProgram {
    /// Generates the program for `seed` with default options.
    #[must_use]
    pub fn generate(seed: u64) -> FuzzProgram {
        FuzzProgram::generate_opts(seed, GenOptions::default())
    }

    /// Generates the program for `seed`.
    #[must_use]
    pub fn generate_opts(seed: u64, opts: GenOptions) -> FuzzProgram {
        let mut rng = Xoshiro256::new(seed ^ GEN_SALT);
        let nfuncs = 2 + rng.below(5) as usize;
        let mut funcs: Vec<Func> = (0..nfuncs)
            .map(|i| {
                let recursive = rng.below(4) == 0;
                let patchable = !recursive && i > 0 && rng.below(4) == 0;
                Func {
                    recursive,
                    patchable,
                    patch_consts: None,
                    body: Vec::new(),
                }
            })
            .collect();
        if opts.force_self_modify {
            let last = funcs.last_mut().expect("nfuncs >= 2");
            last.recursive = false;
            last.patchable = true;
        }
        for f in &mut funcs {
            if f.patchable {
                f.patch_consts = Some(gen_patch_consts(&mut rng));
            }
        }
        let meta = funcs.clone();
        for (i, f) in funcs.iter_mut().enumerate() {
            let leaf = f.recursive || f.patchable;
            let n_ops = 1 + rng.below(5) as usize;
            f.body = (0..n_ops)
                .map(|_| gen_op(&mut rng, i, &meta, leaf))
                .collect();
        }
        if opts.force_self_modify {
            let target = funcs.len() - 1;
            let has_patched_call = funcs
                .iter()
                .any(|f| f.body.contains(&Op::PatchedCall { callee: target }));
            if !has_patched_call {
                funcs[0].body.push(Op::PatchedCall { callee: target });
                funcs[0].recursive = false;
                funcs[0].patchable = false;
                funcs[0].patch_consts = None;
            }
        }
        let entry_depth = if funcs[0].recursive {
            1 + rng.below(3) as u8
        } else {
            0
        };
        FuzzProgram {
            seed,
            compressed: rng.below(2) == 0,
            init: rng.range_i64(-100_000, 100_000),
            entry_depth,
            funcs,
            corruption: None,
        }
    }

    /// The type class of function `i`: recursive functions, patchable
    /// functions, and plain functions (two flavours by parity) get distinct
    /// classes, so swapping a pointer between classes changes the KCFI hash.
    #[must_use]
    pub fn type_class(&self, i: usize) -> u32 {
        func_type_class(&self.funcs, i)
    }

    /// The same program with a return-address hijack planted in `f0` (the
    /// function `_start` always calls, so the corruption always triggers).
    #[must_use]
    pub fn with_corruption(&self) -> FuzzProgram {
        self.with_corruption_variant(CorruptionVariant::ReturnHijack)
    }

    /// The same program with the given corruption variant planted in `f0`
    /// (always reachable from `_start`, so the corruption always triggers).
    /// Structural prerequisites — a jump table for [`Corruption::JumpTableSmash`],
    /// a pair of distinct-type callees for [`Corruption::FnPtrTypeConfusion`] —
    /// are appended if the generated program lacks them.
    #[must_use]
    pub fn with_corruption_variant(&self, variant: CorruptionVariant) -> FuzzProgram {
        let mut p = self.clone();
        match variant {
            CorruptionVariant::ReturnHijack => {
                p.corruption = Some(Corruption::ReturnHijack { func: 0 });
            }
            CorruptionVariant::JumpTableSmash => {
                let has_table = p.funcs[0]
                    .body
                    .iter()
                    .any(|op| matches!(op, Op::TableSwitch { .. }));
                if !has_table {
                    p.funcs[0].body.push(Op::TableSwitch { arms: 2 });
                }
                p.corruption = Some(Corruption::JumpTableSmash { func: 0 });
            }
            CorruptionVariant::FnPtrTypeConfusion => {
                // Append two fresh plain leaf callees at consecutive indices:
                // their parity-based type classes always differ, their valid
                // `lpad` entries satisfy the landing-pad policy, and neither
                // touches `a0`/`ra`, so any `f0` (even recursive) may call
                // them mid-body.
                let from = p.funcs.len();
                let to = from + 1;
                for filler in [11, 13] {
                    p.funcs.push(Func {
                        recursive: false,
                        patchable: false,
                        patch_consts: None,
                        body: vec![Op::Mix(MixKind::Add(filler))],
                    });
                }
                p.funcs[0].body.push(Op::IndirectCall { callee: from });
                p.corruption = Some(Corruption::FnPtrTypeConfusion { func: 0, from, to });
            }
        }
        p
    }

    /// Renders the program as `riscv-asm` source.
    #[must_use]
    pub fn emit(&self) -> String {
        let mut e = Emitter::default();
        e.line("# generated by titancfi-fuzz");
        e.line(&format!(
            "# seed {} · compressed {} · corruption {:?}",
            self.seed, self.compressed, self.corruption
        ));
        e.line("_start:");
        e.line(&format!("    li   s1, {}", self.init));
        if self.entry_depth > 0 {
            e.line(&format!("    li   a0, {}", self.entry_depth));
        }
        if !self.funcs.is_empty() {
            e.line("    call f0");
        }
        if matches!(self.corruption, Some(Corruption::ReturnHijack { .. })) {
            // The hijack landing pad exists only on hijacked variants —
            // shrunk benign reproducers stay minimal.
            e.line("    j    finish");
            e.line("hijack_land:");
            e.line("    xori s1, s1, 677");
        }
        e.line("finish:");
        e.line("    mv   a0, s1");
        e.line("    ebreak");
        // A correctly-formed but never-executed decoy pad with a label no
        // site expects: a smashed edge landing here still mismatches.
        e.line("decoy_pad:");
        e.line(&format!("    lpad {DECOY_LABEL}"));
        e.line("    j    finish");
        for (i, f) in self.funcs.iter().enumerate() {
            self.emit_func(&mut e, i, f);
        }
        e.line(".align 3");
        e.line("data_buf:");
        e.line("    .zero 64");
        let data = std::mem::take(&mut e.data);
        for d in data {
            e.line(&d);
        }
        e.out
    }

    fn emit_func(&self, e: &mut Emitter, i: usize, f: &Func) {
        // Leaf functions (no calls anywhere in the body, no recursion)
        // never clobber `ra` and skip the frame entirely.
        let needs_frame = f.recursive || has_call_ops(&f.body);
        match self.corruption {
            Some(Corruption::JumpTableSmash { func }) if func == i => e.smash_armed = true,
            Some(Corruption::FnPtrTypeConfusion { func, from, to }) if func == i => {
                e.confuse = Some((from, to));
            }
            _ => {}
        }
        // KCFI type hash in the word before the entry; lpad right at it.
        e.line(".align 2");
        e.line(&format!(".kcfi {}", type_hash(self.type_class(i))));
        e.line(&format!("f{i}:"));
        e.line(&format!("    lpad {FN_LABEL}"));
        if needs_frame {
            e.line("    addi sp, sp, -16");
            e.line("    sd   ra, 8(sp)");
        }
        for op in &f.body {
            self.emit_op(e, op);
        }
        if f.patchable {
            emit_patch_slot(e, i, f);
        }
        if f.recursive {
            e.line(&format!("    blez a0, f{i}_done"));
            e.line("    addi a0, a0, -1");
            e.line(&format!("    call f{i}"));
            e.line(&format!("f{i}_done:"));
        }
        if needs_frame {
            e.line("    ld   ra, 8(sp)");
            e.line("    addi sp, sp, 16");
        }
        if self.corruption == Some(Corruption::ReturnHijack { func: i }) {
            e.line("    la   ra, hijack_land");
        }
        e.line("    ret");
    }

    fn emit_op(&self, e: &mut Emitter, op: &Op) {
        match op {
            Op::Mix(MixKind::Add(imm)) => e.line(&format!("    addi s1, s1, {imm}")),
            Op::Mix(MixKind::Xor(imm)) => e.line(&format!("    xori s1, s1, {imm}")),
            Op::Mix(MixKind::MulAdd(k)) => {
                e.line(&format!("    li   t0, {k}"));
                e.line("    mul  s1, s1, t0");
                e.line("    addi s1, s1, 1");
            }
            Op::DataRoundTrip { slot } => {
                let off = u32::from(*slot) * 8;
                e.line("    la   t0, data_buf");
                e.line(&format!("    sd   s1, {off}(t0)"));
                e.line(&format!("    ld   t1, {off}(t0)"));
                e.line("    add  s1, s1, t1");
            }
            Op::Loop { count, body } => {
                let id = e.fresh();
                e.line(&format!("    li   t4, {count}"));
                e.line(&format!("lp_{id}:"));
                for op in body {
                    self.emit_op(e, op);
                }
                e.line("    addi t4, t4, -1");
                e.line(&format!("    bnez t4, lp_{id}"));
            }
            Op::Call { callee } => e.line(&format!("    call f{callee}")),
            Op::IndirectCall { callee } => {
                // Under pointer confusion the first matching site loads the
                // wrong-type callee while keeping the original expectation.
                let loaded = match e.confuse {
                    Some((from, to)) if from == *callee => {
                        e.confuse = None;
                        to
                    }
                    _ => *callee,
                };
                e.line(&format!("    la   t1, f{loaded}"));
                e.line(&format!(
                    "    .kcfi_expect {}",
                    type_hash(self.type_class(*callee))
                ));
                e.line(&format!("    .lpad_expect {FN_LABEL}"));
                e.line("    jalr t1");
            }
            Op::RecursiveCall { callee, depth } => {
                e.line(&format!("    li   a0, {depth}"));
                e.line(&format!("    call f{callee}"));
            }
            Op::TableSwitch { arms } => {
                let id = e.fresh();
                let smash = std::mem::take(&mut e.smash_armed);
                e.line("    mv   t2, s1");
                emit_dispatch(e, *arms, id, smash);
            }
            Op::PatchedCall { callee } => {
                let (_, k1) = self.funcs[*callee]
                    .patch_consts
                    .expect("PatchedCall targets a patchable function");
                e.line(&format!("    call f{callee}"));
                e.line(&format!("    la   t1, patch_slot_{callee}"));
                e.line(&format!("    li   t3, {}", patch_encoding(k1)));
                e.line("    sw   t3, 0(t1)");
                e.line("    fence.i");
                e.line(&format!("    call f{callee}"));
            }
        }
    }
}

/// The patched replacement encoding for a patch slot: `xori t2, zero, k1`.
#[must_use]
pub fn patch_encoding(k1: u16) -> u32 {
    encode(&Inst::AluImm {
        op: AluImmOp::Xori,
        rd: Reg::T2,
        rs1: Reg::ZERO,
        imm: i64::from(k1),
        word: false,
    })
}

#[derive(Default)]
struct Emitter {
    out: String,
    data: Vec<String>,
    next_id: u32,
    /// The next top-level `TableSwitch` emits a smashed jump table.
    smash_armed: bool,
    /// The next `IndirectCall` to `.0` loads `.1` instead.
    confuse: Option<(usize, usize)>,
}

impl Emitter {
    fn line(&mut self, s: &str) {
        self.out.push_str(s);
        self.out.push('\n');
    }

    fn fresh(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }
}

/// Emits a jump-table dispatch on `t2` (must already hold the arm index in
/// its low bits, wider bits ignored via `andi`). With `smash`, every table
/// entry is redirected to a gadget carrying no `lpad` — the arm bodies stay
/// in place (and keep their pads), but control never reaches them.
fn emit_dispatch(e: &mut Emitter, arms: u8, id: u32, smash: bool) {
    e.line(&format!("    andi t2, t2, {}", arms - 1));
    e.line("    slli t2, t2, 3");
    e.line(&format!("    la   t1, jt_{id}"));
    e.line("    add  t1, t1, t2");
    e.line("    ld   t1, 0(t1)");
    e.line(&format!("    .lpad_expect {ARM_LABEL}"));
    e.line("    jr   t1");
    let mut table = format!("jt_{id}:");
    for a in 0..arms {
        if smash {
            table.push_str(&format!("\n    .dword smash_{id}"));
        } else {
            table.push_str(&format!("\n    .dword jt_{id}_a{a}"));
        }
    }
    e.data.push(table);
    for a in 0..arms {
        e.line(&format!("jt_{id}_a{a}:"));
        e.line(&format!("    lpad {ARM_LABEL}"));
        e.line(&format!("    addi s1, s1, {}", i32::from(a) * 7 + 3));
        e.line(&format!("    j    jt_{id}_end"));
    }
    if smash {
        // Mid-function gadget: no pad, rejoins the exit, still terminates.
        e.line(&format!("smash_{id}:"));
        e.line("    xori s1, s1, 677");
        e.line(&format!("    j    jt_{id}_end"));
    }
    e.line(&format!("jt_{id}_end:"));
}

fn emit_patch_slot(e: &mut Emitter, i: usize, f: &Func) {
    let (k0, _) = f.patch_consts.expect("patchable implies consts");
    let id = e.fresh();
    e.line(&format!("patch_slot_{i}:"));
    e.line(&format!("    xori t2, zero, {k0}"));
    // Two arms selected by bit 0 — `gen_patch_consts` guarantees the
    // patched immediate flips it, so a stale decode takes the other arm.
    emit_dispatch(e, 2, id, false);
}
