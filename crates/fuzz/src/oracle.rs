//! Cross-configuration differential oracle.
//!
//! One generated program is run under the full configuration matrix:
//!
//! * **Execution strategy** — strict per-cycle stepping, the observed
//!   path (block dispatch with a latency collector attached), and
//!   block-compiled dispatch (superblock translation cache + event-driven
//!   background scheduling). All three must agree on *everything*,
//!   including cycle counts, and the observed cell's serialized latency
//!   spans must equal those of the strict cell, which attaches a
//!   collector too.
//! * **Firmware** — IRQ vs polling RoT firmware. Check latencies differ,
//!   so only the timing-independent ("portable") fingerprint must agree:
//!   halt reason, retired instruction count, filter counters, the full
//!   commit-log byte stream, verdicts, and the final checksum.
//! * **Resilience** — the armed default vs [`ResilienceConfig::off`]. On a
//!   fault-free transport the layer must be provably inert: the *entire*
//!   report, cycles included, must be identical.
//! * **Topology** — the dual-core SoC running the same program on both
//!   cores, strict vs block-compiled, both observed. Reports and latency
//!   spans must agree, and both cores' tagged streams must equal the
//!   single-core strict stream log for log.
//!
//! Corruption variants invert the final check along the **policy
//! dimension**: the reference stream is replayed through the golden-model
//! shadow-stack, landing-pad, and KCFI policies, and each variant must be
//! flagged by exactly the policies the expected-detection map predicts
//! (`ReturnHijack` → shadow stack, `JumpTableSmash` → landing pads,
//! `FnPtrTypeConfusion` → KCFI), in every configuration.

use crate::gen::{Corruption, FuzzProgram, FUZZ_BASE, FUZZ_MEM};
use cva6_model::Halt;
use riscv_asm::{AsmError, Assembler, Program};
use riscv_isa::{Reg, Xlen};
use titancfi::firmware::FirmwareKind;
use titancfi::{CommitLog, FilterStats, ResilienceConfig};
use titancfi_policies::{
    CfiPolicy, CombinedPolicy, KcfiPolicy, LandingPadPolicy, ShadowStackPolicy,
};
use titancfi_soc::{DualHostSoc, SocConfig, SystemOnChip, CORES};

/// Single-core execution strategy under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Reference semantics: per-cycle stepping, raw decode.
    Strict,
    /// The block configuration with a latency collector attached, which
    /// keeps block dispatch; its spans must equal the strict cell's.
    Observed,
    /// Superblock translation cache plus event-driven background
    /// scheduling (`SocConfig::fast_path` + `SocConfig::block_compile`).
    BlockCompiled,
}

impl ExecMode {
    /// All three rungs, reference first.
    pub const ALL: [ExecMode; 3] = [
        ExecMode::Strict,
        ExecMode::Observed,
        ExecMode::BlockCompiled,
    ];
}

/// The oracle's run matrix parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixConfig {
    /// Host cycle budget per run (generated programs finish far below it).
    pub budget: u64,
    /// Also run the dual-core SoC (strict vs block + single-core cross
    /// check).
    pub multicore: bool,
}

impl Default for MatrixConfig {
    fn default() -> MatrixConfig {
        MatrixConfig {
            budget: 4_000_000,
            multicore: true,
        }
    }
}

/// Everything observable from one single-core run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseOutcome {
    /// Configuration label (for divergence messages).
    pub label: String,
    /// Why the host stopped (`Debug`-rendered, `Halt` is not `Eq`).
    pub halt: String,
    /// Total cycles including CFI stalls.
    pub cycles: u64,
    /// Instructions retired.
    pub instret: u64,
    /// CFI filter counters.
    pub filter: FilterStats,
    /// Logs fully checked by the RoT.
    pub logs_checked: u64,
    /// The commit-log stream pushed into the CFI queue, in order.
    pub stream: Vec<CommitLog>,
    /// Logs the RoT flagged (violation verdicts), in order.
    pub violation_logs: Vec<CommitLog>,
    /// Resilience counters (must stay zero on a clean transport).
    pub watchdog_timeouts: u64,
    /// Logs dropped under fail-open escalation.
    pub logs_dropped: u64,
    /// Final checksum (`a0` at `ebreak`).
    pub checksum: u64,
    /// Serialized latency spans, from the cells that attach a collector
    /// (strict and observed).
    pub spans: Option<String>,
}

impl CaseOutcome {
    /// The 28-byte-per-log wire rendering of the commit stream — the
    /// "byte-identical streams" the oracle compares, in the shared
    /// [`titancfi::wire`] layout every transport speaks.
    #[must_use]
    pub fn stream_bytes(&self) -> Vec<u8> {
        titancfi::wire::stream_bytes(&self.stream)
    }

    /// Timing-independent fingerprint: agrees across firmware variants.
    #[must_use]
    pub fn portable_fingerprint(&self) -> String {
        format!(
            "halt={} instret={} filter={:?} checked={} stream={} violations={:?} wd={} dropped={} a0={:#x}",
            self.halt,
            self.instret,
            self.filter,
            self.logs_checked,
            hex(&self.stream_bytes()),
            self.violation_logs,
            self.watchdog_timeouts,
            self.logs_dropped,
            self.checksum,
        )
    }

    /// Full fingerprint: portable plus cycle-exact timing. Agrees across
    /// execution strategies and across the resilience on/off pair.
    #[must_use]
    pub fn full_fingerprint(&self) -> String {
        format!("{} cycles={}", self.portable_fingerprint(), self.cycles)
    }
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// A divergence found by the oracle — two configurations disagreed, or the
/// policy expectation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// What disagreed with what, and how.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.detail)
    }
}

/// Violation counts from replaying the reference commit stream through each
/// golden-model policy — the oracle's policy dimension. The streams were
/// already proven byte-identical across every configuration, so one replay
/// speaks for all of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyMatrix {
    /// Shadow-stack (backward-edge) violations.
    pub shadow_stack: u64,
    /// Landing-pad (Zicfilp forward-edge) violations.
    pub landing_pad: u64,
    /// KCFI (type-hash forward-edge) violations.
    pub kcfi: u64,
    /// Violations under the three policies combined (first-wins).
    pub combined: u64,
}

/// Which policies the detection map predicts fire for a corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpectedDetection {
    /// The shadow stack must flag it.
    pub shadow_stack: bool,
    /// The landing-pad policy must flag it.
    pub landing_pad: bool,
    /// The KCFI policy must flag it.
    pub kcfi: bool,
}

/// The per-policy expected-detection map: exactly one golden policy catches
/// each corruption variant, and the others must stay silent — the
/// catch/miss matrix the forward-edge suite is built around.
#[must_use]
pub fn expected_detection(corruption: &Corruption) -> ExpectedDetection {
    match corruption {
        Corruption::ReturnHijack { .. } => ExpectedDetection {
            shadow_stack: true,
            landing_pad: false,
            kcfi: false,
        },
        Corruption::JumpTableSmash { .. } => ExpectedDetection {
            shadow_stack: false,
            landing_pad: true,
            kcfi: false,
        },
        Corruption::FnPtrTypeConfusion { .. } => ExpectedDetection {
            shadow_stack: false,
            landing_pad: false,
            kcfi: true,
        },
    }
}

/// Replays a commit stream through the three golden-model policies (and
/// their combination), counting violations per policy.
#[must_use]
pub fn replay_policies(prog: &Program, stream: &[CommitLog]) -> PolicyMatrix {
    let mut ss = ShadowStackPolicy::new(1024);
    let mut lp = LandingPadPolicy::from_program(prog);
    let mut kcfi = KcfiPolicy::from_program(prog);
    let mut matrix = PolicyMatrix::default();
    for log in stream {
        if !ss.check(log).is_allowed() {
            matrix.shadow_stack += 1;
        }
        if !lp.check(log).is_allowed() {
            matrix.landing_pad += 1;
        }
        if !kcfi.check(log).is_allowed() {
            matrix.kcfi += 1;
        }
    }
    let mut combined = CombinedPolicy::new()
        .with(ShadowStackPolicy::new(1024))
        .with(LandingPadPolicy::from_program(prog))
        .with(KcfiPolicy::from_program(prog));
    for log in stream {
        if !combined.check(log).is_allowed() {
            matrix.combined += 1;
        }
    }
    matrix
}

/// Successful oracle verdict plus observations the caller may assert on.
#[derive(Debug, Clone)]
pub struct OracleOk {
    /// Outcome of the reference case (strict, polling, resilience armed).
    pub reference: CaseOutcome,
    /// Total violations observed in the reference case.
    pub violations: usize,
    /// Per-policy violation counts from the golden-model replay of the
    /// reference stream.
    pub policy: PolicyMatrix,
}

/// Assembles a generated program's source.
///
/// # Errors
///
/// Returns the assembler diagnostic when the source does not assemble —
/// always a generator bug, surfaced as data so fuzz jobs report it.
pub fn assemble_fuzz(source: &str, compressed: bool) -> Result<Program, AsmError> {
    let asm = Assembler::new(Xlen::Rv64, FUZZ_BASE);
    let asm = if compressed { asm.compressed() } else { asm };
    asm.assemble(source)
}

fn soc_config(fw: FirmwareKind, resilience: ResilienceConfig, mode: ExecMode) -> SocConfig {
    SocConfig {
        firmware: fw,
        mem_size: FUZZ_MEM,
        resilience,
        fast_path: mode != ExecMode::Strict,
        block_compile: mode != ExecMode::Strict,
        ..SocConfig::default()
    }
}

fn run_single(
    prog: &Program,
    fw: FirmwareKind,
    resilience: ResilienceConfig,
    mode: ExecMode,
    budget: u64,
) -> CaseOutcome {
    let mut soc = SystemOnChip::new(prog, soc_config(fw, resilience, mode));
    if mode != ExecMode::BlockCompiled {
        soc.attach_latency();
    }
    soc.enable_log_tap();
    let report = soc.run(budget);
    let stream = soc.take_log_tap().expect("tap was enabled");
    let spans = soc.take_latency().map(|c| c.spans.to_json().encode());
    CaseOutcome {
        label: format!(
            "{mode:?}/{fw:?}/{}",
            if resilience == ResilienceConfig::off() {
                "res-off"
            } else {
                "res-armed"
            }
        ),
        halt: format!("{:?}", report.halt),
        cycles: report.cycles,
        instret: report.core.instret,
        filter: report.filter,
        logs_checked: report.logs_checked,
        stream,
        violation_logs: report.violations.iter().map(|v| v.log).collect(),
        watchdog_timeouts: report.watchdog_timeouts,
        logs_dropped: report.logs_dropped,
        checksum: soc.host_reg(Reg::A0),
        spans,
    }
}

/// Observations from one dual-core run.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DualOutcome {
    label: String,
    halts: [String; CORES],
    cycles: [u64; CORES],
    cf_streamed: [u64; CORES],
    logs_checked: u64,
    per_core_streams: [Vec<CommitLog>; CORES],
    per_core_violations: [Vec<CommitLog>; CORES],
    spans: String,
}

/// Dual-core stepping rung: strict or block-compiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DualMode {
    Strict,
    Block,
}

fn run_dual(prog: &Program, mode: DualMode, budget: u64) -> DualOutcome {
    let mut soc = DualHostSoc::new([prog, prog], FUZZ_MEM, 8);
    let block = mode == DualMode::Block;
    soc.set_fast_path(block);
    soc.set_block_compile(block);
    soc.attach_latency();
    soc.enable_log_tap();
    let report = soc.run(budget);
    let tagged = soc.take_log_tap().expect("tap was enabled");
    let spans = soc.take_latency().expect("collector attached").spans;
    let mut streams: [Vec<CommitLog>; CORES] = [Vec::new(), Vec::new()];
    for t in &tagged {
        streams[t.core as usize].push(t.log);
    }
    let mut violations: [Vec<CommitLog>; CORES] = [Vec::new(), Vec::new()];
    for v in &report.violations {
        violations[v.core as usize].push(v.log);
    }
    DualOutcome {
        label: format!("dual/{}", if block { "block" } else { "strict" }),
        halts: [0, 1].map(|i| format!("{:?}", report.cores[i].halt)),
        cycles: [0, 1].map(|i| report.cores[i].cycles),
        cf_streamed: [0, 1].map(|i| report.cores[i].cf_streamed),
        logs_checked: report.logs_checked,
        per_core_streams: streams,
        per_core_violations: violations,
        spans: spans.to_json().encode(),
    }
}

fn diverge(detail: String) -> Divergence {
    Divergence { detail }
}

fn compare_streams(a: &CaseOutcome, b: &CaseOutcome) -> Result<(), Divergence> {
    if a.stream == b.stream {
        return Ok(());
    }
    let idx = a
        .stream
        .iter()
        .zip(&b.stream)
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.stream.len().min(b.stream.len()));
    Err(diverge(format!(
        "commit streams differ between [{}] ({} logs) and [{}] ({} logs) at index {}: {:?} vs {:?}",
        a.label,
        a.stream.len(),
        b.label,
        b.stream.len(),
        idx,
        a.stream.get(idx),
        b.stream.get(idx),
    )))
}

/// Runs the full matrix over already-assembled source and checks every
/// cross-configuration equality. This is the replayable core used by
/// written reproducers; policy expectations (corruption must fire) live in
/// [`check`].
///
/// # Errors
///
/// Returns the first [`Divergence`] found.
pub fn check_source(
    source: &str,
    compressed: bool,
    matrix: &MatrixConfig,
) -> Result<OracleOk, Divergence> {
    let prog = assemble_fuzz(source, compressed)
        .map_err(|e| diverge(format!("generator bug: source does not assemble: {e}")))?;

    let firmwares = [FirmwareKind::Polling, FirmwareKind::Irq];
    let resiliences = [ResilienceConfig::default(), ResilienceConfig::off()];
    let mut cases: Vec<CaseOutcome> = Vec::new();
    for fw in firmwares {
        for res in resiliences {
            for mode in ExecMode::ALL {
                cases.push(run_single(&prog, fw, res, mode, matrix.budget));
            }
        }
    }
    let reference = cases[0].clone();
    if reference.halt == format!("{:?}", Halt::Budget) {
        return Err(diverge(format!(
            "generator bug: [{}] exhausted the {}-cycle budget (program must self-terminate)",
            reference.label, matrix.budget
        )));
    }

    // Within one (firmware, resilience) cell the three execution strategies
    // must agree on everything, cycles included, and the observed cell's
    // latency spans must equal the strict cell's byte for byte.
    for cell in cases.chunks(ExecMode::ALL.len()) {
        let base = &cell[0];
        for other in &cell[1..] {
            compare_streams(base, other)?;
            if base.full_fingerprint() != other.full_fingerprint() {
                return Err(diverge(format!(
                    "full fingerprints differ between [{}] and [{}]:\n  {}\n  {}",
                    base.label,
                    other.label,
                    base.full_fingerprint(),
                    other.full_fingerprint()
                )));
            }
            if other.spans.is_some() && other.spans != base.spans {
                return Err(diverge(format!(
                    "latency spans differ between [{}] and [{}]:\n  {:?}\n  {:?}",
                    base.label, other.label, base.spans, other.spans
                )));
            }
        }
    }
    // Resilience armed vs off must be fully inert per firmware (compare the
    // strict rung of each pair; the rungs were just proven identical).
    let per_res = ExecMode::ALL.len();
    for fw_block in cases.chunks(2 * per_res) {
        let armed = &fw_block[0];
        let off = &fw_block[per_res];
        if armed.full_fingerprint() != off.full_fingerprint() {
            return Err(diverge(format!(
                "resilience layer is not inert: [{}] vs [{}]:\n  {}\n  {}",
                armed.label,
                off.label,
                armed.full_fingerprint(),
                off.full_fingerprint()
            )));
        }
    }
    // Across firmwares the portable fingerprint must agree.
    let irq_ref = &cases[2 * per_res];
    compare_streams(&reference, irq_ref)?;
    if reference.portable_fingerprint() != irq_ref.portable_fingerprint() {
        return Err(diverge(format!(
            "portable fingerprints differ between [{}] and [{}]:\n  {}\n  {}",
            reference.label,
            irq_ref.label,
            reference.portable_fingerprint(),
            irq_ref.portable_fingerprint()
        )));
    }

    // Fleet-ingest cell: the reference commit stream routed through every
    // fleet transport backend (with real backpressure — the pump's ring is
    // smaller than the stream) must reassemble byte-identically to the
    // direct log tap. This pins the wire layer the fleet service ships
    // against the same oracle that pins the simulator.
    for backend in titancfi_fleet::Backend::ALL {
        let reassembled = titancfi_fleet::transport::ingest_roundtrip(backend, &reference.stream)
            .map_err(|e| diverge(format!("fleet ingest [{backend}]: {e}")))?;
        if titancfi::wire::stream_bytes(&reassembled) != reference.stream_bytes() {
            return Err(diverge(format!(
                "fleet ingest [{backend}]: reassembled stream ({} logs) is not byte-identical \
                 to the direct tap ({} logs)",
                reassembled.len(),
                reference.stream.len()
            )));
        }
    }

    if matrix.multicore {
        let strict = run_dual(&prog, DualMode::Strict, matrix.budget);
        let block = run_dual(&prog, DualMode::Block, matrix.budget);
        let mut relabel = block.clone();
        relabel.label = strict.label.clone();
        if strict != relabel {
            return Err(diverge(format!(
                "dual-core strict vs {} diverge:\n  {strict:?}\n  {block:?}",
                block.label
            )));
        }
        for core in 0..CORES {
            if strict.per_core_streams[core] != reference.stream {
                let idx = strict.per_core_streams[core]
                    .iter()
                    .zip(&reference.stream)
                    .position(|(x, y)| x != y)
                    .unwrap_or_else(|| {
                        strict.per_core_streams[core]
                            .len()
                            .min(reference.stream.len())
                    });
                return Err(diverge(format!(
                    "dual-core core {core} stream ({} logs) differs from single-core strict ({} logs) at index {idx}",
                    strict.per_core_streams[core].len(),
                    reference.stream.len(),
                )));
            }
            if strict.per_core_violations[core] != reference.violation_logs {
                return Err(diverge(format!(
                    "dual-core core {core} violations {:?} differ from single-core {:?}",
                    strict.per_core_violations[core], reference.violation_logs
                )));
            }
            if strict.cf_streamed[core] != reference.filter.emitted {
                return Err(diverge(format!(
                    "dual-core core {core} cf_streamed {} != single-core emitted {}",
                    strict.cf_streamed[core], reference.filter.emitted
                )));
            }
        }
    }

    let violations = reference.violation_logs.len();
    // Policy verdicts must agree everywhere (already fingerprint-compared
    // pairwise above; this is the belt-and-braces global check).
    for case in &cases {
        if case.violation_logs.len() != violations {
            return Err(diverge(format!(
                "violation counts differ: [{}] saw {}, [{}] saw {}",
                reference.label,
                violations,
                case.label,
                case.violation_logs.len()
            )));
        }
    }
    let policy = replay_policies(&prog, &reference.stream);
    Ok(OracleOk {
        reference,
        violations,
        policy,
    })
}

fn expect_count(
    corruption: &Corruption,
    policy: &str,
    count: u64,
    expected: bool,
) -> Result<(), Divergence> {
    if expected && count == 0 {
        return Err(diverge(format!(
            "corruption {corruption:?}: the {policy} policy was predicted to fire but saw 0 violations"
        )));
    }
    if !expected && count != 0 {
        return Err(diverge(format!(
            "corruption {corruption:?}: the {policy} policy was predicted silent but flagged {count} violations"
        )));
    }
    Ok(())
}

/// Runs the full differential matrix over a generated program, including
/// the policy dimension: benign programs must produce zero violations under
/// *every* policy; corrupted ones must be flagged by exactly the policies
/// the [`expected_detection`] map predicts (and by the combined policy),
/// in every configuration.
///
/// # Errors
///
/// Returns the first [`Divergence`] found.
pub fn check(prog: &FuzzProgram, matrix: &MatrixConfig) -> Result<OracleOk, Divergence> {
    let ok = check_source(&prog.emit(), prog.compressed, matrix)?;
    let p = ok.policy;
    match &prog.corruption {
        None => {
            if ok.violations != 0 {
                return Err(diverge(format!(
                    "benign program flagged {} violations (false positive)",
                    ok.violations
                )));
            }
            if p != PolicyMatrix::default() {
                return Err(diverge(format!(
                    "benign program flagged golden-policy violations (false positive): {p:?}"
                )));
            }
        }
        Some(c) => {
            let want = expected_detection(c);
            // The RoT firmware implements the shadow stack, so its verdicts
            // must track the backward-edge prediction exactly; the golden
            // forward-edge policies carry the rest of the map.
            if want.shadow_stack && ok.violations == 0 {
                return Err(diverge(format!(
                    "corruption {c:?} raised no firmware violation — the policy failed to fire"
                )));
            }
            if !want.shadow_stack && ok.violations != 0 {
                return Err(diverge(format!(
                    "corruption {c:?}: forward-edge-only corruption flagged {} firmware \
                     (shadow-stack) violations",
                    ok.violations
                )));
            }
            expect_count(c, "shadow-stack", p.shadow_stack, want.shadow_stack)?;
            expect_count(c, "landing-pad", p.landing_pad, want.landing_pad)?;
            expect_count(c, "kcfi", p.kcfi, want.kcfi)?;
            if p.combined == 0 {
                return Err(diverge(format!(
                    "corruption {c:?}: the combined policy saw 0 violations"
                )));
            }
        }
    }
    Ok(ok)
}
