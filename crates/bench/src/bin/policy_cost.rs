//! Per-policy firmware cycle-cost table: what each forward-edge policy of
//! the suite (shadow stack, Zicfilp landing pads, KCFI type hashes, all
//! three combined) costs per check in the RoT, for each of Table I's three
//! firmware variants (IRQ, polling, optimized) — the Table-I-style
//! companion for the policy suite.
//!
//! ```text
//! cargo run --release -p titancfi-bench --bin policy_cost -- \
//!     --smoke --out BENCH_policy.json --baseline BENCH_policy.json
//! ```
//!
//! Every configuration replays the same benign commit-log sequence (direct
//! call, indirect call through an instrumented site, indirect jump to a
//! landing pad, and the LIFO-balanced returns) on the policy-suite firmware
//! and records per-class mean cycle costs. The costs are *simulated* RoT
//! cycles — fully deterministic, machine-portable, and therefore gateable:
//! `--baseline` compares against a previous report and fails when any
//! configuration's mean check cost grew by more than 10 %, or when the
//! baseline is missing or unparseable.
//!
//! The run doubles as a detection self-test: after measuring, each firmware
//! top replays a smashed jump, a type-confused call, and a hijacked return
//! under the combined policy and must flag all three.

use std::process::ExitCode;
use titancfi::firmware::{FirmwareKind, FirmwareRunner};
use titancfi::CommitLog;
use titancfi_bench::gate::{Baseline, Bound};
use titancfi_harness::Json;

const USAGE: &str = "\
usage: policy_cost [options]

      --smoke         reduced lap count (CI smoke run)
      --out PATH      write the JSON report to PATH (default: BENCH_policy.json)
      --baseline P    compare mean check costs against a previous report;
                      fail on a >10% cost growth, or if P is missing or
                      unparseable
  -h, --help          this text
";

struct Options {
    smoke: bool,
    out: String,
    baseline: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        smoke: false,
        out: "BENCH_policy.json".to_string(),
        baseline: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--out" => opts.out = args.next().ok_or("missing value for --out")?,
            "--baseline" => {
                opts.baseline = Some(args.next().ok_or("missing value for --baseline")?);
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// Which policy flags a configuration enables.
#[derive(Clone, Copy)]
struct PolicyConfig {
    name: &'static str,
    shadow_stack: bool,
    landing_pads: bool,
    kcfi: bool,
}

const POLICIES: [PolicyConfig; 5] = [
    PolicyConfig {
        name: "none",
        shadow_stack: false,
        landing_pads: false,
        kcfi: false,
    },
    PolicyConfig {
        name: "shadow-stack",
        shadow_stack: true,
        landing_pads: false,
        kcfi: false,
    },
    PolicyConfig {
        name: "landing-pad",
        shadow_stack: false,
        landing_pads: true,
        kcfi: false,
    },
    PolicyConfig {
        name: "kcfi",
        shadow_stack: false,
        landing_pads: false,
        kcfi: true,
    },
    PolicyConfig {
        name: "combined",
        shadow_stack: true,
        landing_pads: true,
        kcfi: true,
    },
];

/// Table I's three firmware variants. Optimized runs the polling top on
/// the optimized interconnect, so it changes latency constants, not
/// instruction counts.
const KINDS: [FirmwareKind; 3] = FirmwareKind::ALL;

// The synthetic benign workload. `f1` is reached by a direct call, `f2` by
// an indirect call through a KCFI-instrumented site, `pad` by a plain
// indirect jump; both forward-edge targets are registered landing pads.
const F1: u64 = 0x8000_0100;
const F2: u64 = 0x8000_0200;
const PAD: u64 = 0x8000_0300;
const ICALL_SITE: u64 = 0x8000_0104;
const TYPE_HASH: u32 = 0xdead_4cfe;

/// `jal ra, f1` retired at 0x8000_0000.
fn log_call() -> CommitLog {
    CommitLog {
        pc: 0x8000_0000,
        insn: 0x1000_00ef,
        next: 0x8000_0004,
        target: F1,
    }
}

/// `jalr ra, t1, 0` at the instrumented site in `f1`, targeting `f2`.
fn log_icall() -> CommitLog {
    CommitLog {
        pc: ICALL_SITE,
        insn: 0x0003_00e7,
        next: ICALL_SITE + 4,
        target: F2,
    }
}

/// `jalr x0, a5, 0` inside `f2`, targeting the registered pad.
fn log_ijump() -> CommitLog {
    CommitLog {
        pc: 0x8000_0204,
        insn: 0x0007_8067,
        next: 0x8000_0208,
        target: PAD,
    }
}

/// `ret` after the pad, unwinding the indirect call (LIFO: pushed last).
fn log_ret_inner() -> CommitLog {
    CommitLog {
        pc: PAD + 4,
        insn: 0x0000_8067,
        next: PAD + 8,
        target: ICALL_SITE + 4,
    }
}

/// `ret` from `f1`, unwinding the direct call.
fn log_ret_outer() -> CommitLog {
    CommitLog {
        pc: F1 + 0xc,
        insn: 0x0000_8067,
        next: F1 + 0x10,
        target: 0x8000_0004,
    }
}

/// Boots the policy-suite firmware, provisions all tables (inert while the
/// matching flag is off), and enables exactly the configured policies.
fn provisioned_runner(kind: FirmwareKind, policy: PolicyConfig) -> FirmwareRunner {
    let mut fw = FirmwareRunner::new_policy(kind);
    fw.policy_register_landing_pad(F2);
    fw.policy_register_landing_pad(PAD);
    fw.policy_register_kcfi_site(ICALL_SITE, TYPE_HASH);
    fw.policy_register_kcfi_fn(F2, TYPE_HASH);
    if policy.shadow_stack {
        fw.policy_enable_shadow_stack();
    }
    if policy.landing_pads {
        fw.policy_enable_landing_pads();
    }
    if policy.kcfi {
        fw.policy_enable_kcfi();
    }
    fw
}

struct Row {
    policy: &'static str,
    firmware: &'static str,
    checks: u64,
    violations: u64,
    cycles_call: f64,
    cycles_icall: f64,
    cycles_ijump: f64,
    cycles_ret: f64,
    cycles_mean: f64,
}

/// Replays `laps` LIFO-balanced rounds of the benign sequence and averages
/// per-class check latencies. Costs are simulated cycles: deterministic
/// across repetitions, so no wall-clock laps or minima are needed.
fn measure(kind: FirmwareKind, policy: PolicyConfig, laps: u64) -> Row {
    let mut fw = provisioned_runner(kind, policy);
    let mut call = 0u64;
    let mut icall = 0u64;
    let mut ijump = 0u64;
    let mut ret = 0u64;
    let mut total = 0u64;
    for _ in 0..laps {
        let mc = fw.check(&log_call());
        let mi = fw.check(&log_icall());
        let mj = fw.check(&log_ijump());
        let mr1 = fw.check(&log_ret_inner());
        let mr2 = fw.check(&log_ret_outer());
        call += mc.latency;
        icall += mi.latency;
        ijump += mj.latency;
        ret += mr1.latency + mr2.latency;
        total += mc.latency + mi.latency + mj.latency + mr1.latency + mr2.latency;
    }
    assert_eq!(
        fw.violations,
        0,
        "benign sequence flagged under {}/{}",
        policy.name,
        kind.name()
    );
    let laps_f = laps as f64;
    Row {
        policy: policy.name,
        firmware: kind.name(),
        checks: fw.checks,
        violations: fw.violations,
        cycles_call: call as f64 / laps_f,
        cycles_icall: icall as f64 / laps_f,
        cycles_ijump: ijump as f64 / laps_f,
        cycles_ret: ret as f64 / (2.0 * laps_f),
        cycles_mean: total as f64 / (5.0 * laps_f),
    }
}

/// Detection self-test: the combined policy must flag a smashed jump table
/// entry (landing pad miss), a type-confused indirect call (hash mismatch),
/// and a hijacked return (shadow-stack mismatch).
fn detection_self_test(kind: FirmwareKind) -> Result<(), String> {
    let all = PolicyConfig {
        name: "combined",
        shadow_stack: true,
        landing_pads: true,
        kcfi: true,
    };

    let mut fw = provisioned_runner(kind, all);
    let smashed = CommitLog {
        target: PAD + 0x40, // not a registered pad
        ..log_ijump()
    };
    if !fw.check(&smashed).violation {
        return Err(format!("{}: smashed jump not flagged", kind.name()));
    }

    let mut fw = provisioned_runner(kind, all);
    // A correctly padded function of the wrong type: registered as a pad
    // but carrying a different hash — the landing pad passes, KCFI fires.
    fw.policy_register_landing_pad(0x8000_0400);
    fw.policy_register_kcfi_fn(0x8000_0400, TYPE_HASH ^ 1);
    let confused = CommitLog {
        target: 0x8000_0400,
        ..log_icall()
    };
    if !fw.check(&confused).violation {
        return Err(format!("{}: type-confused call not flagged", kind.name()));
    }

    let mut fw = provisioned_runner(kind, all);
    if fw.check(&log_call()).violation {
        return Err(format!("{}: benign call flagged", kind.name()));
    }
    let hijacked = CommitLog {
        target: 0xbad0_0bad,
        ..log_ret_outer()
    };
    if !fw.check(&hijacked).violation {
        return Err(format!("{}: hijacked return not flagged", kind.name()));
    }
    Ok(())
}

/// Report schema (v1): per `{policy, firmware}` configuration the mean
/// simulated check cost per control-flow class and overall. All values are
/// deterministic simulated cycles — comparable across machines.
fn report_json(mode: &str, rows: &[Row]) -> Json {
    Json::obj(vec![
        ("schema", Json::Num(1.0)),
        ("mode", Json::Str(mode.to_string())),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("policy", Json::Str(r.policy.to_string())),
                            ("firmware", Json::Str(r.firmware.to_string())),
                            ("checks", Json::Num(r.checks as f64)),
                            ("violations", Json::Num(r.violations as f64)),
                            ("cycles_call", Json::Num(r.cycles_call)),
                            ("cycles_icall", Json::Num(r.cycles_icall)),
                            ("cycles_ijump", Json::Num(r.cycles_ijump)),
                            ("cycles_ret", Json::Num(r.cycles_ret)),
                            ("cycles_mean", Json::Num(r.cycles_mean)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Cost-growth tolerance for the baseline gate: simulated cycles are
/// deterministic, so 10 % headroom only absorbs deliberate small firmware
/// edits — anything beyond it is a real policy-cost regression.
const GROWTH_TOLERANCE: f64 = 1.10;

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("policy_cost: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Read the baseline up front: CI passes the same path for --baseline
    // and --out, so it must be consumed before the report overwrites it.
    let baseline = match opts.baseline.as_deref().map(Baseline::load).transpose() {
        Ok(baseline) => baseline,
        Err(e) => {
            eprintln!("policy_cost: {e}");
            return ExitCode::FAILURE;
        }
    };

    let laps: u64 = if opts.smoke { 2 } else { 16 };
    let mode = if opts.smoke { "smoke" } else { "full" };
    println!("per-policy firmware check cost ({mode}, {laps} laps/config, simulated cycles)");
    println!(
        "{:<14} {:<9} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "policy", "firmware", "call", "icall", "ijump", "ret", "mean"
    );
    let mut rows = Vec::new();
    for kind in KINDS {
        for policy in POLICIES {
            let row = measure(kind, policy, laps);
            println!(
                "{:<14} {:<9} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
                row.policy,
                row.firmware,
                row.cycles_call,
                row.cycles_icall,
                row.cycles_ijump,
                row.cycles_ret,
                row.cycles_mean
            );
            rows.push(row);
        }
    }

    for kind in KINDS {
        if let Err(msg) = detection_self_test(kind) {
            eprintln!("policy_cost: DETECTION SELF-TEST FAILED: {msg}");
            return ExitCode::FAILURE;
        }
    }
    println!("detection self-test: smashed jump, confused call, hijacked return all flagged");

    let json = report_json(mode, &rows);
    if let Err(e) = std::fs::write(&opts.out, json.encode() + "\n") {
        eprintln!("policy_cost: cannot write {}: {e}", opts.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {}", opts.out);

    match baseline {
        Some(base) => {
            let rows = json.get("rows").and_then(Json::as_arr).unwrap_or(&[]);
            let bound = Bound::AtMost(GROWTH_TOLERANCE);
            if !base
                .check(rows, &["policy", "firmware"], "cycles_mean", bound)
                .passed("policy_cost")
            {
                return ExitCode::FAILURE;
            }
            println!("mean check costs within 10% of baseline");
        }
        None => println!("no --baseline given — regression gate not run"),
    }
    ExitCode::SUCCESS
}
