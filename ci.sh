#!/usr/bin/env bash
# Local CI gate — the same sequence .github/workflows/ci.yml runs.
# The workspace has no external dependencies, so everything works offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (-D warnings)"
# Broken intra-doc links (a renamed or deleted item a doc comment still
# names) are warnings, so deny them.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test --workspace -q

echo "==> examples (each asserts its own result)"
# Nothing else runs the examples, so run every one and fail on a nonzero
# exit: a panic or a failed assert inside it.
for example in examples/*.rs; do
    cargo run --release -p titancfi-soc --example "$(basename "$example" .rs)" > /dev/null
done

echo "==> benchmark check (separate workspace: build, unit tests, quick run)"
# The benchmark is its own package, which `cargo test --workspace` never
# builds; this catches a change that breaks an API it calls.
benchmark/check.sh

echo "==> campaign smoke (every artifact in one run)"
# The only step that runs the design-space sweep and the native suite;
# campaign exits nonzero if any artifact panics or trips the watchdog.
campaign_out=$(mktemp)
cargo run --release -p titancfi-bench --bin campaign > "$campaign_out"
test -s "$campaign_out" || { echo "campaign smoke: no output"; exit 1; }
rm -f "$campaign_out"

echo "==> EXPERIMENTS.md check (its head is exactly what report prints)"
# report recomputes every table on each run, so its stdout must equal the
# same-length head of EXPERIMENTS.md byte for byte; the hand-written
# sections follow that head.
report_out=$(mktemp)
cargo run --release -p titancfi-bench --bin report > "$report_out"
head -n "$(wc -l < "$report_out")" EXPERIMENTS.md | cmp - "$report_out"
rm -f "$report_out"

echo "==> trace smoke (instrumented run + Perfetto export)"
trace_dir=$(mktemp -d)
cargo run --release -p titancfi-bench --bin trace -- \
    --kernel fib --firmware polling --depth 8 \
    --trace "$trace_dir/trace.json" \
    --collapsed "$trace_dir/trace.folded" \
    --metrics "$trace_dir/metrics.json"
for f in trace.json trace.folded metrics.json; do
    test -s "$trace_dir/$f" || { echo "trace smoke: $f missing/empty"; exit 1; }
done
rm -rf "$trace_dir"

echo "==> fault-campaign smoke (every class detected or recovered, no hangs; -j 1 and -j 4 byte-identical)"
# The faults binary exits nonzero if any injected fault was neither
# detected nor recovered, any scenario exhausted its cycle budget, or any
# scenario failed outright. The pool returns results in input order, so
# the worker count must not change a single byte of the matrix.
fault_dir=$(mktemp -d)
cargo run --release -p titancfi-bench --bin faults -- \
    --smoke --verbose -j 1 --out "$fault_dir/fault-matrix.txt" > "$fault_dir/j1.txt"
test -s "$fault_dir/fault-matrix.txt" || { echo "fault smoke: matrix missing/empty"; exit 1; }
cargo run --release -p titancfi-bench --bin faults -- \
    --smoke --verbose -j 4 > "$fault_dir/j4.txt"
cmp "$fault_dir/j1.txt" "$fault_dir/j4.txt"
rm -rf "$fault_dir"

echo "==> fuzz smoke (differential oracle over a seed slice + planted-bug self-test)"
# The fuzz binary exits nonzero if any seed's program behaves differently
# across the execution-mode/firmware/resilience/multicore matrix. The
# stepping-mode axis has three cells — strict, observed (block dispatch
# with a latency collector attached), and block-compiled (superblock
# dispatch) — and the dual-core axis runs strict/block, so every seed
# exercises the decode and translation caches. The observed cell's
# latency spans must equal the strict cell's, and the dual strict/block
# pair's spans must agree. Every
# seed also sweeps the policy axis: benign plus all three corruption
# variants (return hijack / jump-table smash / fn-ptr type confusion),
# each of which must be flagged by exactly the predicted policy. The
# second invocation arms a deliberately planted decode-cache bug (which
# freezes the block cache's invalidation generation too) and exits nonzero
# unless the oracle catches it, shrinks it, and writes a reproducer — a
# mutation test of the fuzzer itself.
fuzz_dir=$(mktemp -d)
cargo run --release -p titancfi-bench --bin fuzz -- \
    --smoke --time-box 300
cargo run --release -p titancfi-bench --bin fuzz -- \
    --smoke --time-box 300 --mutate-decode-cache \
    --repro-dir "$fuzz_dir/repros"
ls "$fuzz_dir"/repros/*.repro.rs >/dev/null 2>&1 \
    || { echo "fuzz smoke: no reproducer written for the planted bug"; exit 1; }
rm -rf "$fuzz_dir"

echo "==> throughput smoke (fast-path fingerprints + speedup regression gate)"
# Gates against the committed BENCH_throughput.json and writes the smoke
# report to a scratch dir. The binary writes its report before it gates
# it, so an --out on the baseline would let a failing run overwrite the
# baseline and pass the next one. The binary exits nonzero if the fast
# path's result fingerprints diverge from strict stepping, or if any
# scenario's off/on speedup drops below 80% of the committed baseline
# (a missing or unparseable baseline fails too). The `observed` row runs with
# a latency collector attached, so the same gate fails if observed runs
# fall back to per-cycle stepping.
throughput_dir=$(mktemp -d)
cargo run --release -p titancfi-bench --bin throughput -- \
    --smoke --out "$throughput_dir/BENCH_throughput.json" --baseline BENCH_throughput.json
test -s "$throughput_dir/BENCH_throughput.json" || { echo "throughput smoke: report missing/empty"; exit 1; }
rm -rf "$throughput_dir"

echo "==> policy-cost smoke (per-policy firmware cycle costs, byte-identical)"
# The binary exits nonzero if the benign sequence is flagged under any
# policy configuration, or if the detection self-test misses a smashed
# jump / type-confused call / hijacked return under the combined policy.
# Its costs are simulated RoT cycles, deterministic and machine-portable,
# so the smoke report must equal the committed BENCH_policy.json byte for
# byte: any change in any row's cost fails, up or down.
policy_dir=$(mktemp -d)
cargo run --release -p titancfi-bench --bin policy_cost -- \
    --smoke --out "$policy_dir/BENCH_policy.json"
cmp "$policy_dir/BENCH_policy.json" BENCH_policy.json
rm -rf "$policy_dir"

echo "==> latency smoke (span conservation + detection on every corruption class)"
# The latency binary exits nonzero if any run breaks the span conservation
# law, if the serialized spans differ across stepping modes, or if any
# corruption class yields zero detections. The smoke sweep writes to a
# scratch dir so the committed full-sweep BENCH_latency.json stays the
# reference report.
latency_dir=$(mktemp -d)
cargo run --release -p titancfi-bench --bin latency -- \
    --smoke --out "$latency_dir/BENCH_latency.json"
test -s "$latency_dir/BENCH_latency.json" || { echo "latency smoke: report missing/empty"; exit 1; }
rm -rf "$latency_dir"

echo "==> fleet smoke (sharded fleet, every frame integrity-verified at ingest; exact columns equal at 2 and 3 shards)"
# The fleet binary exits nonzero if any swept device count loses or
# corrupts a single commit-log frame, sees a duplicate/gapped sequence
# number, or leaves a device undrained/unreaped at shutdown. --shards 3
# forces the multi-worker sharded-ingest drain path even on small CI
# runners (an odd count so partitions are uneven). The smoke sweep
# writes to a scratch dir so the committed full-sweep BENCH_fleet.json
# stays the reference curve.
fleet_dir=$(mktemp -d)
cargo run --release -p titancfi-bench --bin fleet -- \
    --smoke --shards 3 --out "$fleet_dir/BENCH_fleet.json"
test -s "$fleet_dir/BENCH_fleet.json" || { echo "fleet smoke: report missing/empty"; exit 1; }
# Belt-and-braces losslessness assertion on the report itself: every
# integrity column must be zero, and in every row the rings' summed
# counters must show frames-in == frames-out == frames ingested, with
# nothing corrupt.
python3 - "$fleet_dir/BENCH_fleet.json" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
for row in report["rows"]:
    assert row["shards"] > 1, f"smoke must exercise sharded ingest: {row}"
    for col in ("frames_lost", "frames_corrupt", "seq_duplicates", "seq_gaps", "undrained_devices"):
        assert row[col] == 0, f"{row['devices']} devices: {col}={row[col]}"
    t = row["transport"]
    assert t["sent"] == t["received"] == row["frames_ok"] and t["corrupt"] == 0, f"{row['devices']} devices: {t}"
print("fleet smoke: lossless across", len(report["rows"]), "rows")
PY
# The simulated columns are pure functions of the config, so a run on two
# shards must match the three-shard report row for row, as the fault
# matrix must at -j 1 and -j 4. Steals depend on the schedule and stay
# ungated.
cargo run --release -p titancfi-bench --bin fleet -- \
    --smoke --shards 2 --out "$fleet_dir/BENCH_fleet_shards2.json"
python3 - "$fleet_dir/BENCH_fleet.json" "$fleet_dir/BENCH_fleet_shards2.json" <<'PY'
import json, sys
def exact(path):
    return [(row["devices"], row["frames_ok"], row["sim_cycles"], row["turns"],
             row["completed_runs"], row["transport"]["sent"])
            for row in json.load(open(path))["rows"]]
three, two = exact(sys.argv[1]), exact(sys.argv[2])
assert three == two, f"exact columns differ across shard counts: --shards 3 {three} vs --shards 2 {two}"
print("fleet smoke: exact columns equal at 2 and 3 shards:", three)
PY
rm -rf "$fleet_dir"

echo "==> ci.sh: all green"
