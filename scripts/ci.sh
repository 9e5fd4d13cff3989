#!/usr/bin/env bash
# Full verification: format, lints, tests, docs, experiment smoke.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
cargo test --workspace
# perfbench/ is a separate package that compiles against the CLI, runner
# and store APIs; building it catches API breaks before the benchmark runs.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
# One repetition per figure workload: perfbench exits non-zero unless the
# rendered figures match their pinned digests and unit counts, so this
# gates byte-identical figure output.
for w in fig11-paper ablations-paper; do
    cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$w" --seconds 1 --trace 0
done
cargo doc --workspace --no-deps
cargo bench --workspace -- --test   # criterion harness smoke (no timing)
cargo run --release -q -p eureka-cli -- verify --replay tests/corpus
cargo run --release -q -p eureka-cli -- verify --cases 200 --seed 42 | tail -n 1
cargo run --release -q -p eureka-cli -- verify --fault-matrix --seed 42 | tail -n 1
cargo run --release -q -p eureka-cli -- verify --chaos --cases 50 --seed 42 | tail -n 1
scripts/resume_smoke.sh
scripts/serve_smoke.sh
# bench diff exit-code contract: missing snapshot = 2 (broken wiring),
# regression = 1 (the gate fired) — CI must be able to tell them apart.
set +e
cargo run --release -q -p eureka-cli -- bench diff /nonexistent.json /nonexistent.json 2>/dev/null
[ $? -eq 2 ] || { echo "bench diff on a missing snapshot must exit 2" >&2; exit 1; }
set -e
obs_dir=$(mktemp -d)
trap 'rm -rf "$obs_dir"' EXIT
# Profile smoke: the cycle-attribution export must be byte-identical
# across runs (determinism is part of the profiler's contract).
cargo run --release -q -p eureka-cli -- profile --benchmark mobilenetv1 \
    --arch eureka-p4 --fast --json - > /tmp/eureka-profile-a.json
cargo run --release -q -p eureka-cli -- profile --benchmark mobilenetv1 \
    --arch eureka-p4 --fast --json - > /tmp/eureka-profile-b.json
cmp /tmp/eureka-profile-a.json /tmp/eureka-profile-b.json
# The run-event stream's schema, its --jobs invariance and the reports'
# independence of the bus and the progress reporter are checked by
# crates/cli/tests/events_stream.rs, part of `cargo test --workspace`.
# Run ledger + regression gate: identical runs diff clean, the fresh
# BENCH snapshot stays within threshold of the committed trajectory,
# and an injected regression fails with a non-zero exit.
cargo run --release -q -p eureka-cli -- simulate --benchmark mobilenetv1 \
    --arch eureka-p4 --fast --ledger-dir "$obs_dir/ledger" > /dev/null
cargo run --release -q -p eureka-cli -- simulate --benchmark mobilenetv1 \
    --arch eureka-p4 --fast --ledger-dir "$obs_dir/ledger" > /dev/null
cargo run --release -q -p eureka-cli -- bench list --ledger-dir "$obs_dir/ledger"
recs=("$obs_dir"/ledger/*.json)
cargo run --release -q -p eureka-cli -- bench diff "${recs[0]}" "${recs[1]}"
cargo run --release -q -p eureka-cli -- profile --benchmark mobilenetv1 \
    --arch eureka-p4 --fast --no-ledger --bench-json "$obs_dir/bench-fresh.json"
cargo run --release -q -p eureka-cli -- bench diff \
    results/BENCH_1.json "$obs_dir/bench-fresh.json"
# The BENCH_2 → BENCH_3 step of the committed trajectory (the hot-path
# overhaul) must stay cycle-clean: modeled results were required to be
# byte-identical, so even a 2% drift between the snapshots is a bug.
cargo run --release -q -p eureka-cli -- bench diff \
    results/BENCH_2.json results/BENCH_3.json --max-regress 2
python3 - "$obs_dir/bench-fresh.json" "$obs_dir/bench-bad.json" <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
for arch in snap["archs"]:
    arch["total_cycles"] = int(arch["total_cycles"] * 1.10)
json.dump(snap, open(sys.argv[2], "w"), separators=(",", ":"))
EOF
if cargo run --release -q -p eureka-cli -- bench diff \
    results/BENCH_1.json "$obs_dir/bench-bad.json" 2>/dev/null; then
    echo "bench diff failed to reject a 10% cycle regression" >&2
    exit 1
fi
echo "CI OK"
