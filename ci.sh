#!/usr/bin/env bash
# Full CI gate for the MobiQuery reproduction workspace. Every check here is
# required; run it locally before pushing. Takes a few minutes cold.
set -euo pipefail
cd "$(dirname "$0")"

run() {
    echo "==> $*" >&2
    "$@"
}

run cargo fmt --check
run cargo clippy --workspace --all-targets -- -D warnings
run env RUSTDOCFLAGS='-D warnings' cargo doc --no-deps --workspace

# Tier-1 verify: release build + the facade's test suite (integration, doc).
run cargo build --release
run cargo test -q

# Every other member's unit/property/doc tests (the facade just ran).
run cargo test -q --workspace --exclude mobiquery-repro

# The repository benchmark (perfbench/, its own package outside the
# workspace) keeps its helper tests green: the Rust unit tests and the
# steady-state detector's Python tests.
run env CARGO_TARGET_DIR=target/perfbench cargo test -q --release \
    --manifest-path perfbench/Cargo.toml
run python3 perfbench/test_steady.py

# The examples and the CLI must stay runnable, not just compilable.
for ex in quickstart firefighter rescue_robot duty_cycle_tuning parallel_sweep; do
    run cargo run --release -q --example "$ex" >/dev/null
done
run cargo run --release -q --bin repro -- --quick fig4 >/dev/null
run cargo run --release -q --bin repro -- --help >/dev/null

# Determinism gate: the cross-trial fan-out must not change results — the
# JSON output has to be byte-identical whatever the worker count.
run cargo run --release -q --bin repro -- --quick --format json --jobs 1 \
    --out target/repro-jobs1.json fig4
run cargo run --release -q --bin repro -- --quick --format json --jobs 4 \
    --out target/repro-jobs4.json fig4
run cmp target/repro-jobs1.json target/repro-jobs4.json

# Same gate for the multi-user multiplexing path at a 64-user fleet: every
# trial already cross-checks shared trees against the naive one-tree-per-user
# reference, and the emitted bytes must not depend on the worker count.
run cargo run --release -q --bin repro -- --quick --users 64 --format json \
    --jobs 1 --out target/repro-mu-jobs1.json multiuser
run cargo run --release -q --bin repro -- --quick --users 64 --format json \
    --jobs 4 --out target/repro-mu-jobs4.json multiuser
run cmp target/repro-mu-jobs1.json target/repro-mu-jobs4.json

# Churn gate: a 20k-node deployment losing (and regaining) 5% of its nodes
# at every period boundary, repaired incrementally. The run itself proves
# repair ≡ re-election twice over — the engine cross-checks EVERY batch
# against a full priority election (nodes ≤ 200000 always verify) and the
# experiment asserts the final backbone equals a from-scratch election —
# and the cmp proves the deterministic output is byte-identical whatever
# the worker count.
run cargo run --release -q --bin repro -- --quick --scale 20000 \
    --churn-rate 0.05 --format json --jobs 1 --out target/churn-jobs1.json churn
run cargo run --release -q --bin repro -- --quick --scale 20000 \
    --churn-rate 0.05 --format json --jobs 4 --out target/churn-jobs4.json churn
run cmp target/churn-jobs1.json target/churn-jobs4.json

# Chaos gate: the fault schedule (bursty loss, crashes) and every recovery
# decision (retries, backoff, tree rebuilds) must be pure functions of the
# seed — the faulted sweep's JSON is byte-identical whatever the worker
# count, and tests/golden/resilience_quick.json pins the same bytes against
# the committed snapshot.
run cargo run --release -q --bin repro -- --quick --scale 2000 \
    --fault-loss 0.2 --format json --jobs 1 --out target/resilience-jobs1.json resilience
run cargo run --release -q --bin repro -- --quick --scale 2000 \
    --fault-loss 0.2 --format json --jobs 4 --out target/resilience-jobs4.json resilience
run cmp target/resilience-jobs1.json target/resilience-jobs4.json
run cmp target/resilience-jobs1.json tests/golden/resilience_quick.json

# Service smoke: the long-lived query path must share the same determinism
# contract as the batch runs — a fixed seed yields byte-identical JSON
# whatever the worker count. --jobs N now shards each boundary's query
# resolution across N pool workers *inside* the stepped engine, so the
# jobs-1-vs-4 cmp is a real equivalence proof of the sharded hot path,
# not just an argv-shape check.
run cargo run --release -q --bin repro -- serve --periods 8 --quick \
    --jobs 1 --out target/serve-jobs1.json
run cargo run --release -q --bin repro -- serve --periods 8 --quick \
    --jobs 4 --out target/serve-jobs4.json
run cmp target/serve-jobs1.json target/serve-jobs4.json
run cargo run --release -q --bin repro -- load --qps 4 --duration 40 \
    --nodes 1000 --jobs 1 --out target/load-jobs1.json
run cargo run --release -q --bin repro -- load --qps 4 --duration 40 \
    --nodes 1000 --jobs 4 --out target/load-jobs4.json
run cmp target/load-jobs1.json target/load-jobs4.json

# Benchmark smoke: one short sample of every perfbench workload must end
# with a result line reporting `"correct": true` and `"failed": 0`. Timings
# are perfbench's business; this gate only proves the workloads still run
# and still check their own answers.
for workload in paper_grid service_hotspot churn_walk; do
    echo "==> perfbench smoke: $workload" >&2
    result=$(CARGO_TARGET_DIR=target/perfbench python3 perfbench/run.py \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
    if ! grep -q '"correct": true' <<<"$result" || ! grep -q '"failed": 0,' <<<"$result"; then
        echo "perfbench $workload smoke failed: $result" >&2
        exit 1
    fi
done

echo "==> CI green"
