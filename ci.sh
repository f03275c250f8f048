#!/usr/bin/env bash
# The CI gates: .github/workflows/ci.yml runs this script, so it is the
# one definition of what CI checks.
#
# Every step is offline by construction: the workspace has zero registry
# dependencies (see README "Hermetic builds"). Run before pushing.

set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

# Per-step wall-clock bookkeeping: step() closes the previous step and
# opens the next; timing_summary() prints the table at the end.
STEP_NAMES=()
STEP_SECS=()
CURRENT_STEP=""
STEP_START=0

finish_step() {
    if [[ -n "$CURRENT_STEP" ]]; then
        STEP_NAMES+=("$CURRENT_STEP")
        STEP_SECS+=($(( $(date +%s) - STEP_START )))
        CURRENT_STEP=""
    fi
}

step() {
    finish_step
    CURRENT_STEP="$*"
    STEP_START=$(date +%s)
    printf '\n==> %s\n' "$*"
}

timing_summary() {
    finish_step
    printf '\n==> per-step elapsed seconds\n'
    local i
    for i in "${!STEP_NAMES[@]}"; do
        printf '%6ss  %s\n' "${STEP_SECS[$i]}" "${STEP_NAMES[$i]}"
    done
}

# repro_diff <experiment> [extra repro args...]
#
# The determinism gate for one repro experiment: runs it twice at
# INCAM_THREADS=1 and once at INCAM_THREADS=4 (seed 2017, the committed
# default), then byte-compares the three outputs — run-to-run and
# thread-count determinism in one shot.
repro_diff() {
    local exp="$1"; shift
    local base="$tmpdir/repro_${exp}"
    INCAM_THREADS=1 cargo run --release --offline -p incam-bench --bin repro -- \
        --experiment "$exp" --seed 2017 "$@" > "${base}_t1a.txt"
    INCAM_THREADS=1 cargo run --release --offline -p incam-bench --bin repro -- \
        --experiment "$exp" --seed 2017 "$@" > "${base}_t1b.txt"
    INCAM_THREADS=4 cargo run --release --offline -p incam-bench --bin repro -- \
        --experiment "$exp" --seed 2017 "$@" > "${base}_t4.txt"
    cmp "${base}_t1a.txt" "${base}_t1b.txt"
    cmp "${base}_t1a.txt" "${base}_t4.txt"
}

step "build (release, offline)"
cargo build --release --offline --workspace

step "test (offline)"
cargo test -q --offline --workspace

step "test (offline, INCAM_THREADS=4 worker pool)"
INCAM_THREADS=4 cargo test -q --offline --workspace

step "fmt --check"
cargo fmt --all --check

step "incam-lint (determinism, hermeticity, races, coherence)"
cargo run --release --offline -p incam-lint
cargo run --release --offline -p incam-lint -- --format json > "$tmpdir/lint.json"
cargo run --release --offline -p incam-lint -- --audit > "$tmpdir/lint-audit.txt"
cmp "$tmpdir/lint-audit.txt" results/lint-audit.txt

step "incam-lint JSON schema check (incam-lint/1 document)"
cargo test -q --offline -p incam-bench --test lintjson

step "clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

step "doc (no-deps, deny rustdoc warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

step "determinism smoke (harvest study, run-to-run and threads 1 vs 4)"
repro_diff harvest

step "parallel determinism (FA + VR + chaos reports, threads 1 vs 4)"
for exp in fa-pipeline fig6 chaos; do
    repro_diff "$exp" --quick
done

step "fleet determinism (discrete-event simulator, threads 1 vs 4)"
repro_diff fleet --quick

step "kernels determinism (hot-kernel digests vs reference oracles, threads 1 vs 4)"
repro_diff kernels --quick
! grep -q DIVERGED "$tmpdir/repro_kernels_t1a.txt"

step "verify determinism (fail-closed auth service, threads 1 vs 4)"
repro_diff verify --quick

step "explore-scale determinism (pruned search on the widened space, threads 1 vs 4)"
repro_diff explore-scale --quick

step "registry determinism (remaining repro experiments, threads 1 vs 4)"
for exp in fig4c nn-topology pe-geometry bitwidth sigmoid fa-space fig7 fig9 fig10 links table1 compression ablations; do
    repro_diff "$exp" --quick
done

step "examples smoke (quickstart + offload_explorer vs committed transcripts)"
cargo run --release --offline --example quickstart > "$tmpdir/quickstart.txt"
cmp "$tmpdir/quickstart.txt" results/examples/quickstart.txt
cargo run --release --offline --example offload_explorer > "$tmpdir/offload_explorer.txt"
cmp "$tmpdir/offload_explorer.txt" results/examples/offload_explorer.txt

step "BENCH_*.json schema check (committed trajectory files)"
cargo test -q --offline -p incam-bench --test benchjson

step "bench harness smoke (2 samples)"
# INCAM_BENCH_DIR keeps smoke output away from the committed
# BENCH_*.json baselines (default dir is the package).
INCAM_BENCH_SAMPLES=2 INCAM_BENCH_DIR="$tmpdir" cargo bench --offline -p incam-bench -- fa_pipeline

step "benchmark smoke (BENCHMARK.json driver, every workload once)"
# The benchmark is a stand-alone package outside the workspace, so the
# build and clippy gates above never compile it; this gate does.
bash crates/bench/examples/perf/run.sh smoke

timing_summary
printf '\nAll gates passed.\n'
