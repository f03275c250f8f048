#!/usr/bin/env bash
# Builds and runs the repository benchmark driver (see README.md here).
#
#   run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#   run.sh W [--seed N] [--seconds S] [layers]
#   run.sh record DIR [--seed N] [--seconds S]   every workload, both modes
#   run.sh compare A B                           two record directories
#   run.sh smoke                                 one short round of everything
#
# The driver runs in a scratch directory under the build directory
# ($CARGO_TARGET_DIR, default .bench_build at the repository root), with
# INCAM_BENCH_SAMPLES and INCAM_BENCH_DIR unset so the bench harness uses
# the driver's sample counts and writes BENCH_perf.json where the driver
# reads it back. The last line a run prints is its JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../../../.." && pwd)"
spec="$root/BENCHMARK.json"
workloads=(fa_gated fa_dense vr_rig verify_chaos fleet_20k explore_sweep)

target="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
bin="$target/release/incam-perf"

build() {
    CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
        --manifest-path "$here/Cargo.toml" >&2
}

# drive REQUEST [ARG]: runs the driver in a fresh scratch directory with
# REQUEST on stdin and ARG (the harness filter) on its command line.
drive() {
    local work status=0
    work="$(mktemp -d "$target/perf-run.XXXXXX")"
    (cd "$work" && env -u INCAM_BENCH_SAMPLES -u INCAM_BENCH_DIR "$bin" "${@:2}" <<<"$1") ||
        status=$?
    rm -rf "$work"
    return "$status"
}

seed=2017
seconds=""
trace=0
workload=""
mode=run
args=()
while [[ $# -gt 0 ]]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        layers) trace=1; shift ;;
        record | compare | smoke) mode="$1"; shift ;;
        *) args+=("$1"); shift ;;
    esac
done

if [[ -z "$seconds" ]]; then
    seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$spec")"
fi
mkdir -p "$target"
build
case "$mode" in
    run)
        [[ -z "$workload" && ${#args[@]} -gt 0 ]] && workload="${args[0]}"
        [[ -n "$workload" ]] || { echo "usage: run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]" >&2; exit 2; }
        drive "run $workload $seed $seconds $trace 0" "$workload"
        ;;
    record)
        [[ ${#args[@]} -eq 1 ]] || { echo "usage: run.sh record DIR [--seed N] [--seconds S]" >&2; exit 2; }
        mkdir -p "${args[0]}"
        for w in "${workloads[@]}"; do
            drive "run $w $seed $seconds 0 0" "$w" | tail -n 1 >"${args[0]}/$w.json"
            drive "run $w $seed $seconds 1 0" "$w" | tail -n 1 >"${args[0]}/$w.layers.json"
        done
        ;;
    compare)
        [[ ${#args[@]} -eq 2 ]] || { echo "usage: run.sh compare A B" >&2; exit 2; }
        drive "compare $(cd "${args[0]}" && pwd) $(cd "${args[1]}" && pwd) $spec"
        ;;
    smoke)
        out="$(mktemp -d "$target/perf-smoke.XXXXXX")"
        for w in "${workloads[@]}"; do
            drive "run $w $seed 0 0 1" "$w" | tail -n 1 >"$out/$w.json"
        done
        drive "run fa_gated $seed 0 1 1" fa_gated | tail -n 1 >"$out/fa_gated.layers.json"
        status=0
        drive "check $out $spec" || status=$?
        rm -rf "$out"
        exit "$status"
        ;;
esac
