#!/usr/bin/env bash
# Full offline verification: release build, formatting, workspace clippy,
# the whole test suite, and the regeneration check: every tracked
# artifact under results/ rebuilt at standard scale from this tree and
# compared byte for byte with the committed file. This is what CI (and a
# reviewer) should run before merging engine or experiment changes. A
# pass/fail table for every stage is printed at the end, even when a
# stage fails.
#
# The build stage links the product once, as target/release/bench; every
# later stage runs `bench <command>` (the `bench help` table)
# straight from that file, from a scratch cwd of its own.
#
# The default test stage is the whole workspace — the same tests Tier-1's
# `cargo test -q` at the root runs. It already holds every topology's run
# to pinned bytes across commits: fig1/fig2/fig4
# (crates/core/tests/golden_figures.rs), the observed exports
# (golden_obs.rs), the lossy four-CCA run (golden_determinism.rs), the
# resilience suite's tiny verdict — dumbbell, one-rack and two-rack
# grids and parking lot in one artifact (golden_resilience.rs) — the tiny
# population fingerprint (crates/workload/tests/golden_population.rs)
# and the parking-lot runner
# (crates/scenario/tests/golden_parking.rs). Under all of them, the star
# every dumbbell and rack cell is built on is pinned link by link and
# route by route at both widths (`star_layout_is_pinned` in
# crates/netsim/src/topology.rs). It also holds everything
# that runs on worker threads to byte-equality across thread counts: the
# figure sweeps at 1, 2 and 5 threads (`thread_count_does_not_change_a_byte`
# in crates/core/src/fig{1,2,3}.rs), the population at 1, 3 and 8 threads
# and `run_population`'s default, every core, against one thread, the
# campaign matrix at 1, 2 and 8, and the ordered parallel map they share
# (crates/workload/src/par.rs).
#
# The test stage also holds the end-to-end durability, supervision,
# observability, scenario and lint properties: a tiny `bench campaign
# --paranoid` SIGKILLed and resumed to the uninterrupted matrix, and two
# traced campaigns byte-identical, one with a blocked --trace-out that
# degrades to the same matrix (crates/bench/tests/cli.rs); a panicking
# cell journaled as `failed` and resumed to the same matrix on fewer
# threads (crates/core/src/campaign/mod.rs); chaos traces byte-identical
# across runs (crates/core/src/chaos.rs); the resilience suite's verdict
# and exports (golden_resilience.rs); and a clean simlint pass
# (crates/simlint/tests/clean_workspace.rs).
#
# Usage: scripts/verify.sh [--perf]
#   --perf    additionally answer "did this change regress performance
#             or break the benchmark build": run the four ratio gates
#             (perf_gates: both sides of each ratio timed interleaved in
#             one process, nothing compared with a committed number) and
#             fail if a fully observed run costs more than 2.0x the plain
#             run (obs_full_overhead), if fig4 costs more than 0.5 of
#             fig1 + fig2 (fig4_sharing: its loads share simulations), if
#             a scoreboard ack at a 2048-segment window costs more than
#             5.0x one at 128 segments (sack_scaling: ack cost follows
#             the holes, not the window), or if the journal at 4 shards
#             appends fewer than 0.85x the records/s of 1 shard
#             (journal_sharding); count the full population's peak live
#             heap under a counting allocator and fail past 3.5 MB on one
#             thread or 5 MB on two (examples/population_heap.rs: what
#             lets racks run on every core); count the observed lossy
#             mix's peak live heap the same way and fail past 6.5 MB on
#             any of its three seeds (examples/observed_heap.rs: the
#             trace is held once); then build the benchmark
#             ledger and run its quick self-check (benchmark/run.sh
#             --quick), restore benchmark/Cargo.lock if the build
#             rewrote it, and fail if benchmark/ or BENCHMARK.json is
#             not clean in git afterwards. Absolute
#             times live on the ledger, see benchmark/README.md.
set -uo pipefail
cd "$(dirname "$0")/.."

perf=0
for arg in "$@"; do
    case "$arg" in
        --perf) perf=1 ;;
        *) echo "verify.sh: unknown argument: $arg" >&2; exit 2 ;;
    esac
done

# Stage bookkeeping: run_stage <name> <fn>. Stages run in order; once one
# fails, later stages are skipped but the summary table still prints so
# the first failure is visible next to everything that never ran.
stage_names=()
stage_results=()
failed=0

run_stage() {
    local name=$1 fn=$2
    stage_names+=("$name")
    if [[ $failed -eq 1 ]]; then
        stage_results+=("skip")
        return
    fi
    echo "== $name =="
    if "$fn"; then
        stage_results+=("pass")
    else
        stage_results+=("FAIL")
        failed=1
    fi
}

print_summary() {
    echo
    echo "== verify.sh summary =="
    local i
    for i in "${!stage_names[@]}"; do
        printf '  %-10s %s\n' "${stage_results[$i]}" "${stage_names[$i]}"
    done
    if [[ $failed -eq 1 ]]; then
        echo "verify.sh: FAILED"
    else
        echo "verify.sh: all green"
    fi
}

stage_build() {
    cargo build --release --offline --workspace
}

# Every later stage runs the product through this: the one `bench`
# binary the build stage just linked, so a stage costs what it runs, not
# a cargo freshness check. Stages cd to a scratch directory first where
# the command writes results/ (always relative to the cwd).
bench() {
    "$repo/target/release/bench" "$@"
}

stage_fmt() {
    cargo fmt --check
}

stage_clippy() {
    cargo clippy --release --offline --workspace --all-targets -- -D warnings
}

stage_test() {
    cargo test -q --offline --workspace
}

stage_smoke() {
    # Regenerate every tracked artifact from a scratch directory (the
    # commands write results/ relative to the cwd), one invocation per
    # command, and require each committed file back byte for byte: a
    # result in results/ is one this tree prints.
    local command f tracked status=0
    for command in all extensions chaos population report; do
        (cd "$smoke" && GREENENVY_SCALE=standard bench "$command") || return 1
    done
    tracked=$(git ls-files -- results)
    for f in $tracked; do
        if ! cmp -s "$f" "$smoke/$f"; then
            echo "verify.sh: $f differs from what this tree regenerates" >&2
            diff "$f" "$smoke/$f" | head >&2 || true
            status=1
        fi
    done
    for f in "$smoke"/results/*; do
        if ! grep -qxF "results/${f##*/}" <<<"$tracked"; then
            echo "verify.sh: regenerated results/${f##*/} is not tracked" >&2
            status=1
        fi
    done
    return $status
}

stage_perf() {
    bench perf_gates &&
    cargo run --release --offline --quiet --example population_heap &&
    cargo run --release --offline --quiet --example observed_heap || return 1
    # Building the benchmark may rewrite a stale benchmark/Cargo.lock. Put
    # the committed lock back, so a perf run never leaves an edit under
    # benchmark/ for the next `git add -A` to pick up.
    local lock status=0 dirty
    lock=$(mktemp)
    cp benchmark/Cargo.lock "$lock"
    benchmark/run.sh --quick || status=$?
    cp "$lock" benchmark/Cargo.lock
    rm -f "$lock"
    [[ $status -eq 0 ]] || return 1
    dirty=$(git status --porcelain -- benchmark BENCHMARK.json)
    if [[ -n $dirty ]]; then
        echo "verify.sh: benchmark/ or BENCHMARK.json is not clean after the perf stage:" >&2
        echo "$dirty" >&2
        return 1
    fi
}

repo=$PWD
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT

run_stage "build (release, offline)" stage_build
run_stage "fmt (cargo fmt --check)" stage_fmt
run_stage "clippy (workspace, -D warnings)" stage_clippy
run_stage "tests (offline)" stage_test
run_stage "regenerate results/ (GREENENVY_SCALE=standard)" stage_smoke
if [[ $perf -eq 1 ]]; then
    run_stage "perf (ratio gates + benchmark quick check)" stage_perf
fi

print_summary
exit $failed
