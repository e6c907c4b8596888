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
# later stage and drill runs `bench <command>` (the `bench help` table)
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
# Usage: scripts/verify.sh [--lint] [--resume] [--obs] [--perf] [--scenarios] [--supervise]
#   --lint    additionally run the simlint static-analysis pass over the
#             whole workspace (the rules are listed in DESIGN.md, "Static
#             analysis & enforced invariants") and the spec/invariant
#             compliance tracker. Zero unsuppressed findings and full
#             invariant coverage required.
#   --resume  additionally drill the durability layer end to end: start a
#             tiny-scale journaled campaign, SIGTERM it mid-flight, resume
#             it, and require the merged matrix to be byte-identical to an
#             uninterrupted run.
#   --obs     additionally run a tiny-scale chaos sweep with --trace-out
#             twice through the `bench` binary — the exported Perfetto
#             traces must be byte-identical across the two runs. The same
#             check runs in process in the default test stage
#             (crates/core/src/chaos.rs,
#             trace_out_is_byte_identical_across_runs), as do the obs unit
#             tests and the golden obs fingerprint/reproducibility tests.
#             It also runs a tiny campaign with --trace-out twice: every
#             artifact and the matrix must be byte-identical. Then it
#             runs the campaign once more with --trace-out under a
#             regular file: it must exit 5 (DEGRADED), and its matrix
#             must be byte-identical to the healthy run's, because a lost
#             trace costs only itself, never a cell.
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
#   --scenarios
#             additionally run the declarative resilience suite twice at
#             tiny scale: every scenario must behave (positives pass
#             their expectations, the negative entry fails its
#             RecoveryWithin check as designed) and the two runs' verdict
#             JSON and observability exports (obs/resilience.prom,
#             obs/resilience.trace.json) must be byte-identical. The
#             default test stage pins all three across commits
#             (crates/core/tests/golden_resilience.rs).
#   --supervise
#             additionally drill fleet supervision end to end: a sharded
#             tiny-scale campaign with an injected always-panicking cell
#             must finish without it (exit 4, the poison cell a "failed"
#             record in a journal shard); the same campaign kill -9'd
#             mid-flight and resumed on a narrower pool must produce a
#             byte-identical matrix, failed list included; and the
#             journal at 4 shards must hold 0.85x the throughput of 1
#             shard (perf_gates journal_sharding).
set -uo pipefail
cd "$(dirname "$0")/.."

lint=0
resume=0
obs=0
perf=0
scenarios=0
supervise=0
for arg in "$@"; do
    case "$arg" in
        --lint) lint=1 ;;
        --resume) resume=1 ;;
        --obs) obs=1 ;;
        --perf) perf=1 ;;
        --scenarios) scenarios=1 ;;
        --supervise) supervise=1 ;;
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

stage_lint() {
    cargo run --release --offline -p simlint -- --workspace &&
    cargo run --release --offline -p simlint -- compliance
}

# Return once the shards under journal directory $1 hold more than $2
# lines, or process $3 is gone, or a minute has passed. The whole tiny
# campaign takes a fraction of a second, so poll every 10 ms or the
# signal lands after the last cell.
await_shard_lines() {
    local dir=$1 lines=$2 pid=$3
    for _ in $(seq 1 6000); do
        if [[ $(cat "$dir"/shard-*.jsonl 2>/dev/null | wc -l) -gt $lines ]]; then return; fi
        kill -0 "$pid" 2>/dev/null || return 0
        sleep 0.01
    done
}

stage_resume() {
    drill=$(mktemp -d)
    # Golden reference: the campaign start to finish, uninterrupted.
    (cd "$drill" && mkdir -p golden && cd golden && GREENENVY_SCALE=tiny \
        bench campaign --paranoid --threads 2) || return 1

    # Interrupted run: SIGTERM once the journal shows progress, then
    # --resume to completion. Exit 130 is the campaign's "cancelled,
    # journal intact" signal.
    mkdir -p "$drill/drill"
    # exec so $pid IS the campaign process and the SIGTERM reaches it.
    (cd "$drill/drill" && GREENENVY_SCALE=tiny \
        exec "$repo/target/release/bench" campaign --paranoid --threads 2) &
    local pid=$!
    # >5 lines = 2 shard headers + some journaled cells: interrupt
    # mid-flight.
    await_shard_lines "$drill/drill/results/campaign_tiny.journal" 5 "$pid"
    kill -TERM "$pid" 2>/dev/null || true
    local status=0
    wait "$pid" || status=$?
    if [[ $status -ne 130 && $status -ne 0 ]]; then
        echo "verify.sh: interrupted campaign exited $status (wanted 130 graceful or 0 completed)" >&2
        return 1
    fi
    (cd "$drill/drill" && GREENENVY_SCALE=tiny \
        bench campaign --paranoid --threads 2 --resume) || return 1

    if ! cmp -s "$drill/golden/results/matrix_tiny.json" "$drill/drill/results/matrix_tiny.json"; then
        echo "verify.sh: resumed matrix differs from the uninterrupted run" >&2
        diff "$drill/golden/results/matrix_tiny.json" "$drill/drill/results/matrix_tiny.json" | head >&2 || true
        return 1
    fi
    echo "resume drill: resumed matrix is byte-identical to the uninterrupted run"
}

stage_obs() {
    # Run the tiny chaos sweep twice with --trace-out: deterministic
    # observability means every exported artifact is byte-identical
    # between the runs.
    local tracedir
    tracedir=$(mktemp -d)
    local run
    for run in a b; do
        (cd "$tracedir" && mkdir -p "$run" && cd "$run" && GREENENVY_SCALE=tiny \
            bench chaos --trace-out traces) || { rm -rf "$tracedir"; return 1; }
    done
    local n
    n=$(ls "$tracedir/a/traces"/*.trace.json 2>/dev/null | wc -l)
    if [[ $n -lt 2 ]]; then
        echo "verify.sh: expected traces in $tracedir/a/traces, found $n" >&2
        rm -rf "$tracedir"; return 1
    fi
    local f
    for f in "$tracedir/a/traces"/*; do
        if ! cmp -s "$f" "$tracedir/b/traces/$(basename "$f")"; then
            echo "verify.sh: trace artifact $(basename "$f") differs between identical runs" >&2
            rm -rf "$tracedir"; return 1
        fi
    done
    if ! grep -q '"traceEvents"' "$tracedir/a/traces"/*.trace.json; then
        echo "verify.sh: exported trace is not Chrome-trace JSON" >&2
        rm -rf "$tracedir"; return 1
    fi
    echo "obs drill: $n trace artifacts byte-identical across two chaos runs"

    # The same for a traced tiny campaign: every artifact and the matrix.
    for run in ca cb; do
        (cd "$tracedir" && mkdir -p "$run" && cd "$run" && GREENENVY_SCALE=tiny \
            bench campaign --trace-out traces) || { rm -rf "$tracedir"; return 1; }
    done
    n=$(ls "$tracedir/ca/traces"/*.trace.json 2>/dev/null | wc -l)
    for f in $(cd "$tracedir/ca" && echo traces/* results/matrix_tiny.json); do
        if ! cmp -s "$tracedir/ca/$f" "$tracedir/cb/$f"; then
            echo "verify.sh: campaign artifact $f differs between identical runs" >&2
            rm -rf "$tracedir"; return 1
        fi
    done
    if [[ $n -ne 40 ]]; then
        echo "verify.sh: expected 40 campaign traces, found $n" >&2
        rm -rf "$tracedir"; return 1
    fi

    # A --trace-out that cannot be made: DEGRADED, and the same matrix.
    mkdir -p "$tracedir/blocked" && : > "$tracedir/blocked/blocker"
    local status=0
    (cd "$tracedir/blocked" && GREENENVY_SCALE=tiny \
        bench campaign --trace-out blocker/traces 2>/dev/null) || status=$?
    if [[ $status -ne 5 ]]; then
        echo "verify.sh: campaign with a blocked --trace-out exited $status (wanted 5 DEGRADED)" >&2
        rm -rf "$tracedir"; return 1
    fi
    if ! cmp -s "$tracedir/ca/results/matrix_tiny.json" "$tracedir/blocked/results/matrix_tiny.json"; then
        echo "verify.sh: a lost trace changed the campaign matrix" >&2
        rm -rf "$tracedir"; return 1
    fi
    echo "obs drill: $n campaign traces and the matrix byte-identical across two runs; a blocked --trace-out degrades (exit 5) to the same matrix"
    rm -rf "$tracedir"
}

stage_scenarios() {
    # The suite verdict and its obs exports are documented as pure
    # functions of its specs: two tiny-scale runs must behave AND emit
    # byte-identical files.
    local scndir
    scndir=$(mktemp -d)
    local run
    for run in a b; do
        (cd "$scndir" && mkdir -p "$run" && cd "$run" && GREENENVY_SCALE=tiny \
            bench scenarios --out verdict.json --trace-out obs) \
            || { rm -rf "$scndir"; return 1; }
    done
    local f
    for f in verdict.json obs/resilience.prom obs/resilience.trace.json; do
        if ! cmp -s "$scndir/a/$f" "$scndir/b/$f"; then
            echo "verify.sh: scenario $f differs between identical runs" >&2
            diff "$scndir/a/$f" "$scndir/b/$f" | head >&2 || true
            rm -rf "$scndir"; return 1
        fi
    done
    if ! grep -q '"all_behaved": true' "$scndir/a/verdict.json"; then
        echo "verify.sh: resilience suite misbehaved" >&2
        rm -rf "$scndir"; return 1
    fi
    if ! grep -q 'scenario_recovery_time_ms' "$scndir/a/obs/resilience.prom"; then
        echo "verify.sh: recovery histogram missing from the obs export" >&2
        rm -rf "$scndir"; return 1
    fi
    echo "scenario drill: suite behaved, verdict and obs exports byte-identical across two runs"
    rm -rf "$scndir"
}

stage_supervise() {
    supdir=$(mktemp -d)

    # Gate 1: sharding must not cost checkpoint throughput.
    bench perf_gates journal_sharding || return 1

    # Gate 2: golden poisoned run. The injected cubic@1500 cell panics
    # whenever it runs; the campaign must run it once, record it as a
    # "failed" record in a shard and finish the other 39 cells (exit 4).
    mkdir -p "$supdir/golden"
    local status=0
    (cd "$supdir/golden" && GREENENVY_SCALE=tiny GREENENVY_POISON=cubic@1500 \
        bench campaign --threads 3 --journal-dir journal 2>/dev/null) || status=$?
    if [[ $status -ne 4 ]]; then
        echo "verify.sh: poisoned campaign exited $status (wanted 4: finished minus failed cells)" >&2
        return 1
    fi
    poison_recorded "$supdir/golden/journal" || return 1

    # Gate 3: the same poisoned campaign kill -9'd mid-flight, then
    # resumed on a narrower pool. No graceful handler runs on SIGKILL —
    # durability comes purely from the fsynced shard appends. The resume
    # re-runs the poison cell on the same seeds, so the whole matrix,
    # failed list included, must be byte-identical.
    mkdir -p "$supdir/drill"
    # exec so $pid IS the campaign process: a kill -9 must hit the worker
    # pool itself, not a subshell wrapper that would leave the campaign
    # running as an orphan (and the drill testing nothing).
    (cd "$supdir/drill" && GREENENVY_SCALE=tiny GREENENVY_POISON=cubic@1500 \
        exec "$repo/target/release/bench" campaign --threads 3 --journal-dir journal 2>/dev/null) &
    local pid=$!
    # >6 lines = 3 shard headers + some journaled cells: mid-flight.
    await_shard_lines "$supdir/drill/journal" 6 "$pid"
    kill -9 "$pid" 2>/dev/null || true
    status=0
    wait "$pid" || status=$?
    if [[ $status -ne 137 && $status -ne 4 ]]; then
        echo "verify.sh: killed campaign exited $status (wanted 137 SIGKILL or 4 completed)" >&2
        return 1
    fi
    status=0
    (cd "$supdir/drill" && GREENENVY_SCALE=tiny GREENENVY_POISON=cubic@1500 \
        bench campaign --threads 2 --journal-dir journal --resume 2>/dev/null) || status=$?
    if [[ $status -ne 4 ]]; then
        echo "verify.sh: resumed poisoned campaign exited $status (wanted 4: finished minus failed cells)" >&2
        return 1
    fi
    poison_recorded "$supdir/drill/journal" || return 1
    local golden="$supdir/golden/results/matrix_tiny.json" resumed="$supdir/drill/results/matrix_tiny.json"
    if ! cmp -s "$golden" "$resumed"; then
        echo "verify.sh: resumed matrix differs from the uninterrupted poisoned run" >&2
        diff "$golden" "$resumed" | head >&2 || true
        return 1
    fi
    echo "supervise drill: poison cell failed once (exit 4) and kill -9 resume is byte-identical"
}

# The poison cell is a "failed" record in a shard of journal directory
# $1, naming the injected panic, and the shards are the only journal
# files there: no side file holds failures.
poison_recorded() {
    local dir=$1 other
    if ! grep -h '"kind":"failed"' "$dir"/shard-*.jsonl | grep -q 'injected poison cell cubic @ mtu 1500'; then
        echo "verify.sh: no \"failed\" record in $dir names the poison cell" >&2
        return 1
    fi
    other=$(cd "$dir" && ls -- *.jsonl | grep -v '^shard-[0-9]*\.jsonl$')
    if [[ -n $other ]]; then
        echo "verify.sh: $dir holds journal files besides its shards: $other" >&2
        return 1
    fi
}

repo=$PWD
smoke=$(mktemp -d)
drill=""
supdir=""
trap 'rm -rf "$smoke" ${drill:+"$drill"} ${supdir:+"$supdir"}' EXIT

run_stage "build (release, offline)" stage_build
run_stage "fmt (cargo fmt --check)" stage_fmt
run_stage "clippy (workspace, -D warnings)" stage_clippy
run_stage "tests (offline)" stage_test
run_stage "regenerate results/ (GREENENVY_SCALE=standard)" stage_smoke
if [[ $perf -eq 1 ]]; then
    run_stage "perf (ratio gates + benchmark quick check)" stage_perf
fi
if [[ $lint -eq 1 ]]; then
    run_stage "lint (simlint --workspace + compliance)" stage_lint
fi
if [[ $resume -eq 1 ]]; then
    run_stage "resume (kill/resume drill, GREENENVY_SCALE=tiny)" stage_resume
fi
if [[ $obs -eq 1 ]]; then
    run_stage "obs (trace reproducibility, GREENENVY_SCALE=tiny)" stage_obs
fi
if [[ $scenarios -eq 1 ]]; then
    run_stage "scenarios (resilience suite, GREENENVY_SCALE=tiny)" stage_scenarios
fi
if [[ $supervise -eq 1 ]]; then
    run_stage "supervise (poison cell + kill -9 drill, GREENENVY_SCALE=tiny)" stage_supervise
fi

print_summary
exit $failed
