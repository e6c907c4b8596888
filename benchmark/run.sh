#!/usr/bin/env bash
# The one command: build the benchmark as users build the product, run the
# full ledger, print every metric by name with its unit, check outputs,
# write benchmark/out/result.json and per-workload traces. Exits non-zero
# on a failed check.
#
#   benchmark/run.sh                 # seed 1, 15 rounds, ~4 min on 2 cores
#   benchmark/run.sh --quick         # 3 rounds at quarter sizes, ~30 s
#   benchmark/run.sh --selfcheck     # two sets back to back, compared
#   benchmark/run.sh --record        # also append a row to benchmark/history.jsonl
#   benchmark/run.sh --seed 7 ...    # any other flag goes to the binary
set -euo pipefail
cd "$(dirname "$0")/.."

# The benchmark is its own workspace, so it does not inherit the root's
# [profile.release]; it carries a copy. Parse both tables and refuse to
# measure with a different build than the one users get.
release_profile() {
    awk '
        /^\[profile\.release\]/ { on = 1; next }
        /^\[/                   { on = 0 }
        on && NF && $0 !~ /^[ \t]*#/ { gsub(/[ \t]/, ""); print }
    ' "$1" | sort
}
if [ "$(release_profile Cargo.toml)" != "$(release_profile benchmark/Cargo.toml)" ]; then
    echo "benchmark/Cargo.toml [profile.release] differs from the root's:" >&2
    diff <(release_profile Cargo.toml) <(release_profile benchmark/Cargo.toml) >&2 || true
    exit 2
fi

args=()
for arg in "$@"; do
    args+=("$arg")
    if [ "$arg" = "--record" ]; then
        args+=("$(git rev-parse HEAD 2>/dev/null || echo unknown)")
    fi
done

exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "${args[@]}"
