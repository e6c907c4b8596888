#!/usr/bin/env bash
# Count the workspace's Rust lines: product (non-test) and total.
#
#   scripts/loc.sh
#
# Reads every tracked or new (untracked, not ignored) `.rs` file outside
# vendor/ and benchmark/. Every line of such a file counts toward the
# total. Files under a `tests/` directory are all test code. Any other
# file is product code up to the `#[cfg(test)]` that opens a module; a
# `#[cfg(test)]` on another item (a test-only variant, field or helper)
# does not end it.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

files=()
while IFS= read -r -d '' f; do
    [[ -f $f ]] && files+=("$f")
done < <(git ls-files -z --cached --others --exclude-standard -- '*.rs' \
    ':!vendor/' ':!benchmark/' | sort -zu)

awk '
function flush() {
    if (file == "") return
    total += n
    if (!testfile) product += cut ? at : n
}
FNR == 1 {
    flush()
    file = FILENAME; testfile = (file ~ /(^|\/)tests\//)
    n = 0; cut = 0; armed = 0
}
{ n++ }
cut || testfile { next }
/^[ \t]*#\[cfg\(test\)\][ \t]*$/ { armed = FNR; next }
armed && (/^[ \t]*$/ || /^[ \t]*#\[/) { next }
armed && /^[ \t]*(pub(\([^)]*\))?[ \t]+)?mod[ \t]/ { cut = 1; at = armed - 1 }
{ armed = 0 }
END {
    flush()
    printf "non-test %d\ntotal    %d\n", product, total
}
' "${files[@]}"
