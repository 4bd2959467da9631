#!/usr/bin/env bash
# The public-surface audit: list every `pub` item (fn, struct, enum,
# trait, type, const, static) under crates/*/src whose name appears in
# no `.rs` file outside its own crate's src — not in another crate, in
# tests/, examples/ or benchmark/. A cross-crate `pub` hides an item
# from rustc's dead_code lint, so such an item is either dead or should
# be `pub(crate)`. The match is by name, so a listed item is certainly
# uncalled from outside; an unlisted one may still be.
#
# Prints "<crate> <name>" per item, and the counts on stderr.
# With --check, exits 1 if it lists an item not in ALLOWED.
#
# Usage: scripts/pub-audit.sh [--check]
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

# Items that stay `pub` although no file outside their crate names them
# (CHANGES.md gives each one's reason):
ALLOWED=(
    # called by the `report` binary, a separate target of the same crate
    "bench DEDUP_RATE_FLOOR" "bench MEMO_HIT_RATE_FLOOR" "bench dedup_rate_ok"
    "bench flight_complete" "bench memo_rate_ok" "bench monitor_ok"
    "bench zoo_covers_registry"
    # in a public signature or field that another crate reaches
    "core Blocker" "core CheckStats" "core Diagnosis" "core IdHasher"
    "isa OpCost" "isa TraceOp" "mc DporOutcome" "mc ExperimentResult"
    "mc TheoremClass" "memsim ExploreOutcome" "obs PhaseGuard"
    "replay ReplayOutcome" "replay ShrinkStats" "sat SolverStats"
    "stm TVarThread" "stm TypedTx"
)

ITEM='^\s*pub (const |unsafe )*(fn|struct|enum|trait|type|const|static) [A-Za-z_][A-Za-z0-9_]*'
total=$(git grep -hE "$ITEM" -- 'crates/*/src/**' | wc -l)
listed=()
for dir in crates/*/src; do
    crate=${dir#crates/}
    crate=${crate%/src}
    for name in $(git grep -hoE "$ITEM" -- "$dir" | awk '{print $NF}' | sort -u); do
        if ! git grep -qw "$name" -- '*.rs' ":!$dir"; then
            listed+=("$crate $name")
            echo "$crate $name"
        fi
    done
done
echo "${total} pub items, ${#listed[@]} listed" >&2

if [[ "${1:-}" == "--check" ]]; then
    status=0
    for item in "${listed[@]}"; do
        if ! printf '%s\n' "${ALLOWED[@]}" | grep -qxF "$item"; then
            echo "not allowlisted: $item" >&2
            status=1
        fi
    done
    exit "$status"
fi
