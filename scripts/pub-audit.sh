#!/usr/bin/env bash
# The public-surface audit. A cross-crate `pub` hides an item from
# rustc's dead_code lint, so a `pub` item nothing outside its crate
# needs is either dead or should be `pub(crate)`. Two rules find them:
#
# * Types and constants (struct, enum, trait, type, const, static)
#   under crates/*/src: listed when their name appears in no `.rs` file
#   outside their own crate's src — not in another crate, in tests/,
#   examples/ or benchmark/. The match is by name, so a listed item is
#   certainly unnamed from outside; an unlisted one may still be.
# * Functions: the compiler decides. On a scratch worktree of the
#   tracked files, every `pub fn` under crates/*/src becomes
#   `pub(crate) fn`; `cargo check --offline` runs on the workspace (all
#   targets) and on benchmark/, every function an error names gets its
#   `pub` back, and that repeats until both compile. The functions left
#   demoted are listed.
#
# Prints "<crate> <name>" per listed item, and the counts on stderr.
# With --check, exits 1 if it lists an item not in ALLOWED.
#
# Usage: scripts/pub-audit.sh [--check]
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

# Items that stay `pub` although the audit lists them (CHANGES.md gives
# each one's reason):
ALLOWED=(
    # called by the `report` binary, a separate target of the same crate
    "bench DEDUP_RATE_FLOOR" "bench MEMO_HIT_RATE_FLOOR"
    # in a public signature or field that another crate reaches
    "core Blocker" "core CheckStats" "core Diagnosis" "core IdHasher"
    "isa OpCost" "isa TraceOp" "mc DporOutcome" "mc ExperimentResult"
    "mc TheoremClass" "memsim ExploreOutcome" "obs Event" "obs PhaseGuard"
    "replay ReplayOutcome" "replay ShrinkStats" "sat SolverStats"
    # beside a `pub len`, which clippy's len_without_is_empty pairs it with
    "core is_empty" "mc is_empty"
)

crate_of() {
    local c=${1#crates/}
    echo "${c%%/*}"
}

# Types and constants, by name.
TYPE='^\s*pub (struct|enum|trait|type|const|static) [A-Za-z_][A-Za-z0-9_]*'
types=$(git grep -hE "$TYPE" -- 'crates/*/src/**' | grep -cvE '^\s*pub const fn' || true)
listed=()
for dir in crates/*/src; do
    for name in $(git grep -hoE "$TYPE" -- "$dir" | awk '{print $NF}' | grep -vx fn | sort -u); do
        if ! git grep -qw "$name" -- '*.rs' ":!$dir"; then
            listed+=("$(crate_of "$dir") $name")
        fi
    done
done

# Functions, by compiling.
FN='^(\s*)pub ((const |unsafe )*fn [A-Za-z_])'
tmp=$(mktemp -d)
cleanup() {
    git worktree remove --force "$tmp/tree" >/dev/null 2>&1 || true
    rm -rf "$tmp"
}
trap cleanup EXIT
rev=$(git stash create)
git worktree add --quiet --detach "$tmp/tree" "${rev:-HEAD}"
(
    cd "$tmp/tree"
    # One "<file>:<line>:<name>" per demoted function.
    git grep -nE "$FN" -- 'crates/*/src/**' |
        sed -E 's/^([^:]+):([0-9]+):\s*pub (const |unsafe )*fn ([A-Za-z_][A-Za-z0-9_]*).*/\1:\2:\4/' >"$tmp/demoted"
    cut -d: -f1 "$tmp/demoted" | sort -u | xargs sed -i -E "s/$FN/\1pub(crate) \2/"
    export CARGO_TARGET_DIR="$tmp/target"
    restore() { # <file>:<line>:<name> lines on stdin
        while IFS=: read -r file line name; do
            sed -i "${line}s/pub(crate) /pub /" "$file"
            grep -vxF "$file:$line:$name" "$tmp/demoted" >"$tmp/left" || true
            mv "$tmp/left" "$tmp/demoted"
        done
    }
    while :; do
        if cargo check --offline --workspace --all-targets --keep-going >"$tmp/out" 2>&1; then
            (cd benchmark && cargo check --offline --all-targets --keep-going) >"$tmp/out" 2>&1 && break
        fi
        # Restore what the errors name, not the warnings (dead_code points
        # at demoted lines): each location an error shows (the call and
        # the definition), and for a re-export, which shows no
        # definition, the crate and the name.
        awk '/^error/ { e = 1 } /^warning/ { e = 0 } e' "$tmp/out" >"$tmp/errors"
        { grep -oE '(-->|:::) \S+\.rs:[0-9]+' "$tmp/errors" || true; } | sed -E 's#^\S+ .*(crates/[^/]+/src/)#\1#' |
            sed 's/$/:/' >"$tmp/locs"
        awk '/^error\[E0364\]/ { split($0, q, "`"); name = q[2] }
             name != "" && / --> / { sub(/^.*crates\//, ""); sub(/\/.*/, ""); print "^crates/" $0 "/src/.*:" name "$"; name = "" }' \
            "$tmp/errors" >"$tmp/names"
        { grep -F -f "$tmp/locs" "$tmp/demoted" || true; grep -f "$tmp/names" "$tmp/demoted" || true; } |
            sort -u >"$tmp/hit"
        if [[ ! -s "$tmp/hit" ]]; then
            cat "$tmp/out" >&2
            echo "pub-audit: the demoted tree fails to compile for a reason it cannot undo" >&2
            exit 2
        fi
        restore <"$tmp/hit"
    done
) >&2
fns=$(git grep -hE "$FN" -- 'crates/*/src/**' | wc -l)
while IFS=: read -r file _ name; do
    listed+=("$(crate_of "$file") $name")
done <"$tmp/demoted"

printf '%s\n' "${listed[@]}" | sed '/^$/d'
echo "${types} pub types and constants, ${fns} pub functions, ${#listed[@]} listed" >&2

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
