#!/usr/bin/env bash
# The public-surface audit. A cross-crate `pub` hides an item from
# rustc's dead_code lint, so a `pub` item nothing outside its crate
# needs is either dead or should be `pub(crate)`. The compiler decides
# which: on a scratch worktree of the tracked files, every `pub` fn,
# struct, enum, trait, type alias, const and static under crates/*/src
# becomes `pub(crate)`; `cargo check --offline` runs on the workspace
# (all targets) and on benchmark/, every item an error names gets its
# `pub` back, and that repeats until both compile. The items left
# demoted are listed. An item gets `pub` back only for an error that
# needs it, so an unrelated item of the same name elsewhere cannot keep
# an unused item `pub`.
#
# Prints "<file under crates/> <name>" per listed item, and the counts
# on stderr.
# With --check, exits 1 if it lists an item not in ALLOWED.
#
# Usage: scripts/pub-audit.sh [--check]
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

# Items that stay `pub` although the audit lists them (CHANGES.md gives
# each one's reason), by file under crates/ and name:
ALLOWED=(
    # beside a `pub len`, which clippy's len_without_is_empty pairs it with
    "core/src/builder.rs is_empty" "mc/src/verify.rs is_empty"
    # the `#[cfg(test)]` reference checkers legal.rs is compared against
    "core/src/legal_reference.rs PrefixChecker" "core/src/legal_reference.rs CsChecker"
)

# Every item the compiler decides: a fn (`const`/`unsafe` too), a type
# (struct, enum, trait, alias), or a const or static (a name and `:`,
# so not a `const fn`).
ITEM='^(\s*)pub ((const |unsafe )*fn [A-Za-z_]|(struct|enum|trait|type) [A-Za-z_]|(const|static) [A-Za-z_][A-Za-z0-9_]*:)'
TYPE='^\s*pub ((struct|enum|trait|type) [A-Za-z_]|(const|static) [A-Za-z_][A-Za-z0-9_]*:)'
listed=()
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
    # One "<file>:<line>:<name>" per demoted item.
    git grep -nE "$ITEM" -- 'crates/*/src/**' |
        sed -E 's/^([^:]+):([0-9]+):\s*pub ((const |unsafe )*fn|struct|enum|trait|type|const|static) ([A-Za-z_][A-Za-z0-9_]*).*/\1:\2:\5/' >"$tmp/demoted"
    cut -d: -f1 "$tmp/demoted" | sort -u | xargs sed -i -E "s/$ITEM/\1pub(crate) \2/"
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
        # the definition); for a re-export, which shows no definition,
        # the crate and the name; and for a value of a private type
        # used in another crate, the type's path (its crate or modules)
        # and name.
        awk '/^error/ { e = 1 } /^warning/ { e = 0 } e' "$tmp/out" >"$tmp/errors"
        { grep -oE '(-->|:::) \S+\.rs:[0-9]+' "$tmp/errors" || true; } | sed -E 's#^\S+ .*(crates/[^/]+/src/)#\1#' |
            sed 's/$/:/' >"$tmp/locs"
        awk '/^error\[E036[45]\]/ { split($0, q, "`"); name = q[2] }
             name != "" && / --> / { sub(/^.*crates\//, ""); sub(/\/.*/, ""); print "^crates/" $0 "/src/.*:" name "$"; name = "" }
             /^error: type `.*` is private/ {
                 split($0, q, "`"); n = split(q[2], seg, "::"); sub(/<.*/, "", seg[n]); pat = "^crates/"
                 for (i = 1; i < n; i++) {
                     if (seg[i] == "jungle") continue # the facade crate re-exports the others
                     if (sub(/^jungle_/, "", seg[i])) pat = pat seg[i] "/src/"
                     else pat = pat ".*" seg[i] "(\\.rs|/)"
                 }
                 print pat ".*:" seg[n] "$" }' \
            "$tmp/errors" >"$tmp/names"
        { grep -F -f "$tmp/locs" "$tmp/demoted" || true; grep -E -f "$tmp/names" "$tmp/demoted" || true; } |
            sort -u >"$tmp/hit"
        if [[ ! -s "$tmp/hit" ]]; then
            cat "$tmp/out" >&2
            echo "pub-audit: the demoted tree fails to compile for a reason it cannot undo" >&2
            exit 2
        fi
        restore <"$tmp/hit"
    done
) >&2
types=$(git grep -hE "$TYPE" -- 'crates/*/src/**' | wc -l)
fns=$(git grep -hE "$ITEM" -- 'crates/*/src/**' | wc -l)
fns=$((fns - types))
while IFS=: read -r file _ name; do
    listed+=("${file#crates/} $name")
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
