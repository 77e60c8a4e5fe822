#!/usr/bin/env bash
# Non-test lines per crate: the one definition every PR reports before
# and after (ROADMAP, third standing rule).
#
#   scripts/loc.sh [ROOT]     ROOT defaults to this checkout; pass
#                             another tree to size the parent commit
#
# For every crates/<crate>/src/**/*.rs: the lines before its
# `#[cfg(test)]` + `mod tests` pair (the whole file when it has none).
# A file that another file declares as `#[cfg(test)] mod <name>;` is a
# test-only module and counts 0, as does everything under a directory
# of that name.
set -euo pipefail
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

total=0
printf '%-12s %9s\n' crate non-test
for dir in crates/*/; do
  crate="$(basename "$dir")"
  # `dir/name` stems of the test-only modules declared in this crate.
  test_only="$(find "$dir/src" -name '*.rs' -print0 | xargs -0 awk '
    /^[[:space:]]*#\[cfg\(test\)\]/ { armed = 1; next }
    armed && match($0, /^[[:space:]]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+;/) {
      name = $0; sub(/;.*/, "", name); sub(/.*mod /, "", name)
      parent = FILENAME; sub(/\.rs$/, "", parent); sub(/\/(mod|lib|main)$/, "", parent)
      print parent "/" name
    }
    { armed = 0 }')"
  lines=0
  while IFS= read -r -d '' file; do
    stem="${file%.rs}"
    skip=0
    for t in $test_only; do
      case "$stem" in "$t" | "$t"/*) skip=1 ;; esac
    done
    ((skip)) && continue
    n="$(awk '
      /^[[:space:]]*#\[cfg\(test\)\]/ { pending = NR; next }
      pending && /^[[:space:]]*mod tests/ { print pending - 1; found = 1; exit }
      { pending = 0 }
      END { if (!found) print NR }' "$file")"
    lines=$((lines + n))
  done < <(find "$dir/src" -name '*.rs' -print0)
  printf '%-12s %9d\n' "$crate" "$lines"
  total=$((total + lines))
done
printf '%-12s %9d\n' total "$total"
