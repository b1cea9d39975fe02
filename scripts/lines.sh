#!/usr/bin/env bash
# Line counts, the way ROADMAP.md counts them.  A report, not a gate.
#
#   bash scripts/lines.sh
#
# Per crate: its non-test lines — each file under src/ counted above its
# first top-level `#[cfg(test)]` (all of it when it has none) — and the
# whole-file lines of every .rs file in the crate (src/, tests/, benches).
# Then the whole-file lines of the .rs files outside crates/core/src:
# crates/*, src, tests and examples; benchmark/ and vendor/ are not
# counted.
set -euo pipefail
cd "$(dirname "$0")/.."

# non_test FILE...: lines above each file's first top-level #[cfg(test)].
non_test() {
  awk 'FNR == 1 { skip = 0 } /^#\[cfg\(test\)\]/ { skip = 1 } !skip { n++ } END { print n + 0 }' "$@"
}

# whole DIR...: every line of every .rs file under DIR.
whole() {
  find "$@" -name '*.rs' -print0 | xargs -0 cat | wc -l
}

printf '%-12s %10s %10s\n' crate non-test whole
for crate in crates/*/; do
  crate=${crate%/}
  mapfile -d '' files < <(find "$crate/src" -name '*.rs' -print0 | sort -z)
  printf '%-12s %10s %10s\n' "${crate#crates/}" "$(non_test "${files[@]}")" "$(whole "$crate")"
done
outside=$(find crates src tests examples -name '*.rs' -not -path 'crates/core/src/*' -print0 \
  | xargs -0 cat | wc -l)
printf '%-12s %10s %10s\n' "root" "$(non_test $(find src -name '*.rs' | sort))" "$(whole src tests examples)"
echo
echo "whole-file .rs lines outside crates/core/src: $outside"
