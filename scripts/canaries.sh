#!/usr/bin/env bash
# Gates shown able to fail: each canary plants one bug in a scratch copy
# of the working tree, runs the gate that is supposed to catch it, and
# fails unless that gate turns red.  The tree itself is never touched.
#
#   bash scripts/canaries.sh            # all of them (~8 min cold)
#   bash scripts/canaries.sh bloom-bit  # just the named ones
#
# The copy and its target directory go under $TMPDIR (default /tmp) and
# are removed on exit.  check.sh runs it in its full tier only: it rebuilds
# the store, the engine or the harness once per canary.
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d "${TMPDIR:-/tmp}/bioopera-canaries.XXXXXX")
trap 'rm -rf "$work"' EXIT
git ls-files -co --exclude-standard -z | xargs -0 cp --parents -t "$work"
export CARGO_TARGET_DIR="$work/target"

# canary NAME FILE SED-EXPRESSION GATE...
# The expression must change FILE; GATE must pass before it is applied
# and fail after.
canary() {
  local name=$1 file=$2 expr=$3
  shift 3
  if [ ${#only[@]} -gt 0 ] && [[ ! " ${only[*]} " == *" $name "* ]]; then
    return
  fi
  echo "==> canary $name: $file  $expr"
  (cd "$work" && "$@" > "$work/green.log" 2>&1) \
    || { echo "    gate is red before the bug is planted:"; tail -n 20 "$work/green.log"; exit 1; }
  cp "$work/$file" "$work/saved"
  sed -i -E "$expr" "$work/$file"
  if cmp -s "$work/$file" "$work/saved"; then
    echo "    the expression matched nothing in $file — the canary is stale"
    exit 1
  fi
  if (cd "$work" && "$@" > "$work/red.log" 2>&1); then
    echo "    GATE STAYED GREEN: $*"
    exit 1
  fi
  grep -E "panicked at|assertion|differs|cache lookups|drifted|minimal failing input|disagree|violation" "$work/red.log" \
    | head -n 4 | sed 's/^/    red: /'
  cp "$work/saved" "$work/$file"
}

only=("$@")

# One wrong folding constant in the carry-less-multiply kernel.  (On a
# host without pclmulqdq the fold never runs and this canary cannot bite.)
if grep -q pclmulqdq /proc/cpuinfo 2> /dev/null; then
  canary crc-constant crates/store/src/crc.rs \
    's/0x01_5444_2bd4/0x01_5444_2bd5/' \
    cargo test -q --offline -p bioopera-harness --test crc_differential
fi

# The bloom gate taken out from in front of the sparse index and the
# block cache: every in-hull lookup reaches the cache again.
canary cache-before-bloom crates/store/src/levels.rs \
  's/if !run\.may_contain_hashed\(h\) \{/if false \&\& !run.may_contain_hashed(h) {/' \
  cargo test -q --offline -p bioopera-store --test tiered_proptests absent_in_hull

# The occupied branch of apply_ops forgetting to charge the new value.
canary occupied-approx-bytes crates/store/src/memtable.rs \
  '0,/mem\.approx_bytes \+= entry_cost\(key_len, value\.len\(\)\);/{//d}' \
  cargo test -q --offline -p bioopera-store --lib memtable::tests

# A wrong bloom bit, on the insert side only: false negatives.
canary bloom-bit crates/store/src/bloom.rs \
  '0,/1u64 << \(bit % 64\)/s//1u64 << (bit % 63)/' \
  cargo test -q --offline -p bioopera-store --test bloom_proptests

# The summary written with a round carrying the digest from before that
# round's events: a recovery seeded from it is one round short.
canary stale-summary-digest crates/core/src/shard/mod.rs \
  's/^        let at = SimTime::from_secs\(round\);$/&\n        let stale = self.history.digest;/;s/^            self\.history\.digest,$/            stale,/' \
  cargo test -q --offline -p bioopera-core --test shard_determinism reopening_the_stream

# Recovery reading the history's tail from one round past its summary.
canary tail-one-round-late crates/core/src/shard/mod.rs \
  's/round_start_key\(tail_round\)\)/round_start_key(tail_round + 1))/' \
  cargo test -q --offline -p bioopera-core --test shard_determinism reopening_the_stream

# The visiting replay holding back a frame until the next one parses: the
# last whole frame before a torn tail is never handed over.
canary replay-drops-last-frame crates/store/src/wal.rs \
  's/^        frame\(&mut ops\)\?;$/        if off + consumed == image.len() || parse_frame(\&image[off + consumed..]).is_some() { frame(\&mut ops)?; }/' \
  cargo test -q --offline -p bioopera-store --test wal_fuzz visiting_and_collecting

# A spill that writes its run and retires the WAL without committing the
# manifest that adopts the run (ROADMAP 1 (c)).
canary spill-skips-manifest crates/store/src/compaction.rs \
  '0,/^            self\.commit_manifest\(wal, &manifest\)\?;$/{//d}' \
  cargo test -q --offline -p bioopera-harness --test torture_tests tiered_store_full

echo "All canaries turned their gate red."
