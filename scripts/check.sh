#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints (warnings are errors), tests.
# Run from anywhere; operates on the workspace root.
#
#   bash scripts/check.sh --gates  # the grep gates alone: seconds (the
#                                  # canaries plant bugs against these)
#   bash scripts/check.sh --fast   # fmt, the grep gates, clippy, rustdoc, the workspace
#                                  # tests (tiering included: the store policy
#                                  # is a test axis, not an environment), the
#                                  # two release-mode allocation gates, the
#                                  # paper's artifacts byte for byte:
#                                  # minutes, run it before every commit
#   bash scripts/check.sh          # all of that, then both torture runs, the
#                                  # canaries, the benchmark smoke and check,
#                                  # the bench smokes
#
# Every step prints its wall time when it ends, and the run ends with the
# list (EXPERIMENTS.md records both tiers' times on the reference host).
set -euo pipefail
cd "$(dirname "$0")/.."

tier=full
case "${1:-}" in
  --gates) tier=gates ;;
  --fast) tier=fast ;;
  "") ;;
  *) echo "usage: check.sh [--gates|--fast]"; exit 2 ;;
esac

# step NAME: close the step before (printing what it took) and open NAME.
step_name=""
step_start=$SECONDS
timings=()
step() {
  if [ -n "$step_name" ]; then
    local took=$((SECONDS - step_start))
    echo "    (${took}s)"
    timings+=("$(printf '%5ds  %s' "$took" "$step_name")")
  fi
  step_name=$1
  step_start=$SECONDS
  [ -z "$1" ] || echo "==> $1"
}
finish() {
  step ""
  echo "Wall time per step (${SECONDS}s in all):"
  printf '  %s\n' "${timings[@]}"
  echo "$1"
  exit 0
}

if [ "$tier" != gates ]; then
  step "cargo fmt --check"
  cargo fmt --check
fi

step "no environment reads in library code"
# Library crates take their configuration as arguments; only binaries
# (src/bin/, the edge) read the environment.  One place is allowed:
# darwin's SIMD override, which picks a kernel and changes no result.
stray=$(grep -rn 'env::var' crates/{store,core,cluster,ocr,darwin,workloads}/src --include='*.rs' \
  | grep -v '/src/bin/' \
  | grep -v '^crates/darwin/src/simd.rs:' || true)
if [ -n "$stray" ]; then
  echo "environment read in library code:"
  echo "$stray"
  exit 1
fi

step "tiering is an argument: no store-policy variables, no process-wide environment writes"
# A store is tiered by the policy its opener passes (RuntimeConfig::tiered
# for a Runtime), and the test suites draw the policy as an axis.  The
# four variables that once tiered every store behind the caller's back
# must not come back — not read, not set by a step below — and no Rust
# source may set a variable: in a multi-threaded test binary that changes
# the program under every other test.
stray=$(grep -rnE 'BIOOPERA_(MEMTABLE_BUDGET|RUN_MERGE|LEVEL_BASE|BLOCK_CACHE_BUDGET)|env::set_(var)\b' \
  crates src scripts tests examples || true)
if [ -n "$stray" ]; then
  echo "a store-policy environment variable or an environment write:"
  echo "$stray"
  exit 1
fi

step "one instance layer: task kinds, instance keys, InstanceView literals and the navigator's reactions stay out of the drivers"
# crates/core/src/instance.rs is the only place that classifies a task
# record, formats an instance-record key, builds a navigator view or
# reacts to a completion, a failure, a child's end or a resume
# (Instance::react / Instance::activate); a step loop that does any of
# these itself is a second copy starting to drift (the lost-spawn wedge,
# the compensation inputs and the unnoted policy suspension were three).
# navigator.rs and planner.rs read the template by definition; state.rs
# defines the key helpers.
stray=$({
  grep -rnE 'TaskKind::|parallel_body\(' crates/core/src --include='*.rs' \
    | grep -vE '^crates/core/src/(navigator|instance|planner)\.rs:'
  grep -rnE 'keys::header\(|keys::task\(|keys::push_record\(|shard_key\(|push_shard_prefix\(' crates/core/src --include='*.rs' \
    | grep -vE '^crates/core/src/(instance|state)\.rs:'
  grep -rnE 'InstanceView \{' crates/core/src --include='*.rs' \
    | grep -vE '^crates/core/src/(navigator|instance)\.rs:'
  grep -rnE '\b(on_task_ended|on_task_failed|on_resume|expand_parallel)\(' crates/core/src --include='*.rs' \
    | grep -vE '^crates/core/src/(navigator|instance)\.rs:'
} || true)
if [ -n "$stray" ]; then
  echo "instance-layer knowledge outside crates/core/src/instance.rs:"
  echo "$stray"
  exit 1
fi

step "residency rule: a map that is resident per task is exact-size; a map that is passed is a BTreeMap"
# A BTreeMap allocates an 11-entry leaf for its first entry (632 B for
# `BTreeMap<String, Value>`), and a server holds a record per task for
# weeks: TaskRecord's own maps are `FieldMap`s.  Programs, whiteboards and
# `Value::Map` are built up and passed along, and stay BTreeMaps.
stray=$(sed -n '/^pub struct TaskRecord {/,/^}/p' crates/core/src/state.rs | grep -n 'BTreeMap<' || true)
if [ -n "$stray" ]; then
  echo "a BTreeMap inside TaskRecord (crates/core/src/state.rs) — a map that is resident per task is exact-size (bioopera_ocr::value::FieldMap); a map that is passed is a BTreeMap:"
  echo "$stray"
  exit 1
fi

step "record codec: the Content tree stays off the engine's paths, and no serde attribute pretends"
# serde_json's entry points stream (derived writers and readers, no tree
# in between); `Content`, `to_content` and `from_content` remain as the
# encoding's definition, for hand-written impls and as the tests'
# reference.  In library code they are named in FieldMap's hand-written
# impls, in the upgrade's reader of pre-taxonomy history records, and in
# ShardEvent's hand-written writer, and nowhere else in awareness.rs's
# library code.  Anything else is the tree creeping back
# onto a path that runs per record.  The vendored derive accepts
# `#[serde(...)]` and ignores it, so one in library code promises an
# encoding the bytes do not have.
stray=$({
  grep -rnE '\b(to_content|from_content|Content)\b' crates/*/src --include='*.rs' \
    | grep -vE '^crates/(ocr/src/value|core/src/upgrade|core/src/awareness)\.rs:'
  sed '/^#\[cfg(test)\]/,$d; /^impl Serialize for ShardEvent {$/,/^}$/d' crates/core/src/awareness.rs \
    | grep -nE '\b(to_content|from_content|Content)\b' | sed 's|^|crates/core/src/awareness.rs:|'
  grep -rn '#\[serde(' crates/*/src --include='*.rs'
} || true)
if [ -n "$stray" ]; then
  echo "the Content tree named outside FieldMap (crates/ocr/src/value.rs), the upgrade's legacy reader (crates/core/src/upgrade.rs) and ShardEvent's writer, or a #[serde(...)] attribute the derive ignores:"
  echo "$stray"
  exit 1
fi

step "one layout: every older History image is named in the upgrade alone"
# The journal (crates/core/src/history.rs) owns each driver's store, so
# the compiler keeps every write — the sev/ stream and its summary among
# them — in it.  What a type cannot say is kept here: every older layout
# — the ev/ records, their rollup, their string records with a `detail`,
# a summary without its digest — is read by crates/core/src/upgrade.rs
# alone, which rewrites it at open: nothing else in crates/core/src names
# them, and StreamSummary's digest is no Option.  No write into a batch in
# awareness.rs's non-test code but the summary's may appear, and the ev/
# writer (`.record(` + `pending_batch` + `confirm_flushed` +
# `discard_pending`, through `TypedSpace`) must not come back.
stray=$({
  grep -rnE '"ev/|"rollup"|ROLLUP_KEY|"detail"' crates/core/src --include='*.rs' \
    | grep -v '^crates/core/src/upgrade.rs:'
  sed -n '/^pub struct StreamSummary {/,/^}/p' crates/core/src/awareness.rs | grep -n 'Option' \
    | sed 's|^|crates/core/src/awareness.rs: StreamSummary: |'
  sed '/^#\[cfg(test)\]/,$d' crates/core/src/awareness.rs \
    | grep -nE '\.(put|put_record|delete|apply|apply_many)\(' | grep -v 'SUMMARY_KEY' \
    | sed 's|^|crates/core/src/awareness.rs:|'
  grep -rnE 'pending_batch|confirm_flushed|discard_pending|\.record\(' crates/core/src --include='*.rs'
  grep -rnE 'TypedSpace' crates/*/src --include='*.rs'
} || true)
if [ -n "$stray" ]; then
  echo "an older History layout named outside the upgrade, or a second history writer in awareness.rs:"
  echo "$stray"
  exit 1
fi

step "recovery reads every byte once: the replay visits, a shard's journal is read in one visit, a scan streams through the merge"
# `wal::replay` collects a log into a list of its batches; it is the tests'
# reference and nothing under crates/*/src may call it (or reach for a
# replay's `.batches`): `Store::open_with` applies each frame as
# `wal::replay_shared` decodes it and holds no list of the log's batches.
# `Shard::recover` builds instances while `Store::visit_shard` walks the
# prefix, and `Runtime::rebuild_from_store` while `visit_prefix("inst/")`
# does: no `scan_shard`, no collected scan of a journal, and the reader
# keeps no list of `(key, bytes)` records.  A scan over the tier streams through the
# compaction's merge: no merge map of the range in engine.rs, and no
# per-run collecting scan (`scan_while`) anywhere in the store.
stray=$({
  grep -rnE '\breplay\(|\.batches\b|scan_shard' crates/*/src --include='*.rs' \
    | grep -v '^crates/store/src/wal.rs:'
  sed -n '/pub fn open_with/,/^    }/p' crates/store/src/engine.rs | grep -E 'Vec<Vec<WalOp>>' \
    | sed 's|^|crates/store/src/engine.rs: open_with: |'
  sed -n '/pub fn recover</,/^    }/p' crates/core/src/shard/stepper.rs | grep -E 'scan_prefix|Vec<\(' \
    | sed 's|^|crates/core/src/shard/stepper.rs: Shard::recover: |'
  sed -n '/fn rebuild_from_store/,/^    }/p' crates/core/src/runtime.rs | grep -E 'scan_prefix\(Space::Instance' \
    | sed 's|^|crates/core/src/runtime.rs: rebuild_from_store: |'
  sed '/^#\[cfg(test)\]/,$d' crates/core/src/instance.rs | grep -nE 'Vec<\(String, (B\b|Bytes|Vec<u8>)' \
    | sed 's|^|crates/core/src/instance.rs:|'
  sed '/^#\[cfg(test)\]/,$d' crates/store/src/engine.rs | grep -nE 'BTreeMap<String, Option<Bytes>>' \
    | sed 's|^|crates/store/src/engine.rs:|'
  grep -rn 'scan_while' crates/store/src --include='*.rs'
} || true)
if [ -n "$stray" ]; then
  echo "recovery materialising what it should visit:"
  echo "$stray"
  exit 1
fi

step "the tier at copy cost: the writer never looks a key up in the runs, a merge walks raw blocks"
# `apply_ops` (memtable.rs) applies a batch from the memtable and the runs'
# bloom filters alone — `Store::len` counts instead of the writer reading
# before it writes.  A merge (merge.rs) hands out entries borrowed from
# each input's raw block and picks the newest by a linear minimum: no
# owned `WalOp` per entry, no heap.
stray=$({
  grep -n 'levels_lookup' crates/store/src/memtable.rs | sed 's|^|crates/store/src/memtable.rs:|'
  sed '/^#\[cfg(test)\]/,$d' crates/store/src/merge.rs | grep -nE '\b(WalOp|into_entry|BinaryHeap)\b' \
    | sed 's|^|crates/store/src/merge.rs:|'
} || true)
if [ -n "$stray" ]; then
  echo "a run lookup on the write path, or an owned-op merge:"
  echo "$stray"
  exit 1
fi

step "one roll body: every WAL roll is a spill, and nothing writes a snapshot"
# `roll_locked` (compaction.rs) spills, then runs one round of leveled
# maintenance, whatever the memtable budget.  The snapshot is a read-only
# legacy format: `Store::open_with` still replays one, and the first spill
# deletes it.  The writer that rolled the WAL into one must not come back,
# under its old names or as a `write_atomic` of a snapshot file.
stray=$(grep -rnE 'snapshot_locked|SNAPSHOT_CHUNK|write_atomic\([^)]*snapshot_name\(' \
  crates/store/src --include='*.rs' || true)
if [ -n "$stray" ]; then
  echo "a snapshot writer in the store:"
  echo "$stray"
  exit 1
fi

step "one writer: a single-owner store"
# A store has one owner: writes take &mut self, so no lock orders its
# batches and none can be observed half-applied (the borrow checker rules
# it out).  No Mutex/RwLock in the engine, compaction or retention code
# (the block cache and the disks keep their own), and no second handle
# (`impl Clone for Store`).  In the engine that owner is each driver's
# journal, which lends the store out only as `&Store`: a shard stepper,
# or any driver code but the journal's calls, cannot write it.
stray=$({
  for f in crates/store/src/engine.rs crates/store/src/compaction.rs crates/store/src/retention.rs; do
    sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE '\b(Mutex|RwLock)\b' | sed "s|^|$f:|"
  done
  grep -rnE 'impl(<[^>]*>)? *Clone for Store\b' crates/store/src --include='*.rs'
  grep -rn -B3 'pub struct Store<' crates/store/src --include='*.rs' | grep 'derive(.*Clone'
} || true)
if [ -n "$stray" ]; then
  echo "a lock or a second handle in the store:"
  echo "$stray"
  exit 1
fi

step "no lock wrapper that swallows a panic"
# The vendored parking_lot, whose guards survived a panic under them, is
# gone: the few locks left (the block cache, the disks) are std::sync's
# and must not come back behind it as a dependency or an import.
stray=$(grep -rn 'parking_lot' Cargo.toml crates vendor --include='Cargo.toml' --include='*.rs' || true)
if [ -n "$stray" ]; then
  echo "parking_lot named in a manifest or a source:"
  echo "$stray"
  exit 1
fi

step "unsafe stays where it is argued: darwin's SIMD lane and the store's checksum kernel"
# Library sources (crates/*/src outside src/bin/) may say `unsafe` in
# three files only; the counting allocators of tests and bench binaries
# are not library code.  In crc.rs every `unsafe` must sit directly under
# a `// SAFETY:` comment that names the run-time feature check guarding
# it — the fold is compiled for an instruction the build target does not
# promise.
stray=$(grep -rnE '\bunsafe[[:space:]]*(\{|fn|impl|trait|extern)' crates/*/src --include='*.rs' \
  | grep -v '/src/bin/' \
  | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' \
  | grep -vE '^crates/(darwin/src/(simd|align)|store/src/crc)\.rs:' || true)
if [ -n "$stray" ]; then
  echo "unsafe code outside crates/darwin/src/{simd,align}.rs and crates/store/src/crc.rs:"
  echo "$stray"
  exit 1
fi
unargued=$(awk '
  /^[[:space:]]*\/\// { block = block $0; next }
  /(^|[^[:alnum:]_])unsafe[[:space:]]*(\{|fn|impl)/ {
    if (block !~ /SAFETY:/ || block !~ /is_x86_feature_detected/) print FILENAME ":" FNR ":" $0
  }
  { block = "" }
' crates/store/src/crc.rs)
if [ -n "$unargued" ]; then
  echo "unsafe in crates/store/src/crc.rs without a // SAFETY: comment naming its feature check:"
  echo "$unargued"
  exit 1
fi

if [ "$tier" = gates ]; then
  finish "Grep gates passed."
fi

step "cargo clippy --workspace (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

step "rustdoc (deny warnings): no link to a private item, none unresolved"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace --offline

step "cargo test -q --workspace"
cargo test -q --workspace

step "residency gate in release: live heap per resident instance, record and task-map entry sizes"
# 2 000 finished two-task chains may hold 2 KiB of heap each behind
# ShardEngine::slots() (5.1 KiB with a BTreeMap leaf per field map and
# unboxed records; ~1.5 KiB now), counted by a live-bytes allocator.
cargo test --release -q -p bioopera-core --test residency

step "codec allocation gate in release: a record encodes without allocating and decodes with what it holds"
# The chain's task record, a TaskEnd event and an instance header: none
# into a warm buffer, at most two for `to_vec`, and to decode no more than
# a clone of the value plus two (33 to write and 37 to read when every
# record went through a Content tree); and a record committed to a journal
# batch: two, its key and its value.
cargo test --release -q -p bioopera-core --test codec_allocs

step "the paper's seconds-scale artifacts regenerate byte for byte (results/, stdout included)"
# Figures 4-6, Table 1, the four ablations and the monitoring-error sweep,
# regenerated into a scratch BIOOPERA_RESULTS and compared with what is
# committed (scripts/artifacts.sh; a few seconds once built).
bash scripts/artifacts.sh

if [ "$tier" = fast ]; then
  finish "Fast tier passed (the torture runs, canaries and benchmark runs are the full tier's)."
fi

step "crash-point torture harness (seed override: HARNESS_SEED=N)"
# One enumerator (crates/harness/src/enumerate.rs) over three workloads:
# every store crash point (34 / 55 / 59 with no budget / tiered /
# leveled, each crashed every way: lost, applied unacknowledged, an
# append torn at 0, 1, each frame boundary ±1 and seeded offsets, a
# write_atomic's temp file at 0, 1 and seeded offsets; each point crashed
# again at its recovery's first three mutations; 48 bit flips each) +
# every runtime crash point of the real 3-TEU all-vs-all (58 points, 437
# crashes) + twelve sampled shard rounds, every mutation of each crashed
# every way (507 crashes, 36 double; half suspend a root first), all
# held to the history invariant
# and reopened after they converge; then a bounded sample of the
# runtime and shard passes again over stores under the tiny leveled
# policy, so crash points fall inside spills and merges (~10 s in all).
cargo run --release -q -p bioopera-harness --bin torture -- --recovery-samples 3 --shard-samples 12

step "canaries: every audited gate turns red on its planted bug"
# One bug at a time in a scratch copy, the named gate must fail
# (scripts/canaries.sh; the copy goes under $TMPDIR).
bash scripts/canaries.sh

step "benchmark smoke: all four bench_e2e workloads at 1/20 size against their pinned oracles"
# Builds benchmark/bench_e2e from source and runs month_shared,
# shard_chains, shard_chains_tiered and allvsall_real small; a workload
# whose digest, counts or `server.recover` total moved fails the run (~1 min
# cold, seconds warm).
bash benchmark/run.sh --smoke

step "benchmark check: full-size workloads on seed 7, crashed run == crash-free run"
# Every workload at full size on a seed the oracles were not pinned on:
# the run with the server crashes must end in the same results as the
# crash-free run, with no failed operation.
bash benchmark/run.sh --check --seed 7

step "chaos: seeded flaky-node scenario (bounded; seed override: CHAOS_SEED=N)"
# One node kills every job; the dependability policies must finish the run
# within the retry ceiling and quarantine the killer.  Prints the seed and
# exits non-zero past the ceiling; ~1 s.
cargo run -q -p bioopera-workloads --bin chaos

step "awareness: index-vs-scan equivalence proptests + example smoke test"
cargo test -q -p bioopera-core --test awareness_proptests
cargo run -q --example awareness_queries > /dev/null

step "store bench smoke (small config; tiered vs untiered floors)"
# Bounded run (~2 s release): emits results/BENCH_store.json and exits
# non-zero if the memtable ceiling is breached, a warm tiered get falls
# below 0.3x of an untiered one, a tiered reopen reads more than a
# quarter of the disk, or (where the CPU has pclmulqdq) the dispatched
# CRC-32 is slower than slicing-by-8 at any measured size.  (Replay and open regressions are bench_e2e's
# recover_s / store.open_s now that the engine replica is retired.)
STORE_BENCH_SMOKE=1 cargo run --release -q -p bioopera-bench --bin store_bench > /dev/null
test -s results/BENCH_store.json || { echo "BENCH_store.json missing"; exit 1; }

step "kernel bench smoke (one pass; fails loudly on a SIMD regression)"
# Bounded run (~2 s release): asserts the SIMD lane is bit-identical to
# the naive oracle, the banded refinement accounts every skipped cell,
# warm passes stay allocation-free, and (on SIMD hosts) the simd_batched
# variant keeps a cells/sec floor over the scalar profile kernel.
KERNEL_BENCH_SMOKE=1 cargo run --release -q -p bioopera-bench --bin kernel_bench > /dev/null
test -s results/BENCH_kernel.json || { echo "BENCH_kernel.json missing"; exit 1; }

step "shard bench smoke (small config; digest-checked across shard counts)"
# Bounded run (~1 s release): emits results/BENCH_shard.json and asserts
# the recorded history is bit-identical at 1/2/4/8 shards.  The 4-shard
# speedup floor (1.5x) only applies on hosts with >= 4 available cores;
# smaller hosts record their honest core count and skip the gate.
SHARD_BENCH_SMOKE=1 cargo run --release -q -p bioopera-bench --bin shard_bench > /dev/null
test -s results/BENCH_shard.json || { echo "BENCH_shard.json missing"; exit 1; }

step "darwin suite with SIMD force-disabled (portable fallback stays honest)"
BIOOPERA_SIMD=scalar cargo test -q -p bioopera-darwin

step "darwin suite at SSE2 (the 16-lane filter and its copied tables)"
# The SSE2 filter copies its column tables instead of shuffling them;
# this runs that path through every caller that takes the default level.
BIOOPERA_SIMD=sse2 cargo test -q -p bioopera-darwin

finish "All checks passed."
