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

# red_kind GATE...: what kind of red red.log shows.
red_kind() {
  local log=$work/red.log
  if grep -q '^error: could not compile' "$log"; then
    echo "build error: $(grep -m 1 -E '^error(\[E[0-9]+\])?: ' "$log" || true)"
  elif grep -q '^error: could not document' "$log"; then
    echo "doc error: $(grep -m 1 -E '^error: ' "$log" || true)"
  elif [[ " $* " == *" scripts/check.sh --gates "* ]]; then
    echo "grep gate: $(grep '^==> ' "$log" | tail -n 1 | cut -c5- || true)"
  else
    echo "test failure: $(grep -m 1 -E '^---- [^ ]+ ' "$log" | cut -d' ' -f2 || true)"
  fi
}

# canary NAME FILE SED-EXPRESSION GATE...
# The expression must change FILE; GATE must pass before it is applied
# and fail after.  The red is named by its kind: a build error (a rule the
# types hold), a doc error (a link rustdoc refuses), a test failure (and
# the first test that failed), or a grep gate (and its step).
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
  echo "    red ($(red_kind "$@"))"
  # grep stops itself after four lines: a `head` would cut it off mid-write,
  # and under pipefail that ends the script.
  { grep -m 4 -E "panicked at|assertion|differs|cache lookups|drifted|minimal failing input|disagree|violation|environment|instead of returning|materialising|second handle|diverged on disk" "$work/red.log" || true; } \
    | sed 's/^/    red: /'
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
  cargo test -q --offline -p bioopera-store --test store_proptests absent_in_hull

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
canary stale-summary-digest crates/core/src/history.rs \
  's/^            for \(i, e\) in events \{$/            let stale = self.digest;\n&/;s/^                    \.summary_into\(&mut frame, round \+ 1, self\.digest, &mut self\.scratch\);$/                    .summary_into(\&mut frame, round + 1, stale, \&mut self.scratch);/' \
  cargo test -q --offline -p bioopera-core --test shard_determinism reopening_the_stream

# Recovery reading the history's tail from one round past its summary.
canary tail-one-round-late crates/core/src/history.rs \
  's/let start = round_start_key\(tail_round\);/let start = round_start_key(tail_round + 1);/' \
  cargo test -q --offline -p bioopera-core --test shard_determinism reopening_the_stream

# A summary that says it covers one round more than its frame holds: the
# serial runtime, reopened from it, skips the round after it.
canary runtime-summary-round-late crates/core/src/history.rs \
  's/^                    \.summary_into\(&mut frame, round \+ 1, self\.digest, &mut self\.scratch\);$/                    .summary_into(\&mut frame, round + 2, self.digest, \&mut self.scratch);/' \
  cargo test -q --offline -p bioopera-core --test runtime_tests the_runtime_history

# The serial runtime's record losing its virtual time: its events come
# back stamped with the round that committed them.
canary runtime-record-without-time crates/core/src/runtime.rs \
  's/^                at: Some\(ev\.at\),$/                at: None,/' \
  cargo test -q --offline -p bioopera-core --test runtime_tests the_runtime_history

# An ev/ write back in the engine, and the grep gate that keeps the old
# stream read-only.
canary runtime-writes-ev crates/core/src/runtime.rs \
  's/^        batches\.push\(config\);$/        config.put(Space::History, "ev\/0", Vec::new());\n&/' \
  bash scripts/check.sh --gates

# The serial runtime's commit committing each dirty instance's batch on
# its own: the same frames, but a step that wrote an instance is two
# appends or more again.
canary runtime-split-commit crates/core/src/runtime.rs \
  's/^                batches\.push\(batch\);$/                self.journal.commit(vec![batch], self.round, [])?;/' \
  cargo test -q --offline -p bioopera-core --test runtime_tests a_runtime_step_is_one_append

# A reaction marking its header but not the task records it touched —
# the one mark both drivers share: the serial runtime's commit drops them,
# and a reboot after the run finds records the run had moved on from.
canary runtime-mark-header-only crates/core/src/instance.rs \
  's/^    dirty\.nav\(instance, &outcome\);$/    dirty.header(instance);/' \
  cargo test -q --offline -p bioopera-core --test runtime_tests a_torn_runtime_append_converges

# One driver running a compensation on an empty map again: the two
# drivers' compensation programs see different inputs.
canary compensation-inputs-diverge crates/core/src/runtime.rs \
  's/^                        let _ = prog\(&inputs\);$/                        let _ = prog(\&BTreeMap::new());/' \
  cargo test -q --offline -p bioopera-core --test cross_driver

# The sharded engine's driver surface reading an instance's task records
# from shard 0 instead of the shard that owns it: a scenario written once
# against `Driver` finds no records of an instance shard 0 does not own.
canary driver-wrong-shard crates/core/src/shard/mod.rs \
  's/^        self\.slot\(id\)\.map\(\|s\| &s\.tasks\)$/        self.shards[0].slots.get(\&id).map(|s| \&s.tasks)/' \
  cargo test -q --offline -p bioopera-core --test cross_driver shards_4x2

# A driver calling the navigator's reaction itself again, beside the
# instance layer's, and the grep gate that keeps it in instance.rs.
canary reaction-outside-instance crates/core/src/runtime.rs \
  's/^        let reaction = inst\.react\(Input::Resume, now, &mut self\.dirty\)\?;$/        navigator::on_resume(\&mut inst.view(), now);\n&/' \
  bash scripts/check.sh --gates

# A dispatch stamp written straight to the store, a commit point of its
# own again: the journal lends its store out only to read, so it does not
# build.
canary runtime-direct-write crates/core/src/runtime.rs \
  '0,/^        self\.dirty\.task\(id, path\);$/s//        self.journal.store().apply(Batch::new())?;\n&/' \
  cargo build -q --offline -p bioopera-core

# The pump holding a waiting entry without asking whether its instance
# was written since the entry was deferred: a suspended instance's
# entries are never looked at again while the node picture stands still.
canary pump-ignores-touch crates/core/src/runtime.rs \
  's/^                if !written\.touches\(entry\.id, &entry\.path\) && view\.projects_to\(under\) \{$/                if view.projects_to(under) {/' \
  cargo test -q --offline -p bioopera-core --test pump_memo a_written_instance_wakes

# The pump waking every waiting entry of an instance that was written at
# all: a dispatch stamp of one task re-activates all its siblings.
canary pump-wakes-by-instance crates/core/src/runtime.rs \
  's/^                if !written\.touches\(entry\.id, &entry\.path\) && view\.projects_to\(under\) \{$/                if !written.iter().any(|(id, _)| id == entry.id) \&\& view.projects_to(under) {/' \
  cargo test -q --offline -p bioopera-core --test pump_memo waiting_entries_are_activated_once

# A field map built as it is read: a recovery builds the inputs and
# outputs of every record it reads again, the ended ones included.
canary field-map-built-at-read crates/ocr/src/value.rs \
  's/^        Ok\(match r\.take_value\(Printed::field_map\) \{$/        Ok(match None::<\&str> {/' \
  cargo test -q --offline -p bioopera-core --test stored_field_maps

# The field-map recognizer taking any three-letter variant tag for `Int`:
# `{"Str":[5]}` is kept as text, and the stored form and the tree part.
canary field-map-validator-lax crates/ocr/src/value.rs \
  's/if rest\.starts_with\(b"\{\\"Int\\":\["\) \{/if rest.get(5..8) == Some(\&b"\\":["[..]) {/' \
  cargo test -q --offline -p bioopera-harness --test codec_differential

# The pump holding a waiting entry without asking whether the node picture
# moved: a slot that opens is never offered to the entries that wait.
canary pump-ignores-capacity crates/core/src/runtime.rs \
  's/^                if !written\.touches\(entry\.id, &entry\.path\) && view\.projects_to\(under\) \{$/                if !written.touches(entry.id, \&entry.path) {/' \
  cargo test -q --offline -p bioopera-core --test pump_memo a_node_crash_and_its_recovery

# A public doc linking to a private item again: the rustdoc step of
# check.sh, which denies warnings.
canary doc-links-private-item crates/core/src/runtime.rs \
  's/^    \/\/\/ What the pump did with the activity queue so far\.$/    \/\/\/ What [`Runtime::pump`] did with the activity queue so far./' \
  env RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --offline -p bioopera-core

# The journal storing a template unvalidated again, as the sharded engine
# once did: a template the runtime refuses would be registered there.
canary journal-skips-validate crates/core/src/history.rs \
  '/^        bioopera_ocr::validate\(t\)\?;$/d' \
  cargo test -q --offline -p bioopera-core --lib an_invalid_template_is_refused_and_not_stored

# The serial runtime's rebuild leaving its rewrites out of the report.
canary runtime-report-misses-rewrites crates/core/src/runtime.rs \
  '/^                self\.recovery\.rewritten \+= 1;$/d' \
  cargo test -q --offline -p bioopera-core --test runtime_tests a_runtime_recovery_reports

# The upgrade of an old serial runtime's store putting its ev/ history at
# round 0 without moving the stream that continued it out of the way: two
# round 0s, the later overwriting the first's keys.
canary upgrade-keeps-rounds crates/core/src/upgrade.rs \
  's/round: e\.round \+ 1,/round: e.round,/' \
  cargo test -q --offline -p bioopera-core --test awareness_proptests every_image_upgrades

# The upgrade leaving the ev/ records behind: the next open finds them and
# upgrades again, writing round 0 twice over.
canary upgrade-keeps-ev crates/core/src/upgrade.rs \
  '/for \(_, key, _\) in &old \{/,/\}/{/batch\.delete/d}' \
  cargo test -q --offline -p bioopera-core --test awareness_proptests every_image_upgrades

# The upgrade telling twins from a serial runtime's history the wrong way
# round: twins a later sharded engine summarized are rewritten as round 0,
# every event counted twice.
canary upgrade-twins-as-history crates/core/src/upgrade.rs \
  's/s\.rollup\.base == covered/s.rollup.base != covered/' \
  cargo test -q --offline -p bioopera-core --test awareness_proptests every_image_upgrades

# The reader reaching for the old layout again, and a serde attribute the
# vendored derive would ignore: the grep gates of check.sh.
canary ev-read-in-awareness crates/core/src/awareness.rs \
  's/^        Self::visit_stream\(store, EVENT_PREFIX, \|ev\| all\.push\(ev\)\)\?;$/        store.scan_prefix(Space::History, "ev\/")?;\n&/' \
  bash scripts/check.sh --gates
canary serde-default-planted crates/core/src/state.rs \
  's/^    pub retry: Option<Box<RetryState>>,$/    #[serde(default)]\n&/' \
  bash scripts/check.sh --gates

# A summary that counts one event more than it covers: every reopen from
# it — the figures' runs recover from two server crashes — reports one
# event too many (scripts/artifacts.sh: fig5_report.json moves).
canary summary-counts-one-more crates/core/src/awareness.rs \
  's/^            rollup: self\.index\.to_rollup\(self\.index\.len\(\) as u64\),$/            rollup: self.index.to_rollup(self.index.len() as u64 + 1),/' \
  bash scripts/artifacts.sh

# The visiting replay holding back a frame until the next one parses: the
# last whole frame before a torn tail is never handed over.
canary replay-drops-last-frame crates/store/src/wal.rs \
  's/^        frame\(&mut ops\)\?;$/        if off + consumed == image.len() || parse_frame(\&image[off + consumed..]).is_some() { frame(\&mut ops)?; }/' \
  cargo test -q --offline -p bioopera-store --test wal_fuzz visiting_and_collecting

# A spill that writes its run and retires the WAL without committing the
# manifest that adopts the run (ROADMAP 1 (c)).
canary spill-skips-manifest crates/store/src/compaction.rs \
  '0,/^            self\.disk\.write_atomic\(MANIFEST, manifest\.as_bytes\(\)\)\?;$/{//d}' \
  cargo test -q --offline -p bioopera-harness --test torture_tests tiered_store_full

# The crash enumerator forgetting the WAL frame boundaries: an append is
# torn only at 0, 1 and seeded offsets, never between two of its frames.
canary effects-skip-frame-boundaries crates/harness/src/enumerate.rs \
  '/keeps\.extend\(\[off as u64 - 1, off as u64, off as u64 \+ 1\]\);/d' \
  cargo test -q --offline -p bioopera-harness --lib enumerate

# The crash enumerator comparing the recovered run and skipping the
# reopen after it: a recovery that converges without writing passes.
canary enumerator-skips-reopen crates/harness/src/enumerate.rs \
  '/^    check\("a reopen"\)\?;$/d' \
  cargo test -q --offline -p bioopera-harness --lib enumerate

# A spill that writes its run and keeps the memtable anyway: the reads stay
# right, but a store with no budget holds its whole history again, and the
# runtime's memtable outgrows what its WAL roll bounds.
canary spill-keeps-memtable crates/store/src/compaction.rs \
  's/^            map\.clear\(\);$//; s/^        self\.mem\.approx_bytes = 0;$//' \
  cargo test -q --offline -p bioopera-core --test runtime_tests the_memtable_stays_within_the_wal_roll

# The first spill over a legacy image leaving its snapshot behind: a file
# the manifest no longer accounts for.
canary spill-keeps-legacy-snapshot crates/store/src/compaction.rs \
  '/^            self\.disk\.delete\(&snapshot_name\(epoch\)\)\?;$/d' \
  cargo test -q --offline -p bioopera-store --lib engine::tests::pre_overhaul_disk_image_upgrades_to_tiered_strictly_additively

# The barrier sorting its effects by sequence number first and breaking
# ties by owner shard: the order of a round's requests then depends on how
# many shards there are (ROADMAP 1 (c)).
canary barrier-tiebreak-by-shard crates/core/src/shard/router.rs \
  's/^    for out in per_shard\.drain\(\.\.\) \{$/    let shards = per_shard.len();\n&/;s/^    effects\.sort_by_key\(Effect::src\);$/    effects.sort_by_key(|e| (e.src().1, owner(e.src().0, shards)));/' \
  cargo test -q --offline -p bioopera-core --test shard_determinism sharded_replay_matches_serial_baseline

# The round's append carrying the shards' batches in reverse shard order
# whenever more than one thread stepped them, as a race between stepper
# threads once could: the history and the state stay right, the disk image
# is no longer the one-thread image.
canary reverse-commit-when-threaded crates/core/src/shard/mod.rs \
  's/^        for \(out, written\) in self\.step_shards\(\)\? \{$/        let mut steps = self.step_shards()?;\n        if self.cfg.threads > 1 { steps.reverse(); }\n        for (out, written) in steps {/; s/^        let events = self\.barrier\(round, outputs\)\?;$/        if self.cfg.threads > 1 { outputs.reverse(); }\n&/' \
  cargo test -q --offline -p bioopera-core --test shard_determinism sharded_replay_matches_serial_baseline

# The round's history frame stored by a commit of its own after the
# shards' journals: the same frames, so the untiered image is the same,
# but a round is two disk mutations again.
canary round-split-append crates/core/src/shard/mod.rs \
  '0,/^        self\.journal\.commit\(batches, round, events\)\?;$/s//        self.journal.commit(batches, round, Vec::new())?;\n        self.journal.commit(Vec::new(), round, events)?;/' \
  cargo test -q --offline -p bioopera-core --test shard_determinism a_round_is_one_append

# A second writer path back (one canary per arm): a lock in the store and
# a second handle (by hand or derived), which the grep gate keeps out; a
# stepper that may write, and a store write inside `step_shards`, which do
# not build — the journal lends its store out only to read.
canary store-lock-named crates/store/src/retention.rs \
  's/^use std::ops::Bound;$/&\nuse std::sync::RwLock;/' \
  bash scripts/check.sh --gates
canary store-clone-impl crates/store/src/engine.rs \
  '0,/^impl<D: Disk> Store<D> \{$/s//impl<D: Disk> Clone for Store<D> { fn clone(\&self) -> Self { unreachable!() } }\n&/' \
  bash scripts/check.sh --gates
canary store-clone-derived crates/store/src/engine.rs \
  's/^pub struct Store<D: Disk> \{$/#[derive(Clone)]\n&/' \
  bash scripts/check.sh --gates
canary stepper-takes-mut-store crates/core/src/shard/stepper.rs \
  's/^        store: &Store<D>,$/        store: \&mut Store<D>,/' \
  cargo build -q --offline -p bioopera-core
canary step-shards-commits crates/core/src/shard/mod.rs \
  's/^(    fn step_shards\(&mut self\).*\{)$/\1\n        self.journal.store().apply_many(Vec::new())?;/' \
  cargo build -q --offline -p bioopera-core

# A finished attempt that never hands its node slot back: the dispatch
# service runs out of slots and the run stalls (ROADMAP 1 (c)).
canary dropped-release crates/core/src/shard/stepper.rs \
  '/fn push_release/,/^    \}/s/^        let src = \(instance, self\.next_seq\(st, instance\)\);$/        if !faulted { return; }\n&/' \
  cargo test -q --offline -p bioopera-core --test store_mirror

# The retention window closed at its upper bound: the key a watermark
# stops below is retired with it (ROADMAP 1 (c)).
canary retention-off-by-one crates/store/src/levels.rs \
  's/key >= start\.as_str\(\) && key < below\.as_str\(\)/key >= start.as_str() \&\& key <= below.as_str()/' \
  cargo test -q --offline -p bioopera-store --test store_proptests store_matches_model

# A bug only the tiered read path has: the merged scan skips the last
# record of every block it walks.  The untiered store never reads a run;
# the engine's recovery over a tiered store does, and the tiered half of
# shard_determinism — in the workspace tests since the store policy became
# a test axis — must see it.
canary scan-skips-block-tail crates/store/src/merge.rs \
  's/Some\(scan\) if key < scan\.start => continue,/Some(scan) if key < scan.start || self.walk.ops_left() == 0 => continue,/' \
  cargo test -q --offline -p bioopera-core --test shard_determinism tiered::

# The memtable ranked as the oldest input of a scan instead of the newest:
# a run's stale value wins over the write that replaced it.
canary scan-memtable-loses-tie crates/store/src/merge.rs \
  's/cursors\.push\(Cursor::Mem\(/cursors.insert(0, Cursor::Mem(/' \
  cargo test -q --offline -p bioopera-store --lib engine::tests::the_merged_scan

# A scan's cursor that loads the next block whatever it holds: past the
# end of its range, and on into the spaces after its own.  A recovery's
# scans of the shard journals then walk the whole history behind them:
# four times the finished work reads ~3.8 times the history blocks.
canary scan-reads-past-range crates/store/src/merge.rs \
  's/let past = \|s: Scan\| .*;$/let past = |_: Scan| false;/' \
  cargo test -q --offline -p bioopera-core --test proportional_cost

# Only the first-key half of that check gone: the cursor stays in its
# space but loads the block after its range.  No recovery in
# proportional_cost reaches such a block (the `sev/` tail ends the space,
# or at the summary), so the read comparison of the scan's proptest is
# the gate that sees it.
canary scan-reads-block-past-range crates/store/src/merge.rs \
  's/let past = \|s: Scan\| space != s\.space \|\| .*;$/let past = |s: Scan| space != s.space;/' \
  cargo test -q --offline -p bioopera-store --lib engine::tests::the_merged_scan

# A scan's cursor seeked to the first block of its space instead of the
# block holding its start: recovering the history's tail reads every
# block of the stream below the summary again, four times the blocks for
# four times the finished work.
canary scan-seeks-to-space-start crates/store/src/merge.rs \
  's/m < \(space, start\)/m < (space, "")/; s/r\.seek\(space, start\)/r.seek(space, "")/' \
  cargo test -q --offline -p bioopera-core --test proportional_cost

# The merge map and the per-run collecting scan back in the store, and
# the grep gate that keeps them out (one canary per arm).
canary scan-merge-map-named crates/store/src/engine.rs \
  's/^        let mut merge = Merge::new\(&self\.disk, self\.levels\.merge_inputs\(\), Some\(scan\)\)\?;$/        let mut merged: BTreeMap<String, Option<Bytes>> = BTreeMap::new();\n&/' \
  bash scripts/check.sh --gates
canary scan-while-named crates/store/src/engine.rs \
  's/fn collect_while\(/fn scan_while(/' \
  bash scripts/check.sh --gates

# Negative zero printed as the integer `-0` again: it reads back as 0.0,
# and a float's sign is lost on the way through the codec.
canary negative-zero-as-int vendor/serde/src/json.rs \
  's/out\.write_str\("-0\.0"\)/out.write_str("-0")/' \
  cargo test -q --offline -p bioopera-ocr --test field_map_proptests floats_read_back_bit_for_bit

# Recovery writing back every record the in-doubt rule decided, as it did
# before it wrote only what the rule changed: a queued record goes back to
# the log as the journal already holds it.
canary redrive-rewrites-everything crates/core/src/shard/mod.rs \
  's/^                    if written \{$/                    if true {/' \
  cargo test -q --offline -p bioopera-core --test redrive_writes

# A `Runtime` recovery that reports each record it found in doubt twice,
# so it rewrites less than it reports: a crash inside a step shows it only
# because its rewrites are held to its in-doubt counts exactly, and those
# to the journal's in-doubt records counted from the stored bytes.
canary runtime-doubt-counted-twice crates/core/src/runtime.rs \
  's/resolved\.iter\(\)\.for_each\(/resolved.iter().chain(\&resolved).for_each(/' \
  cargo test -q --offline -p bioopera-core --test redrive_writes runtime::untiered::a_crash_inside_a_step

# The merge handing a tie to the older input: a key two inputs hold comes
# out with its stale value, and again with its new one.
canary merge-tie-older-wins crates/store/src/merge.rs \
  's/if newest\.is_none_or\(\|\(_, best\)\| key <= best\) \{/if newest.is_none_or(|(_, best)| key < best) {/' \
  cargo test -q --offline -p bioopera-store --lib merge::tests

# A delete of a key only a run holds leaving no tombstone: the run's value
# resurfaces.
canary vacant-delete-no-tombstone crates/store/src/memtable.rs \
  's/None if levels\.may_contain_any\(space, slot\.key\(\)\) => \{/None if false => {/' \
  cargo test -q --offline -p bioopera-store --test store_proptests store_matches_model

# The streaming run writer cutting a block that exactly fills the target:
# the image is no longer the reference encoder's.
canary run-writer-block-cut crates/store/src/runs.rs \
  's/filled \+ cost > BLOCK_TARGET_BYTES/filled + cost >= BLOCK_TARGET_BYTES/' \
  cargo test -q --offline -p bioopera-store --lib runs::tests

# The writer looking every key up in the runs again before it applies the
# batch (what keeping `len` O(1) once cost), and the grep gate against a
# run lookup named in the memtable.
canary writer-reads-again crates/store/src/engine.rs \
  's/^            apply_ops\(&mut self\.mem, &self\.levels, ops\);$/            for op in \&ops { let (crate::wal::WalOpRef::Put { space, key, .. } | crate::wal::WalOpRef::Delete { space, key }) = op.as_op_ref(); levels_lookup(\&self.levels, \&self.disk, \&self.metrics, \&self.cache, space, key)?; }\n&/' \
  cargo test -q --offline -p bioopera-store --lib memtable::tests::the_writer_never_reads_the_tier
canary writer-lookup-named crates/store/src/memtable.rs \
  's/^use crate::levels::Levels;$/use crate::levels::{levels_lookup, Levels};/' \
  bash scripts/check.sh --gates

# The two hand-written text readers trusting their input: the OCR lexer
# assuming every string literal is closed, and the manifest reader
# accepting a run at level 0.  Either must make a mangled text panic under
# the seeded fuzz, where it should have been refused (ROADMAP 1).
canary lexer-unterminated-string crates/ocr/src/parser.rs \
  's/None => return Err\(self\.err\("unterminated string"\)\),/None => unreachable!("unterminated string"),/' \
  cargo test -q --offline -p bioopera-harness --test text_fuzz ocr_parser
canary manifest-level-zero crates/store/src/manifest.rs \
  's/\.filter\(\|\(l, n\)\| \*l >= 1 && parse_run_name\(n\)\.is_some\(\)\)/.filter(|(_, n)| parse_run_name(n).is_some())/' \
  cargo test -q --offline -p bioopera-harness --test text_fuzz manifest_reader

# The striped lane's gap precondition taken out of the dispatch: with
# `ext > open` its F chain (fed `H0 - open`) and its lazy-F sweep are
# wrong, and the gap-parameter proptest must see it — every other darwin
# test runs at the default 22 / 1.5.
canary simd-gap-guard crates/darwin/src/align.rs \
  's/p\.gap_open >= p\.gap_extend && //' \
  cargo test -q --offline -p bioopera-darwin --test simd_bitident every_level_is_bit_identical_over_gap_parameters

# The shortened F chain fed with the extension penalty instead of the
# opening one: gaps open too cheaply in the striped lane.
canary simd-f-chain crates/darwin/src/simd.rs \
  's/O::sub\(vh0, vopen\)/O::sub(vh0, vext)/' \
  cargo test -q --offline -p bioopera-darwin --test simd_bitident

# A refilled inter-sequence lane keeping the E column of the subject
# before it: a gap that subject opened leaks into the next pair.
canary interseq-lane-reset crates/darwin/src/align.rs \
  '/e\[i \* lanes \+ l\] = f32::NEG_INFINITY;/d' \
  cargo test -q --offline -p bioopera-darwin --test simd_bitident batches_are_bit_identical_at_every_level

# The batch dispatch without its gap guard: the inter-sequence lane's
# shortened F chain then scores `open < ext` too.
canary interseq-gap-guard crates/darwin/src/align.rs \
  's/^    if scratch\.simd_ok\(p\) \{$/    if scratch.seg > 0 {/' \
  cargo test -q --offline -p bioopera-darwin --test simd_bitident every_level_is_bit_identical_over_gap_parameters

# The upper-bound filter's gap penalties scaled up instead of down: a
# long gap then costs the bound more than the real path pays, and a
# gapped match at its own score is filtered out.
canary filter-gap-rounds-up crates/darwin/src/align.rs \
  's/\(k \* (open|ext)\)\.floor\(\) as u8/(k * \1).ceil() as u8/g' \
  cargo test -q --offline -p bioopera-darwin --test simd_bitident

# The filter's saturating adds wrapping instead, at every width: a lane
# past 255 no longer holds the saturated ceiling.
canary filter-wrapping-add crates/darwin/src/simd.rs \
  's/(_mm(256|512)?)_adds_epu8/\1_add_epi8/g' \
  cargo test -q --offline -p bioopera-darwin --lib filter_lanes_saturate_like_the_reference

# The filter's bias no longer taken off after each add: every diagonal
# step gains the bias, the bound loosens, and the pinned candidates of a
# fixed database multiply.
canary filter-bias-dropped crates/darwin/src/simd.rs \
  's/let vbias = O::splat\(bias\);/let vbias = O::splat(0);/' \
  cargo test -q --offline -p bioopera-darwin --test simd_bitident

# A refilled filter lane keeping the E column of the subject before it:
# a high-scoring subject's gaps raise the next one's bound, and the
# batch's candidates are no longer the subjects' own.
canary filter-lane-reset crates/darwin/src/align.rs \
  '/e\[i \* lanes \+ l\] = 0;/d' \
  cargo test -q --offline -p bioopera-darwin --test simd_bitident filter_verdicts_do_not_leak_between_subjects

# The work-stealing hand-out returning results in completion order: the
# refine pass's output then depends on how many workers drew groups.
canary refine-order crates/workloads/src/allvsall.rs \
  '/^    done\.sort_unstable_by_key/d' \
  cargo test -q --offline -p bioopera-workloads --test refine_workers refine_pass_is_identical_across_worker_counts

# The store reading a policy variable again, and a test setting one: the
# grep gates of check.sh.  (The names are split here so that this file
# passes the gate it plants against.)
canary env-read-in-library crates/store/src/policy.rs \
  "s/^    pub\(crate\) fn level_cap\(&self, level: usize\) -> u64 \{$/&\n        let _ = std::env::var(\"BIOOPERA_LEVEL""_BASE\");/" \
  bash scripts/check.sh --gates
canary env-write-in-a-test crates/core/tests/runtime_tests.rs \
  "s/^fn runtime\(cluster: Cluster, policy: Option<TieredPolicy>\) -> Runtime<MemDisk> \{$/&\n    std::env::set_""var(\"RUST_BACKTRACE\", \"1\");/" \
  bash scripts/check.sh --gates

echo "All canaries turned their gate red."
