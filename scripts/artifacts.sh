#!/usr/bin/env bash
# The paper's artifacts that regenerate in seconds, held byte for byte to
# what is committed: each binary below writes its results file(s) into a
# scratch BIOOPERA_RESULTS directory, its stdout is kept beside them, and
# every one of them must `cmp` equal to results/ (a stdout to
# results/NAME.stdout).  A file a binary stops writing counts as a
# difference too.  check.sh runs this in its fast tier.
#
#   bash scripts/artifacts.sh
#
# When a change is meant to move an artifact, regenerate it into results/
# and say why in EXPERIMENTS.md; a move nobody meant is a regression.
set -euo pipefail
cd "$(dirname "$0")/.."

bins=(
  fig4_granularity
  fig5_shared_lifecycle
  fig6_nonshared_lifecycle
  table1_allvsall
  ablation_baseline
  ablation_checkpoint
  ablation_migration
  ablation_scheduling
  monitoring_error
)
# What the binaries write, besides their stdout.
files=(
  fig4_granularity.txt
  fig5_shared_lifecycle.txt fig5_series.csv fig5_report.json
  fig6_nonshared_lifecycle.txt fig6_series.csv fig6_report.json
  table1_allvsall.txt
  ablation_baseline.txt
  ablation_checkpoint.txt
  ablation_migration.txt
  ablation_scheduling.txt
  monitoring_error.txt
)

out=$(mktemp -d "${TMPDIR:-/tmp}/bioopera-artifacts.XXXXXX")
trap 'rm -rf "$out"' EXIT

cargo build --release -q -p bioopera-bench $(printf -- '--bin %s ' "${bins[@]}")
for bin in "${bins[@]}"; do
  BIOOPERA_RESULTS="$out" cargo run --release -q -p bioopera-bench --bin "$bin" \
    > "$out/$bin.stdout" 2> /dev/null
done

moved=0
for name in "${files[@]}" "${bins[@]/%/.stdout}"; do
  if ! cmp -s "$out/$name" "results/$name"; then
    echo "artifact differs from results/$name:"
    diff "results/$name" "$out/$name" | head -n 10 || true
    moved=1
  fi
done
if [ "$moved" -ne 0 ]; then
  exit 1
fi
echo "${#files[@]} artifacts and ${#bins[@]} stdouts regenerate byte for byte."
