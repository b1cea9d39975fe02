#!/usr/bin/env bash
# Where does a bench_e2e workload spend its CPU?  No profiler is installed
# on the benchmark host, so: a scratch copy of the driver with a SIGPROF
# sampler compiled in (scripts/profile/sigprof.rs: frame pointers, 4 ms
# tick, samples tagged with the driver phase), run once, symbolized with nm.
#
#   bash scripts/profile.sh shard_chains_tiered [SEED [SECONDS]]
#
# Nothing under benchmark/ is touched; the copy, its target directory and
# the samples live under $TMPDIR (default /tmp) and are removed on exit.
# Timings of a sampled run are not benchmark numbers.
set -euo pipefail
cd "$(dirname "$0")/.."
workload=${1:?workload name}; seed=${2:-1}; seconds=${3:-8}

work=$(mktemp -d "${TMPDIR:-/tmp}/bioopera-profile.XXXXXX")
trap 'rm -rf "$work"' EXIT
# The driver includes ../workloads.json: keep the copy one level down.
crate="$work/bench_e2e"
mkdir "$crate"
cp benchmark/workloads.json "$work/"
cp -r benchmark/bench_e2e/Cargo.toml benchmark/bench_e2e/Cargo.lock benchmark/bench_e2e/src "$crate/"
cp scripts/profile/sigprof.rs "$crate/src/"
sed -i "s|\"\.\./\.\./|\"$PWD/|" "$crate/Cargo.toml"
sed -i -e 's/^mod alloc;$/mod alloc;\nmod sigprof;/' \
  -e 's/^fn main() -> ExitCode {$/fn main() -> ExitCode {\n    sigprof::start();\n    let code = sampled_main();\n    sigprof::dump();\n    code\n}\n\nfn sampled_main() -> ExitCode {/' \
  "$crate/src/main.rs"
sed -i 's/^pub fn root<R>(kind: Kind, f: impl FnOnce() -> R) -> (R, f64) {$/&\n    let _phase = crate::sigprof::enter(kind as u8);/' \
  "$crate/src/tracer.rs"
grep -q 'sigprof::start' "$crate/src/main.rs" && grep -q 'sigprof::enter' "$crate/src/tracer.rs" \
  || { echo "the driver moved: profile.sh's three sed hooks no longer match"; exit 1; }

RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR="$work/target" \
  cargo build --release --offline --quiet --manifest-path "$crate/Cargo.toml"
mkdir "$work/out"
SIGPROF_DIR="$work/out" "$work/target/release/bench_e2e" \
  --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 > "$work/run.log" 2>&1 \
  || { tail -n 20 "$work/run.log"; exit 1; }
python3 scripts/profile/symbolize.py "$work"/out/sigprof.*.txt
