#!/usr/bin/env python3
"""symbolize.py SAMPLE_FILE... — per driver phase, the share of SIGPROF
samples whose stack holds each function (inclusive) and whose top frame is
in it (self).  Symbols come from `nm` on the objects the dump lists: the
full table of the executable, the dynamic one of shared libraries."""
import bisect, collections, re, subprocess, sys

def symbols(path, dynamic):
    cmd = ["nm", "-C", "-n", "--defined-only"] + (["-D"] if dynamic else []) + [path]
    table = []
    for line in subprocess.run(cmd, capture_output=True, text=True).stdout.splitlines():
        addr, kind, name = line.split(" ", 2)
        if kind in "tTwWi":
            table.append((int(addr, 16), re.sub(r"::h[0-9a-f]{16}$", "", name)))
    return [a for a, _ in table], [n for _, n in table]

PHASES = {0: "outside", 1: "engine.submit", 2: "engine.step", 3: "engine.recover"}
total = collections.Counter()
incl = collections.defaultdict(collections.Counter)
self_ = collections.defaultdict(collections.Counter)
tables = {}
for f in sys.argv[1:]:
    base, text, samples = {}, [], []
    for line in open(f):
        if line.startswith("map "):
            _, span, perms, path = line.split()
            lo, hi = (int(x, 16) for x in span.split("-"))
            base[path] = min(base.get(path, lo), lo)
            if "x" in perms:
                text.append((lo, hi, path))
        else:
            samples.append(line.split())
    exe = text[0][2]  # /proc/self/maps lists the executable first

    def name_of(addr):
        for lo, hi, path in text:
            if lo <= addr < hi:
                if path not in tables:
                    tables[path] = symbols(path, dynamic=path != exe)
                addrs, names = tables[path]
                i = bisect.bisect_right(addrs, addr - base[path]) - 1
                if path == exe:
                    return names[i] if i >= 0 else "[executable]"
                # A library's dynamic table holds its exports only: a
                # static function (memcpy's variants, malloc's internals)
                # shows as the export before it.
                lib = path.rsplit("/", 1)[-1]
                return f"{lib}: at or after {names[i]}" if i >= 0 else lib
        return "[unmapped]"

    for phase, *frames in samples:
        phase = PHASES.get(int(phase), phase)
        # A return address points past its call: step back into it.
        names = [name_of(int(a, 16) - (1 if i else 0)) for i, a in enumerate(frames)]
        if not names:
            continue
        total[phase] += 1
        self_[phase][names[0]] += 1
        for n in set(names):
            incl[phase][n] += 1

for phase, n in total.items():
    print(f"== {phase}: {n} samples")
    for title, table in (("inclusive", incl[phase]), ("self", self_[phase])):
        print(f"  -- {title}")
        for name, k in table.most_common(30):
            print(f"  {100 * k / n:5.1f} %  {name[:110]}")
