#!/usr/bin/env bash
# Sampled profile of one elbench workload, by innermost repo frame.
#
#   tools/prof/prof.sh steady                 # default seed, BENCHMARK.json run length
#   tools/prof/prof.sh backlog --seed 2 --seconds 4
#   ELBENCH=/path/to/other/elbench tools/prof/prof.sh steady    # e.g. the parent's build
#   ROWS=1000 tools/prof/prof.sh steady       # every row, not the top 25
#
# Builds sigprof.c (needs `cc`; nothing in ci.sh does), runs
# `elbench --workload W --trace 0` under it, and attributes each sample to
# the first frame of its `addr2line -f -i -C` inline chain whose source
# file is in this repository — so time inside an inlined std/hashbrown
# body is charged to the repo function it was inlined into, while an
# outlined callee (`reserve_rehash`, `memmove`) keeps its own row: there
# is no stack unwinding. Reading it: a sample lands on the instruction
# that was *waiting*, so a stall on a full store buffer is charged to the
# next store (PR 22 saw a table's missed stores billed to `recycle_fx`),
# not to the miss that caused it.
set -euo pipefail
root="$(cd "$(dirname "$0")/../.." && pwd)"
workload="${1:?usage: prof.sh WORKLOAD [elbench flags]}"
shift
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

cc -O2 -shared -fPIC -o "$work/sigprof.so" "$root/tools/prof/sigprof.c"
if [[ -z "${ELBENCH:-}" ]]; then
    cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"
    ELBENCH="${CARGO_TARGET_DIR:-$root/benchmark/target}/release/elbench"
fi
PROF_OUT="$work/samples" LD_PRELOAD="$work/sigprof.so" \
    "$ELBENCH" --workload "$workload" --trace 0 "$@" >/dev/null

python3 - "$work/samples" "$ELBENCH" "$workload $*" "${ROWS:-25}" <<'PY'
import collections, os, subprocess, sys

samples_path, binary, run = sys.argv[1], os.path.realpath(sys.argv[2]), sys.argv[3]
lines = open(samples_path).read().split("\n")
cut = lines.index("maps")
addrs = [int(a, 16) for a in lines[:cut]]
# A PIE's first mapping (file offset 0) is its load base.
spans = []
base = None
for m in lines[cut + 1:]:
    f = m.split()
    if len(f) >= 6 and os.path.realpath(f[5]) == binary:
        lo, hi = (int(x, 16) for x in f[0].split("-"))
        if base is None:
            base = lo - int(f[2], 16)
        spans.append((lo, hi))
inside = [a - base for a in addrs if any(lo <= a < hi for lo, hi in spans)]
out = subprocess.run(["addr2line", "-f", "-i", "-C", "-a", "-e", binary],
                     input="\n".join(hex(a) for a in inside), capture_output=True, text=True, check=True).stdout
rows = collections.Counter({"[outside the binary: libc, kernel]": len(addrs) - len(inside)})
chain = []
def close():
    if chain:
        # (function, file:line) pairs, innermost first.
        mine = [(fn, src) for fn, src in chain if "/rustc/" not in src and "/vendor/" not in src
                and ("/crates/" in src or "/benchmark/" in src)]
        fn, src = mine[0] if mine else chain[-1]
        if "::" not in fn:  # an inlined frame carries only its short name
            fn += " (" + "/".join(src.rsplit(":", 1)[0].split("/")[-3:]) + ")"
        rows[fn if len(fn) <= 110 else fn[:107] + "..."] += 1
it = iter(out.splitlines())
for line in it:
    if line.startswith("0x"):
        close()
        chain = []
    else:
        chain.append((line, next(it)))
close()
print(f"{len(addrs)} samples, 1 ms of CPU each: elbench --workload {run}")
for fn, n in rows.most_common(int(sys.argv[4])):
    if n:
        print(f"{100 * n / len(addrs):6.1f} %  {n:6d}  {fn}")
PY
