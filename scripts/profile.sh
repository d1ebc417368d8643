#!/usr/bin/env bash
# In-process sampling profile of one command, for hosts without `perf`.
#
#   scripts/profile.sh COMMAND [ARGS...]
#   scripts/profile.sh target/release/schedule --gen-tasks 100000 --compact
#
# Compiles scripts/sampler.c with `cc` and runs COMMAND with it preloaded:
# a 1 ms ITIMER_PROF timer samples the instruction pointer on the process's
# own CPU time (the kernel tick limits it to about one sample per 4 ms).
# The samples inside COMMAND's binary are symbolized with
# `addr2line -a -f -i -C` at `rip - load base`, where the load base is the
# start of the binary's offset-0 mapping (lld links `.text` at
# vaddr = file offset + 0x1000, so the file offset of the code mapping is
# not the right base). Build with debug info (the release profile keeps it)
# for inlined frames and line numbers.
#
# Prints the 25 heaviest entries of self time twice: by innermost inlined
# frame and by containing (outermost) function. COMMAND's stdout goes to
# $OUT_DIR/stdout; the raw samples and the process's memory map stay in
# $OUT_DIR (a temporary directory unless OUT_DIR is set). x86-64 Linux only.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"

TOP=25
if [[ $# -eq 0 ]]; then
    sed -n '2,20p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
BIN="$(realpath "$(command -v "$1")")"
OUT_DIR="${OUT_DIR:-$(mktemp -d)}"
mkdir -p "$OUT_DIR"
OUT_DIR="$(cd "$OUT_DIR" && pwd)"

cc -O2 -shared -fPIC -o "$OUT_DIR/sampler.so" "$here/sampler.c"
status=0
MALS_SAMPLER_OUT="$OUT_DIR/samples" LD_PRELOAD="$OUT_DIR/sampler.so" \
    "$@" > "$OUT_DIR/stdout" || status=$?
echo "profile: $* exited $status; outputs in $OUT_DIR" >&2

python3 - "$BIN" "$OUT_DIR/samples" "$TOP" <<'EOF'
import collections, subprocess, sys

binary, samples_path, top = sys.argv[1], sys.argv[2], int(sys.argv[3])
maps = []  # (start, end, offset, path)
with open(samples_path + ".maps") as f:
    for line in f:
        parts = line.split()
        if len(parts) < 6:
            continue
        lo, hi = (int(x, 16) for x in parts[0].split("-"))
        maps.append((lo, hi, int(parts[2], 16), parts[5]))
base = min(lo for lo, _, off, path in maps if path == binary and off == 0)

outside = collections.Counter()
rel = collections.Counter()
with open(samples_path) as f:
    for line in f:
        rip = int(line, 16)
        path = next((p for lo, hi, _, p in maps if lo <= rip < hi), "[unmapped]")
        if path == binary:
            rel[rip - base] += 1
        else:
            outside[path.rsplit("/", 1)[-1]] += 1
total = sum(rel.values()) + sum(outside.values())
if total == 0:
    sys.exit("profile: no samples (the command ran for less than a tick?)")

addrs = sorted(rel)
out = subprocess.run(
    ["addr2line", "-e", binary, "-a", "-f", "-i", "-C"],
    input="".join(f"{a:#x}\n" for a in addrs), capture_output=True, text=True, check=True,
).stdout.splitlines()
# One block per address: the address line, then (function, file:line)
# pairs from the innermost inlined frame out to the containing function.
frames, i = {}, 0
for a in addrs:
    assert out[i].startswith("0x"), out[i]
    i += 1
    funcs = []
    while i < len(out) and not out[i].startswith("0x"):
        funcs.append(out[i])
        i += 2
    frames[a] = funcs or ["??"]

inner, outer = collections.Counter(outside), collections.Counter(outside)
for a, n in rel.items():
    inner[frames[a][0]] += n
    outer[frames[a][-1]] += n

print(f"{total} samples (a 1 ms timer; the kernel tick may stretch each to ~4 ms of CPU)")
for title, counts in (("innermost inlined frame", inner), ("containing function", outer)):
    print(f"\nself time by {title}:")
    for name, n in counts.most_common(top):
        print(f"{100 * n / total:6.2f}%  {n:7d}  {name[:150]}")
EOF
