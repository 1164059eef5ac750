#!/usr/bin/env python3
"""Leaf-PC sampling profiler: where a command spends its time, by symbol.

    scripts/profile.py [--hz 800] [--seconds 10] [--top 25] [--pcs N] -- CMD [ARGS...]

Runs CMD, stops its main thread HZ times a second through ptrace
(PTRACE_SEIZE + PTRACE_INTERRUPT, so other threads keep running and no
signal reaches the program), reads the program counter and lets it go.
After SECONDS (or when CMD exits) it kills CMD and prints one row per
symbol: samples, share of all samples, symbol. With `--pcs N` it then
prints the N hottest instructions as `symbol+0xOFFSET  (ADDRESS)`, the
link-time address last because generic functions share a demangled
name across instantiations — the way to find the stall inside a large
inlined function (disassemble around ADDRESS with `objdump -d
--start-address=...`).

Symbolization is per ELF load segment: a PC inside a mapping of
/proc/PID/maps becomes a file offset, the PT_LOAD segment holding that
offset (`readelf -lW`) turns it into a link-time address, and the
nearest symbol at or below it (`nm -n`, demangled, hash suffix
dropped) names it. Files without a symbol table fall back to their
dynamic symbols (`nm -D`); a stripped libc therefore names only its
exported functions, and a sample inside an unexported one goes to the
nearest export below it — such rows print as `libc:<nearest export>`
and are a family, not a function. Only the standard library, `nm` and
`readelf` are used; ptrace needs permission to trace one's own child
(the default Yama scope allows it).

Example (the repo benchmark's plain lookup path, release build):

    cargo build --release --offline --manifest-path benchmark/Cargo.toml
    scripts/profile.py --seconds 10 --pcs 10 -- \\
        benchmark/target/release/dlpt-benchmark --workload lookup_uniform --seconds 30
"""
import argparse
import bisect
import collections
import ctypes
import ctypes.util
import os
import re
import signal
import subprocess
import sys
import time

PTRACE_CONT = 7
PTRACE_GETREGS = 12
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
PTRACE_O_EXITKILL = 0x100000
PTRACE_EVENT_STOP = 128
# Index of `rip` in x86-64 `struct user_regs_struct` (27 u64 words).
RIP = 16

libc = ctypes.CDLL(ctypes.util.find_library("c"), use_errno=True)
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p]
libc.ptrace.restype = ctypes.c_long


def ptrace(req, pid, addr=0, data=0):
    if libc.ptrace(req, pid, ctypes.c_void_p(addr), ctypes.c_void_p(data)) == -1:
        err = ctypes.get_errno()
        raise OSError(err, f"ptrace({req:#x}): {os.strerror(err)}")


class Elf:
    """PT_LOAD segments and sorted symbols of one mapped file."""

    def __init__(self, path):
        self.path = path
        self.short = os.path.basename(path)
        self.libc = self.short.startswith("libc.so") or self.short.startswith("libc-")
        self.loads = []  # (offset, vaddr, filesz)
        out = run(["readelf", "-lW", path])
        for line in out.splitlines():
            f = line.split()
            if f and f[0] == "LOAD":
                self.loads.append((int(f[1], 16), int(f[2], 16), int(f[4], 16)))
        self.addrs, self.names = [], []
        syms = self.symbols(["nm", "-n", "-C", "--defined-only", path])
        if not syms:
            syms = self.symbols(["nm", "-D", "-n", "-C", "--defined-only", path])
        for addr, name in syms:
            self.addrs.append(addr)
            self.names.append(name)

    @staticmethod
    def symbols(cmd):
        out = []
        for line in run(cmd).splitlines():
            f = line.split(None, 2)
            if len(f) == 3 and f[1] in "tTwWiI":
                name = re.sub(r"::h[0-9a-f]{16}$", "", f[2])
                out.append((int(f[0], 16), name))
        return out

    def locate(self, file_off):
        """`(symbol, link-time address, offset into the symbol)` of a
        file offset; address and offset None when no symbol covers
        it."""
        vaddr = None
        for off, va, size in self.loads:
            if off <= file_off < off + size:
                vaddr = file_off - off + va
                break
        if vaddr is None:
            return f"{self.short}:?", None, None
        i = bisect.bisect_right(self.addrs, vaddr) - 1
        if i < 0:
            return f"{self.short}:?", None, None
        name = f"libc:{self.names[i]}" if self.libc else self.names[i]
        return name, vaddr, vaddr - self.addrs[i]


def run(cmd):
    return subprocess.run(cmd, capture_output=True, text=True, check=False).stdout


def read_maps(pid):
    """Executable file mappings of `pid`: (start, end, offset, path)."""
    maps = []
    with open(f"/proc/{pid}/maps") as f:
        for line in f:
            fields = line.split(None, 5)
            if len(fields) < 6 or "x" not in fields[1] or not fields[5].startswith("/"):
                continue
            lo, hi = (int(x, 16) for x in fields[0].split("-"))
            maps.append((lo, hi, int(fields[2], 16), fields[5].strip()))
    return maps


def sample(pid, hz, seconds):
    """PCs of `pid`'s main thread, `hz` a second for up to `seconds`."""
    regs = (ctypes.c_ulonglong * 27)()
    pcs, maps = [], []
    period = 1.0 / hz
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        time.sleep(period)
        try:
            ptrace(PTRACE_INTERRUPT, pid)
        except OSError:
            break  # exited
        signo = 0
        while True:
            _, status = os.waitpid(pid, getattr(os, "__WALL", 0x40000000))
            if os.WIFEXITED(status) or os.WIFSIGNALED(status):
                return pcs, maps
            if status >> 16 == PTRACE_EVENT_STOP:
                break
            # A signal the program should see: pass it on, keep waiting
            # for the interrupt's stop.
            signo = os.WSTOPSIG(status)
            ptrace(PTRACE_CONT, pid, 0, signo)
        libc.ptrace(PTRACE_GETREGS, pid, None, ctypes.byref(regs))
        pc = regs[RIP]
        if not any(lo <= pc < hi for lo, hi, _, _ in maps):
            maps = read_maps(pid)
        pcs.append(pc)
        ptrace(PTRACE_CONT, pid, 0, 0)
    return pcs, maps


def symbolize(pcs, maps):
    """Samples per symbol and per instruction (`symbol+0xOFFSET`, then
    the link-time address: generic functions share a demangled name
    across instantiations)."""
    elves = {}
    counts, at = collections.Counter(), collections.Counter()
    for pc, n in collections.Counter(pcs).items():
        name, vaddr, offset = "[anonymous]", None, None
        for lo, hi, off, path in maps:
            if lo <= pc < hi:
                if path not in elves:
                    elves[path] = Elf(path)
                name, vaddr, offset = elves[path].locate(pc - lo + off)
                break
        counts[name] += n
        at[name if offset is None else f"{name}+{offset:#x}  ({vaddr:#x})"] += n
    return counts, at


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--hz", type=float, default=800)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--pcs", type=int, default=0, metavar="N",
                    help="also print the N hottest instructions")
    ap.add_argument("cmd", nargs=argparse.REMAINDER)
    a = ap.parse_args()
    cmd = a.cmd[1:] if a.cmd[:1] == ["--"] else a.cmd
    if not cmd:
        ap.error("no command to profile")
    child = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    ptrace(PTRACE_SEIZE, child.pid, 0, PTRACE_O_EXITKILL)
    try:
        pcs, maps = sample(child.pid, a.hz, a.seconds)
    finally:
        if child.poll() is None:
            child.send_signal(signal.SIGKILL)
        child.wait()
    if not pcs:
        sys.exit("profile.py: no samples (did the command exit at once?)")
    counts, at = symbolize(pcs, maps)
    total = sum(counts.values())
    print(f"{total} samples at {a.hz:g} Hz of: {' '.join(cmd)}")
    print(f"{'samples':>8} {'share':>7}  symbol")
    for name, n in counts.most_common(a.top):
        print(f"{n:>8} {100.0 * n / total:>6.1f}%  {name}")
    if a.pcs > 0:
        print(f"\n{'samples':>8} {'share':>7}  instruction")
        for name, n in at.most_common(a.pcs):
            print(f"{n:>8} {100.0 * n / total:>6.1f}%  {name}")


if __name__ == "__main__":
    main()
