"""The machine's speed, sampled next to the work it scales.

The host this benchmark runs on gives the same instructions different speeds
from one minute to the next (see ``NOTES.md``), and that drift is larger than
any bound a timing gate can have.  So each gated timing is reported at a
fixed reference speed, against a reference that uses no ccr code, so that a
change to ccr shows in full while a slow minute of the host slows both and
cancels out:

- throughput against ``kernel()``, a fixed piece of pure Python work:
  ``Speed.sample()`` times it right before and right after a unit of work,
  and the unit's rate is scaled by how much slower than ``REF_S`` it ran;
- set-up time against the start of a bare interpreter (``BARE``), timed
  right before each set-up and scaled to ``REF_START_S``.  The kernel does
  not follow how fast processes start; a bare start does.
"""

from __future__ import annotations

import gc
import sys
from time import perf_counter

# The kernel's time on the machine the benchmark was built on (2-vCPU Xeon
# virtual machine at 2.1 GHz, Python 3.11.7).  Only a scale: two runs on one
# machine compare alike whatever it is.
REF_S = 0.009
KERNEL_N = 16000
# ``BARE``'s time there, from spawn to exit.
REF_START_S = 0.055
BARE = (sys.executable, "-c", "pass")


def kernel(n=KERNEL_N):
    """Interpreter-bound work of the sort ccr does: small tuples as dict
    keys, short lists, method calls, string joins."""
    counts = {}
    acc = 0
    for i in range(n):
        k = (i * 7919) % 1009
        key = (k, i & 7, "x")
        counts[key] = counts.get(key, 0) + 1
        row = [k, i, acc & 255]
        row.sort()
        acc += len(row) + row[0]
        if k in counts:
            acc ^= k
    return acc + len("".join(str(v) for v in sorted(counts.values())[:64]))


class Speed:
    def __init__(self):
        kernel()  # warm up
        self.samples = []  # seconds of each kernel() call

    def sample(self):
        """Time one kernel; returns the sample's index.  The collector is
        off meanwhile, so the kernel's time does not depend on how many
        objects the workload keeps alive."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t = perf_counter()
            kernel()
            self.samples.append(perf_counter() - t)
        finally:
            if enabled:
                gc.enable()
        return len(self.samples) - 1

    def slowdown(self, i, j):
        """How much slower than the reference the machine ran between
        samples ``i`` and ``j`` (mean kernel time over ``REF_S``)."""
        window = self.samples[i:j + 1]
        return sum(window) / len(window) / REF_S


def at_reference_start(setup_s, bare_s):
    """``setup_s`` scaled by how much slower than ``REF_START_S`` a bare
    interpreter started next to it (``bare_s``)."""
    return setup_s * REF_START_S / bare_s
