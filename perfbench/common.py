"""Result record and statistics shared by the workloads."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    # False only when an output the program reported as complete contradicts
    # an independent reference; failures the program shows go to ``failed``.
    correct: bool = True
    # Completed units of work (history, rotation, flood).  A run's inputs are
    # a fixed list of units made from the seed, run in turn and then over
    # again until the time is up: ``attempted`` and ``failed`` count each
    # input once, so they depend on the seed alone, and the repeats only
    # add timing samples.
    units: int = 0
    work_s: float = 0.0  # time the program spent on the work, for trace overhead
    e2e: dict = field(default_factory=dict)  # name -> (value, unit)
    extra: dict = field(default_factory=dict)  # end-to-end, this workload only
    samples: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    trace: Optional[dict] = None  # per-layer totals gathered in other processes

    def finished(self, start, seconds, units, inputs):
        """Run whole units until ``units`` are done, or else until each of
        the ``inputs`` units has run once and ``seconds`` have passed."""
        if units is not None:
            return self.units >= units
        return self.units >= inputs and perf_counter() - start >= seconds


def percentile(values, p):
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def median(values):
    return percentile(values, 50)
