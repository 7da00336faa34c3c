"""Host-speed normalisation for a shared box.

On the 2-vCPU microVMs this benchmark runs on, each vCPU flips between a
fast and a ~1.5x slower state every 10-30 s, independently of the other
(a neighbour on the host; it shows in CPU time as much as in wall time,
so it is not descheduling). Raw wall-clock medians of identical runs
then spread by 15-25 %, which no amount of repetition inside a 12 s run
removes. Two measures bring that to 3-5 %:

* the benchmark process pins itself (and so every child it starts) to
  one CPU, so the workload and the yardstick below share a vCPU;
* a fixed pure-Python spin kernel is timed right before and right after
  every timed section, and the section's wall time is divided by
  ``spin time / REFERENCE_S``.

Every reported timing is therefore *host wall clock, normalised to a
host on which the spin kernel takes REFERENCE_S*; the un-normalised
value of each metric is kept beside it in the result record (``raw``).
The kernel is interpreter work only (dict stores, integer arithmetic),
which tracked both the numpy-heavy and the pure-Python workloads within
a few percent in the measurements behind this choice.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import FrozenSet, List, Optional, Tuple

#: spin time on this class of box in its fast state; any constant would
#: do (only ratios are ever compared), this one keeps normalised and raw
#: numbers close on a quiet host.
REFERENCE_S = 0.0135
_SPIN_ITERATIONS = 150_000


def spin() -> float:
    """Seconds the fixed yardstick kernel takes right now."""
    started = time.perf_counter()
    total = 0
    table = {}
    for i in range(_SPIN_ITERATIONS):
        table[i & 1023] = total
        total += i * i
    return time.perf_counter() - started


def pin_to_one_cpu() -> Tuple[Optional[int], FrozenSet[int]]:
    """Pin this process (children inherit it) to the allowed CPU that is
    faster right now. Returns that CPU (``None`` where the platform
    cannot pin) and the affinity mask the process started with."""
    if not hasattr(os, "sched_setaffinity"):
        return None, frozenset()
    best, best_time = None, float("inf")
    starting = frozenset(os.sched_getaffinity(0))
    for cpu in sorted(starting):
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:
            continue
        elapsed = min(spin(), spin())
        if elapsed < best_time:
            best, best_time = cpu, elapsed
    if best is not None:
        os.sched_setaffinity(0, {best})
    return best, starting


@contextlib.contextmanager
def all_cpus(allowed):
    """Run a block on every CPU of ``allowed`` (the affinity the process
    started with), then return to the pinned one: the worker-pool probes
    measure parallelism, which one CPU cannot show."""
    if not allowed or not hasattr(os, "sched_setaffinity"):
        yield
        return
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, allowed)
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


class HostSpeed:
    """The speed factor of the host around each timed section.

    ``mark()`` right before a section, ``factor()`` right after it: the
    mean of the two spin times over the reference. Back-to-back sections
    can skip ``mark()``; the previous ``factor()`` call's sample is the
    next section's "before".
    """

    def __init__(self, starting_cpus: FrozenSet[int] = frozenset()):
        #: the affinity mask before the process pinned itself
        self.starting_cpus = starting_cpus
        self.spins: List[float] = []
        self._last = self._sample()

    def _sample(self) -> float:
        value = spin()
        self.spins.append(value)
        return value

    def mark(self) -> None:
        self._last = self._sample()

    def factor(self) -> float:
        before, self._last = self._last, self._sample()
        return (before + self._last) / 2.0 / REFERENCE_S

    def factor_since_start(self) -> float:
        """The factor across everything so far (set-up: one sample before
        the imports, then one per ``mark()`` at each milestone)."""
        self.mark()
        return sum(self.spins) / len(self.spins) / REFERENCE_S
