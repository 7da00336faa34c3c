"""Cost models for size/state-dependent NFs (§3.2).

"The cycle count of an NF may be a function of NF state or traffic. For
example, ACL processing may depend on table sizes; we profile cycle counts
for different sizes and use a linear model to predict the processing costs."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import ProfileError


@dataclass(frozen=True)
class LinearCostModel:
    """cycles(size) = base + slope * size, fit by least squares.

    ``reference_size`` is the state size the flat profile number corresponds
    to (e.g. Table 4's ACL row is at 1024 rules).
    """

    base: float
    slope: float
    reference_size: int

    def cycles(self, size: int) -> float:
        if size < 0:
            raise ProfileError(f"state size must be non-negative, got {size}")
        return self.base + self.slope * size

    @classmethod
    def fit(cls, points: Sequence[Tuple[int, float]], reference_size: int
            ) -> "LinearCostModel":
        """Least-squares fit over (size, cycles) profiling points."""
        if len(points) < 2:
            raise ProfileError("need at least two profiling points to fit")
        sizes = np.array([p[0] for p in points], dtype=float)
        costs = np.array([p[1] for p in points], dtype=float)
        design = np.vstack([np.ones_like(sizes), sizes]).T
        (base, slope), *_ = np.linalg.lstsq(design, costs, rcond=None)
        if slope < 0:
            # Profiling noise can produce a tiny negative slope; clamp —
            # NF cost never genuinely decreases with more state.
            slope = 0.0
            base = float(np.max(costs))
        return cls(base=float(base), slope=float(slope),
                   reference_size=reference_size)
