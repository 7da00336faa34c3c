"""Evaluation harness (§5): canonical chains, scheme registry, δ-sweep runner."""

from repro.experiments.chains import (
    canonical_chain,
    canonical_chains,
    base_rate_mbps,
    chains_with_delta,
)
from repro.experiments.schemes import SCHEMES, run_scheme
from repro.experiments.parallel import SweepCell, run_cells
from repro.experiments.runner import (
    DeltaSweepResult,
    ExperimentResult,
    SweepSpec,
    run_sweep,
)

__all__ = [
    "canonical_chain",
    "canonical_chains",
    "base_rate_mbps",
    "chains_with_delta",
    "SCHEMES",
    "run_scheme",
    "DeltaSweepResult",
    "ExperimentResult",
    "SweepSpec",
    "SweepCell",
    "run_cells",
    "run_sweep",
]
