"""Testbed simulator: deploy a placement and measure what it achieves."""

from repro.sim.testbed import TestbedSimulator, TestbedReport
from repro.sim.measurement import ChainMeasurement
from repro.sim.traffic import ChainTrafficReport, TrafficEngine, TrafficReport
from repro.sim.admission import PhaseReport
from repro.sim.faults import (
    ChaosEngine,
    ChaosReport,
    ChaosSpec,
    FaultEvent,
    FaultTimeline,
    GuardConfig,
    run_chaos,
    run_chaos_checked,
)

__all__ = [
    "TestbedSimulator",
    "TestbedReport",
    "ChainMeasurement",
    "TrafficEngine",
    "TrafficReport",
    "ChainTrafficReport",
    "ChaosEngine",
    "ChaosReport",
    "ChaosSpec",
    "FaultEvent",
    "FaultTimeline",
    "GuardConfig",
    "PhaseReport",
    "run_chaos",
    "run_chaos_checked",
]
