"""Exception hierarchy shared across the Lemur reproduction.

Every subsystem raises a subclass of :class:`ReproError` so that callers can
catch library failures without masking programming errors (``TypeError``,
``KeyError`` and friends always propagate).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class SpecError(ReproError):
    """The NF chain specification is malformed (lexer/parser/AST errors)."""


class SpecSyntaxError(SpecError):
    """Syntax error in the chain-spec DSL, with position information."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, col {column}: {message}"
        super().__init__(message)


class VocabularyError(SpecError):
    """An NF name is not in the (extensible) NF vocabulary."""


class GraphError(ReproError):
    """The NF graph is structurally invalid (cycles, dangling merges...)."""


class PlacementError(ReproError):
    """The Placer could not produce a placement."""


class InfeasiblePlacementError(PlacementError):
    """No placement satisfies the SLOs under the given resources."""


class ProfileError(ReproError):
    """An NF profile is missing or inconsistent."""


class CompileError(ReproError):
    """Meta-compiler or platform compiler failure."""


class P4CompileError(CompileError):
    """The PISA pipeline does not fit the switch (stages/memory) or the
    unified parser has conflicting header transitions."""


class ParserMergeConflict(P4CompileError):
    """Two NF-local parse trees disagree on a header transition (§A.2.1)."""


class VerifierError(CompileError):
    """The eBPF verifier rejected a SmartNIC program."""


class OpenFlowError(CompileError):
    """The OpenFlow switch cannot realize the requested table order/rules."""


class DataplaneError(ReproError):
    """Runtime error inside a simulated dataplane."""


class TopologyError(ReproError):
    """The rack topology description is invalid."""


class PartitionError(PlacementError):
    """The chain-to-rack partitioner could not produce an assignment
    (capacity-infeasible, latency budget exhausted, or disconnected
    fabric); carries the binding constraint in its message."""


class LifecycleError(ReproError):
    """A chain-lifecycle timeline or run is malformed."""


class FaultInjectionError(ReproError):
    """A fault timeline is invalid or a chaos run broke an invariant
    (e.g. replica runs of the same seed diverged)."""


class TrafficError(ReproError):
    """A traffic-replay experiment spec is malformed."""


class ServeError(ReproError):
    """The control-plane daemon was misconfigured or broke an invariant."""


class CommandError(ServeError):
    """A serve command payload is malformed (bad type/fields/values)."""
