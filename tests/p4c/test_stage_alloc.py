"""Stage allocator tests: naive vs conservative vs compiler packing."""

import pytest

from repro.exceptions import P4CompileError
from repro.hw.pisa import PISAStageResources
from repro.p4c.ir import MatchType, P4Table, TableDAG
from repro.p4c.stage_alloc import (
    allocate_compiler,
    allocate_conservative,
    allocate_naive,
)


def small_table(name, reads=(), writes=()):
    return P4Table(name=name, size=16, entry_bits=16,
                   reads=frozenset(reads), writes=frozenset(writes))


def big_sram_table(name):
    # ~1.3 MB: fills most of a 1400 KB stage
    return P4Table(name=name, size=12000, entry_bits=888)


class TestCompilerPacking:
    def test_independent_tables_share_stage(self):
        dag = TableDAG()
        for i in range(4):
            dag.add_table(small_table(f"t{i}"))
        alloc = allocate_compiler(dag)
        assert alloc.stage_count == 1

    def test_dependent_tables_split(self):
        dag = TableDAG()
        dag.add_table(small_table("a"))
        dag.add_table(small_table("b"))
        dag.add_edge("a", "b")
        alloc = allocate_compiler(dag)
        assert alloc.stage_count == 2
        assert alloc.stage_of("a") < alloc.stage_of("b")

    def test_slot_limit_splits(self):
        dag = TableDAG()
        for i in range(10):
            dag.add_table(small_table(f"t{i}"))
        alloc = allocate_compiler(dag)  # 8 slots/stage
        assert alloc.stage_count == 2

    def test_sram_limit_splits(self):
        dag = TableDAG()
        dag.add_table(big_sram_table("nat1"))
        dag.add_table(big_sram_table("nat2"))
        alloc = allocate_compiler(dag)
        assert alloc.stage_count == 2

    def test_backfill_interleaves(self):
        """A later-ready small table backfills alongside big tables."""
        dag = TableDAG()
        dag.add_table(small_table("first", writes={"m"}))
        dag.add_table(small_table("second", reads={"m"}))
        dag.add_table(big_sram_table("nat1"))
        dag.add_table(big_sram_table("nat2"))
        alloc = allocate_compiler(dag)
        # nat1/nat2 each need a stage; first/second ride along: 2 stages
        assert alloc.stage_count == 2

    def test_oversized_table_rejected(self):
        dag = TableDAG()
        dag.add_table(P4Table(name="huge", size=100000, entry_bits=888))
        with pytest.raises(P4CompileError):
            allocate_compiler(dag)

    def test_fits_flag(self):
        dag = TableDAG()
        prev = None
        for i in range(5):
            dag.add_table(small_table(f"t{i}"))
            if prev:
                dag.add_edge(prev, f"t{i}")
            prev = f"t{i}"
        assert allocate_compiler(dag, available_stages=5).fits
        assert not allocate_compiler(dag, available_stages=4).fits


class TestConservative:
    def test_groups_never_share(self):
        dag = TableDAG()
        dag.add_table(small_table("a"))
        dag.add_table(small_table("b"))
        alloc = allocate_conservative(dag, nf_groups=[["a"], ["b"]])
        assert alloc.stage_count == 2  # compiler would do it in 1

    def test_within_group_packing_allowed(self):
        dag = TableDAG()
        dag.add_table(small_table("a"))
        dag.add_table(small_table("b"))
        alloc = allocate_conservative(dag, nf_groups=[["a", "b"]])
        assert alloc.stage_count == 1

    def test_uncovered_table_rejected(self):
        dag = TableDAG()
        dag.add_table(small_table("a"))
        with pytest.raises(P4CompileError):
            allocate_conservative(dag, nf_groups=[])

    def test_always_at_least_compiler(self):
        dag = TableDAG()
        for i in range(6):
            dag.add_table(small_table(f"t{i}"))
        compiler = allocate_compiler(dag)
        conservative = allocate_conservative(
            dag, nf_groups=[[f"t{i}"] for i in range(6)]
        )
        assert conservative.stage_count >= compiler.stage_count


class TestNaive:
    def test_one_table_per_stage(self):
        dag = TableDAG()
        for i in range(5):
            dag.add_table(small_table(f"t{i}"))
        alloc = allocate_naive(dag)
        assert alloc.stage_count == 5
        assert all(len(stage) == 1 for stage in alloc.stages)

    def test_explicit_order_respected(self):
        dag = TableDAG()
        dag.add_table(small_table("a"))
        dag.add_table(small_table("b"))
        alloc = allocate_naive(dag, serialized_order=["b", "a"])
        assert alloc.stages == (("b",), ("a",))


class TestStageOf:
    def test_unallocated_lookup_fails(self):
        dag = TableDAG()
        dag.add_table(small_table("a"))
        alloc = allocate_compiler(dag)
        with pytest.raises(P4CompileError):
            alloc.stage_of("missing")
