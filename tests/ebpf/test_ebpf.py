"""eBPF substrate tests: program model, verifier, NIC runtime (§A.3)."""

import pytest

from repro.ebpf.nic import SmartNICRuntime
from repro.ebpf.program import EBPFProgram, EBPFSection
from repro.ebpf.verifier import (
    MAX_INSTRUCTIONS,
    MAX_STACK_BYTES,
    VerifierReport,
    verify_program,
)
from repro.exceptions import DataplaneError, VerifierError
from repro.hw.smartnic import SmartNIC
from repro.net.packet import Packet
from repro.profiles.defaults import default_profiles


def program(instructions=100, stack=64, back_edges=False, calls=False):
    prog = EBPFProgram(name="test")
    prog.sections.append(EBPFSection("dispatcher", None, 50, 32))
    prog.sections.append(EBPFSection("nf_0", "FastEncrypt",
                                     instructions, stack))
    prog.has_back_edges = back_edges
    prog.has_calls = calls
    return prog


class TestProgramModel:
    def test_instruction_sum(self):
        prog = program(instructions=100)
        assert prog.instructions == 150

    def test_stack_is_dispatcher_plus_deepest(self):
        prog = program(stack=64)
        assert prog.stack_bytes == 32 + 64

    def test_empty_program(self):
        assert EBPFProgram(name="empty").stack_bytes == 0


class TestVerifier:
    def test_valid_program_passes(self):
        report = verify_program(program())
        assert report.ok

    def test_instruction_limit(self):
        with pytest.raises(VerifierError):
            verify_program(program(instructions=MAX_INSTRUCTIONS + 1))

    def test_stack_limit(self):
        with pytest.raises(VerifierError):
            verify_program(program(stack=MAX_STACK_BYTES))  # +dispatcher 32

    def test_back_edges_rejected(self):
        with pytest.raises(VerifierError):
            verify_program(program(back_edges=True))

    def test_calls_rejected(self):
        with pytest.raises(VerifierError):
            verify_program(program(calls=True))

    def test_non_strict_returns_violations(self):
        report = verify_program(program(back_edges=True, calls=True),
                                strict=False)
        assert not report.ok
        assert len(report.violations) == 2

    def test_boundary_exactly_at_limit_ok(self):
        prog = EBPFProgram(name="edge")
        prog.sections.append(
            EBPFSection("dispatcher", None, MAX_INSTRUCTIONS, 0)
        )
        assert verify_program(prog).ok


class TestNICRuntime:
    def _runtime(self):
        nic = SmartNIC(host_server="server0")
        runtime = SmartNICRuntime(nic, default_profiles())
        prog = program()
        prog.demux[(5, 250)] = (0, 5, 249, False)
        runtime.load(prog, [("FastEncrypt", {})])
        return runtime

    @staticmethod
    def _at(spi, si, **fields):
        pkt = Packet.build(**fields)
        pkt.metadata.spi, pkt.metadata.si = spi, si
        return pkt

    def test_processes_and_retags(self):
        runtime = self._runtime()
        (out,) = runtime.run([self._at(5, 250, payload=b"plaintext!")])
        assert out is not None and out.nsh is None
        assert (out.metadata.spi, out.metadata.si) == (5, 249)
        assert out.payload != b"plaintext!"  # ChaCha ran
        assert out.metadata.cycles_consumed == runtime.cycles_charged > 0
        assert (runtime.rx, runtime.tx, runtime.drops) == (1, 1, 0)

    def test_unknown_spi_drops(self):
        runtime = self._runtime()
        assert runtime.run([self._at(9, 9)]) == [None]
        assert (runtime.rx, runtime.tx, runtime.drops) == (1, 0, 1)

    def test_load_verifies(self):
        nic = SmartNIC(host_server="server0")
        runtime = SmartNICRuntime(nic, default_profiles())
        with pytest.raises(VerifierError):
            runtime.load(program(back_edges=True), [("FastEncrypt", {})])

    def test_unloaded_runtime_rejects(self):
        nic = SmartNIC(host_server="server0")
        runtime = SmartNICRuntime(nic, default_profiles())
        with pytest.raises(DataplaneError):
            runtime.run([self._at(5, 250)])
