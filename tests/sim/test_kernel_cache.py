"""The cross-process C-kernel cache (``$REPRO_KERNEL_CACHE``) and the
kernel build."""

import os
import subprocess
import sys

import pytest

import repro
from repro.atpg import random_gen
from repro.circuits import synth
from repro.sim import npsim
from repro.sim.fault_sim import FaultSimulator
from repro.sim.faults import FaultSet
from repro.sim.logicsim import CompiledCircuit


def _reset_kernel_state(monkeypatch):
    """Give the test a virgin process-level kernel cache.

    monkeypatch restores the real compiled kernel afterwards, so other
    tests in the process keep their fast path.
    """
    monkeypatch.setattr(npsim, "_KERNEL", None)
    monkeypatch.setattr(npsim, "_KERNEL_ERROR", None)
    monkeypatch.setattr(npsim, "_KERNEL_TRIED", False)


def test_no_env_means_no_cache(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL_CACHE", raising=False)
    assert npsim._kernel_cache_path(npsim._kernel_source()) is None


def test_path_is_keyed_on_source(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    source = npsim._kernel_source()
    first = npsim._kernel_cache_path(source)
    assert first is not None and first.startswith(str(tmp_path))
    assert npsim._kernel_cache_path(source + "\n/* v2 */\n") != first


def test_missing_source_disables_the_kernel(monkeypatch, tmp_path):
    """Without kernel.c the kernel reports itself unavailable and the
    big-int path runs, with the reference's results."""
    pytest.importorskip("cffi")
    _reset_kernel_state(monkeypatch)
    monkeypatch.setattr(npsim, "_KERNEL_PATH", str(tmp_path / "gone.c"))
    assert npsim._load_kernel() is None
    assert npsim.kernel_unavailable_reason().startswith(
        "kernel source unreadable")
    net = synth.generate("nosrc", 4, 3, 5, 30, seed=1)
    faults = FaultSet.collapsed(net)
    circuit = CompiledCircuit(net)
    assert circuit.array_backend is None
    vectors = random_gen.random_sequence(circuit, 8, seed=1)
    sim = FaultSimulator(circuit, faults)
    reference = CompiledCircuit(net, _reference=True)
    assert sim.detect(vectors, None) == \
        FaultSimulator(reference, faults).detect(vectors, None)
    assert sim.counters.np_passes == 0


def test_publish_then_hit_without_a_compiler(monkeypatch, tmp_path):
    """A compile publishes the .so; the next load needs no compiler."""
    if npsim.kernel_unavailable_reason() is not None:
        pytest.skip(npsim.kernel_unavailable_reason())
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    _reset_kernel_state(monkeypatch)
    assert npsim._load_kernel() is not None
    cached = npsim._kernel_cache_path(npsim._kernel_source())
    assert cached is not None and os.path.exists(cached)
    # Second process (simulated): cache hit must not need a compiler.
    _reset_kernel_state(monkeypatch)
    monkeypatch.setattr(npsim, "_find_cc", lambda: None)
    assert npsim._load_kernel() is not None
    assert npsim._KERNEL_ERROR is None


def test_path_is_keyed_on_compiler(monkeypatch, tmp_path):
    """``$CC`` is part of the key: a kernel built by one compiler (a
    sanitizing wrapper, say) is never loaded for another."""
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    monkeypatch.delenv("CC", raising=False)
    source = npsim._kernel_source()
    default = npsim._kernel_cache_path(source)
    monkeypatch.setenv("CC", "gcc")
    gcc = npsim._kernel_cache_path(source)
    monkeypatch.setenv("CC", "/opt/wrappers/asan-cc")
    wrapped = npsim._kernel_cache_path(source)
    assert len({default, gcc, wrapped}) == 3


def test_missing_compiler_over_populated_cache(monkeypatch, tmp_path):
    """A ``$CC`` that names no compiler reports so, even when the cache
    holds a kernel built by another compiler."""
    if npsim.kernel_unavailable_reason() is not None:
        pytest.skip(npsim.kernel_unavailable_reason())
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    _reset_kernel_state(monkeypatch)
    assert npsim._load_kernel() is not None
    assert list(tmp_path.glob("repro_kernel-*.so"))
    _reset_kernel_state(monkeypatch)
    monkeypatch.setenv("CC", "no-such-cc")
    assert npsim._load_kernel() is None
    assert npsim.kernel_unavailable_reason() == \
        "no C compiler found (set $CC)"


_COMPILE_AND_RUN = """
from repro.circuits import synth
from repro.atpg import random_gen
from repro.sim import npsim
from repro.sim.fault_sim import FaultSimulator
from repro.sim.faults import FaultSet
from repro.sim.logicsim import CompiledCircuit

assert npsim.kernel_unavailable_reason() is None
net = synth.generate("leak", 4, 3, 5, 30, seed=1)
faults = FaultSet.collapsed(net)
circuit = CompiledCircuit(net)
vectors = random_gen.random_sequence(circuit, 8, seed=1)
sim = FaultSimulator(circuit, faults)
got = sim.detect(vectors, None)
reference = CompiledCircuit(net, _reference=True)
assert got == FaultSimulator(reference, faults).detect(vectors, None)
assert sim.counters.np_passes > 0
"""


def test_compile_leaves_no_build_directory(tmp_path):
    """A process that compiles the kernel removes its build directory
    once the library is loaded, and the kernel still runs."""
    if npsim.kernel_unavailable_reason() is not None:
        pytest.skip(npsim.kernel_unavailable_reason())
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    env.pop("REPRO_KERNEL_CACHE", None)
    subprocess.run([sys.executable, "-c", _COMPILE_AND_RUN], env=env,
                   check=True, timeout=300)
    assert not list(tmp_path.glob("repro-np-kernel-*"))


_WITHOUT_NUMPY = """
import sys


class BlockNumpy:
    # A meta-path finder under which `import numpy` fails.
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(name + " is blocked")
        return None


sys.meta_path.insert(0, BlockNumpy())

from unittest import mock

from repro.circuits import suite
from repro.experiments import reporting, runner
from repro.sim import npsim


def results(run):
    # A run's results: everything but its timings, its counters and
    # the name of the TDF route that ran.
    def strip(value):
        if isinstance(value, dict):
            return {key: strip(item) for key, item in value.items()
                    if key not in ("seconds", "counters", "engine")}
        if isinstance(value, list):
            return [strip(item) for item in value]
        return value
    return strip(reporting.run_to_dict(run))


assert npsim.kernel_unavailable_reason() is None
run = runner.run_circuit(suite.profile("s27"), seed=1, delay=True)
assert run.counters["np_passes"] > 0
assert "numpy" not in sys.modules
with mock.patch.object(npsim, "kernel_unavailable_reason",
                       lambda circuit=None: "kernel disabled"):
    reference = runner.run_circuit(suite.profile("s27"), seed=1,
                                   delay=True)
assert reference.counters["np_passes"] == 0
assert results(run) == results(reference)
"""


def test_kernel_runs_without_numpy():
    """With numpy made unimportable, the kernel loads and a whole
    paper-table job with delay grading runs its passes on it, with the
    big-int configuration's results, and never imports numpy."""
    if npsim.kernel_unavailable_reason() is not None:
        pytest.skip(npsim.kernel_unavailable_reason())
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY], env=env,
                   check=True, timeout=300)
