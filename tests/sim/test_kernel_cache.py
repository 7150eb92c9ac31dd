"""The cross-process C-kernel cache (``$REPRO_KERNEL_CACHE``) and the
kernel build."""

import os
import subprocess
import sys

import pytest

import repro
from repro.sim import npsim


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
    assert npsim._kernel_cache_path() is None


def test_path_is_keyed_on_source(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    first = npsim._kernel_cache_path()
    assert first is not None and first.startswith(str(tmp_path))
    monkeypatch.setattr(npsim, "_KERNEL_SOURCE",
                        npsim._KERNEL_SOURCE + "\n/* v2 */\n")
    assert npsim._kernel_cache_path() != first


def test_publish_then_hit_without_a_compiler(monkeypatch, tmp_path):
    """A compile publishes the .so; the next load needs no compiler."""
    if not npsim.numpy_available():
        pytest.skip("numpy not installed")
    if npsim.kernel_unavailable_reason() is not None:
        pytest.skip(npsim.kernel_unavailable_reason())
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    _reset_kernel_state(monkeypatch)
    assert npsim._load_kernel() is not None
    cached = npsim._kernel_cache_path()
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
    default = npsim._kernel_cache_path()
    monkeypatch.setenv("CC", "gcc")
    gcc = npsim._kernel_cache_path()
    monkeypatch.setenv("CC", "/opt/wrappers/asan-cc")
    wrapped = npsim._kernel_cache_path()
    assert len({default, gcc, wrapped}) == 3


def test_missing_compiler_over_populated_cache(monkeypatch, tmp_path):
    """A ``$CC`` that names no compiler reports so, even when the cache
    holds a kernel built by another compiler."""
    if not npsim.numpy_available():
        pytest.skip("numpy not installed")
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
    if not npsim.numpy_available():
        pytest.skip("numpy not installed")
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
