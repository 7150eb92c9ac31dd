"""The cross-process C-kernel cache (``__pycache__`` beside
``kernel.c``, or ``$REPRO_KERNEL_CACHE``) and the kernel build."""

import errno
import os
import shlex
import shutil
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


def _assert_kernel_runs():
    """A fresh circuit runs its passes on the loaded kernel, with the
    reference's results."""
    net = synth.generate("cache", 4, 3, 5, 30, seed=1)
    faults = FaultSet.collapsed(net)
    circuit = CompiledCircuit(net)
    assert circuit.array_backend is not None
    vectors = random_gen.random_sequence(circuit, 8, seed=1)
    sim = FaultSimulator(circuit, faults)
    reference = CompiledCircuit(net, _reference=True)
    assert sim.detect(vectors, None) == \
        FaultSimulator(reference, faults).detect(vectors, None)
    assert sim.counters.np_passes > 0


@pytest.fixture
def kernel_copy(monkeypatch, tmp_path):
    """A virgin kernel state reading a copy of kernel.c under
    ``tmp_path``, with the default cache in force and build directories
    made under ``tmp_path / "tmp"``: a load publishes into
    ``tmp_path / "__pycache__"`` (returned), never into the real tree.
    """
    if npsim.kernel_unavailable_reason() is not None:
        pytest.skip(npsim.kernel_unavailable_reason())
    shutil.copy(npsim._KERNEL_PATH, tmp_path / "kernel.c")
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(npsim, "_KERNEL_PATH", str(tmp_path / "kernel.c"))
    monkeypatch.setattr(npsim.tempfile, "tempdir", str(tmp_path / "tmp"))
    monkeypatch.delenv("REPRO_KERNEL_CACHE", raising=False)
    _reset_kernel_state(monkeypatch)
    yield tmp_path / "__pycache__"
    assert not list((tmp_path / "tmp").iterdir())


def test_cache_defaults_to_pycache_beside_the_source(monkeypatch,
                                                     tmp_path):
    """Unset, ``$REPRO_KERNEL_CACHE`` means the ``__pycache__``
    directory beside kernel.c; set, it holds the same file name."""
    source = npsim._kernel_source()
    monkeypatch.delenv("REPRO_KERNEL_CACHE", raising=False)
    default = npsim._kernel_cache_path(source)
    assert os.path.dirname(default) == os.path.join(
        os.path.dirname(npsim._KERNEL_PATH), "__pycache__")
    name = os.path.basename(default)
    assert name.startswith("repro_kernel-") and name.endswith(".so")
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    assert npsim._kernel_cache_path(source) == str(tmp_path / name)


def test_first_load_publishes_beside_the_source(kernel_copy,
                                                monkeypatch):
    """The first load publishes into ``__pycache__`` beside kernel.c,
    and a later process loads that build without a compiler."""
    assert npsim._load_kernel() is not None
    published = npsim._kernel_cache_path(npsim._kernel_source())
    assert [str(p) for p in kernel_copy.iterdir()] == [published]
    _reset_kernel_state(monkeypatch)
    monkeypatch.setattr(npsim, "_find_cc", lambda: None)
    assert npsim._load_kernel() is not None
    assert npsim.kernel_unavailable_reason() is None
    _assert_kernel_runs()


def test_corrupt_build_is_replaced(kernel_copy):
    """A file under the key that does not load is rebuilt and
    replaced, and the kernel runs."""
    kernel_copy.mkdir()
    published = npsim._kernel_cache_path(npsim._kernel_source())
    with open(published, "wb") as handle:
        handle.write(b"not a shared object\n" * 64)
    assert npsim._load_kernel() is not None
    with open(published, "rb") as handle:
        assert handle.read(4) == b"\x7fELF"
    assert [str(p) for p in kernel_copy.iterdir()] == [published]
    _assert_kernel_runs()


def test_unwritable_cache_directory_still_loads(kernel_copy):
    """A regular file where ``__pycache__`` should be: the kernel
    compiles and runs, nothing is published and nothing is left."""
    kernel_copy.write_bytes(b"in the way")
    assert npsim._load_kernel() is not None
    _assert_kernel_runs()
    assert kernel_copy.read_bytes() == b"in the way"
    assert sorted(p.name for p in kernel_copy.parent.iterdir()) == \
        ["__pycache__", "kernel.c", "tmp"]


def test_failed_publish_leaves_no_temporary_copy(kernel_copy,
                                                 monkeypatch):
    def no_space(src, dst):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(npsim.os, "replace", no_space)
    assert npsim._load_kernel() is not None
    assert not list(kernel_copy.iterdir())
    _assert_kernel_runs()


@pytest.mark.parametrize("program", ["name", "path"])
def test_cc_with_arguments_builds_the_kernel(kernel_copy, monkeypatch,
                                             program):
    """``$CC`` is split into words: a program and its arguments."""
    gcc = shutil.which("gcc") or pytest.skip("no gcc on $PATH")
    monkeypatch.setenv(
        "CC", ("gcc" if program == "name" else shlex.quote(gcc))
        + " -std=c99")
    assert npsim._load_kernel() is not None
    assert npsim.kernel_unavailable_reason() is None
    _assert_kernel_runs()


@pytest.mark.parametrize("cc", ["no-such-cc -std=c99", 'gcc "-std=c99'],
                         ids=["no-program", "unbalanced-quote"])
def test_cc_first_word_names_no_program(kernel_copy, monkeypatch, cc):
    monkeypatch.setenv("CC", cc)
    assert npsim._load_kernel() is None
    assert npsim.kernel_unavailable_reason() == \
        "no C compiler found (set $CC)"


_FAILING_CC = """#!/bin/sh
for i in 1 2 3 4 5 6 7 8; do echo "noise $i" >&2; done
printf '%02000d\\n' 0 >&2
echo "args: $*" >&2
echo "kernel.c:12: error: something specific went wrong" >&2
exit 1
"""


def test_failed_compile_reports_the_compiler_message(kernel_copy,
                                                     monkeypatch,
                                                     tmp_path):
    """The reason keeps the compiler's last lines, bounded in length,
    with kernel.c named instead of the deleted build copy; ``$CC``'s
    extra words reach the compiler first."""
    script = tmp_path / "failing-cc"
    script.write_text(_FAILING_CC)
    script.chmod(0o755)
    monkeypatch.setenv("CC", f"{shlex.quote(str(script))} -DREPRO_X")
    assert npsim._load_kernel() is None
    reason = npsim.kernel_unavailable_reason()
    head = f"kernel build failed: {script} exited with status 1:\n"
    assert reason.startswith(head)
    assert len(reason) <= len(head) + 600
    lines = reason[len(head):].splitlines()
    assert lines[-1] == "kernel.c:12: error: something specific went wrong"
    assert lines[-2].startswith("args: -DREPRO_X -O2 -shared -fPIC -o ")
    assert lines[-2].endswith(" " + npsim._KERNEL_PATH)
    assert "noise" not in reason


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


def _cold_env(tmp_path):
    """This process's environment with ``repro`` importable, and empty
    ``$TMPDIR`` and ``$REPRO_KERNEL_CACHE`` directories under
    ``tmp_path``: a process started with it compiles the kernel."""
    tmp, cache = tmp_path / "tmp", tmp_path / "cache"
    tmp.mkdir()
    cache.mkdir()
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, TMPDIR=str(tmp), REPRO_KERNEL_CACHE=str(cache))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def test_compile_leaves_no_build_directory(tmp_path):
    """A process that compiles the kernel (its cache directory is
    empty) publishes one build, removes its build directory once the
    library is loaded, and the kernel still runs."""
    if npsim.kernel_unavailable_reason() is not None:
        pytest.skip(npsim.kernel_unavailable_reason())
    env = _cold_env(tmp_path)
    subprocess.run([sys.executable, "-c", _COMPILE_AND_RUN], env=env,
                   check=True, timeout=300)
    assert len(list((tmp_path / "cache").glob("repro_kernel-*.so"))) == 1
    assert not list((tmp_path / "cache").glob("*.tmp-*"))
    assert not list((tmp_path / "tmp").glob("repro-np-kernel-*"))


def test_concurrent_first_loads_publish_one_build(tmp_path):
    """Processes that compile at once each run the kernel, and their
    atomic publishes leave one build and no partial copy."""
    if npsim.kernel_unavailable_reason() is not None:
        pytest.skip(npsim.kernel_unavailable_reason())
    env = _cold_env(tmp_path)
    procs = [subprocess.Popen([sys.executable, "-c", _COMPILE_AND_RUN],
                              env=env) for _ in range(3)]
    try:
        assert [proc.wait(timeout=300) for proc in procs] == [0, 0, 0]
    finally:
        for proc in procs:
            proc.kill()
    assert len(list((tmp_path / "cache").glob("repro_kernel-*.so"))) == 1
    assert not list((tmp_path / "cache").glob("*.tmp-*"))


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
