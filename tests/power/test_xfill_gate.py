"""Adjacent X-fill lowers shift power (arXiv:1106.2794): on s641, per
final test set, the peak shift WTM under ``adjacent`` fill is at most
that under ``random`` fill.

s641 is a circuit where the fills give different final sets; on every
quick-suite circuit they give the same ones, so the gate could not
fail there.  Each set's precondition is its own test, so the expected
failure below cannot hide a precondition that stopped holding.
"""

import pytest

from repro.circuits import suite
from repro.experiments import run_circuit

FILLS = ("random", "adjacent")

SETS = [
    "seqgen",
    "baseline4",
    pytest.param("random", marks=pytest.mark.xfail(
        strict=True,
        reason="on s641 adjacent fill raises the random-T0 arm's peak "
               "shift WTM from 123 to 124 (seed 1)")),
]


@pytest.fixture(scope="module")
def s641_runs():
    profile = suite.profile("s641")
    return {fill: run_circuit(profile, seed=1, x_fill=fill)
            for fill in FILLS}


def _final_set(run, label):
    if label == "baseline4":
        return run.baseline4.test_set
    result = run.arms[label].result
    return result.compacted_set or result.test_set


@pytest.mark.parametrize("label", ["seqgen", "baseline4", "random"])
def test_final_sets_differ(s641_runs, label):
    """Precondition of the gate: the two fills give different final
    sets."""
    random_set, adjacent_set = (_final_set(s641_runs[fill], label)
                                for fill in FILLS)
    assert list(random_set.tests) != list(adjacent_set.tests)


@pytest.mark.parametrize("label", SETS)
def test_adjacent_peak_shift_wtm_not_above_random(s641_runs, label):
    random_peak, adjacent_peak = (
        s641_runs[fill].power.sets[label].peak_shift_wtm for fill in FILLS)
    assert adjacent_peak <= random_peak
