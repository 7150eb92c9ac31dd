"""Shared benchmark fixtures.

The full experiment suite is run once per pytest session and shared by
every ``bench_table*`` file; each bench then times its table assembly
and prints the regenerated rows (compare them against the paper's
tables -- see EXPERIMENTS.md for the recorded side-by-side).

The suite runs on the default simulation path: the C kernel when
numpy, cffi and a C compiler are present, big-int words otherwise.

Set ``REPRO_BENCH_FULL=1`` to run all reproduced circuits instead of
the quick subset (slower by an order of magnitude).
"""

from __future__ import annotations

import os

import pytest

from repro.circuits import suite as suite_mod
from repro.experiments import run_suite


def pytest_addoption(parser):
    parser.addoption("--repro-full", action="store_true", default=False,
                     help="run the full circuit suite in benches")


@pytest.fixture(scope="session")
def suite_runs(request):
    """All per-circuit experiment results (computed once)."""
    full = (request.config.getoption("--repro-full")
            or os.environ.get("REPRO_BENCH_FULL") == "1")
    profiles = suite_mod.suite(quick=not full)
    return run_suite(profiles, seed=1, delay=True, verbose=True)
