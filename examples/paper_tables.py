#!/usr/bin/env python3
"""Scenario: regenerate the paper's tables on a chosen circuit set.

The machinery of ``repro-compact tables``, as a script: runs both
arms of the proposed procedure plus both baselines and prints Tables
1-5 and the at-speed extension table.

Run with::

    python examples/paper_tables.py              # two small circuits
    python examples/paper_tables.py b01 b06 s298 # your selection
"""

import sys

from repro.circuits import suite
from repro.experiments import all_tables, render_all, run_suite


def main() -> None:
    names = sys.argv[1:] or ["s27", "b02"]
    profiles = [suite.profile(name) for name in names]
    print(f"running circuits: {', '.join(names)} "
          f"(this fault-simulates everything twice; be patient)\n")
    runs = run_suite(profiles, seed=1, delay=True,
                     verbose=True)
    print()
    print(render_all(all_tables(runs, with_delay=True)))


if __name__ == "__main__":
    main()
