"""One benchmark pass in a fresh interpreter.

``run.py`` starts this script once per repeat, one after another, and
reads the JSON it writes to ``--out``.  The script times the set-up a
fresh user process pays (importing the package and loading the C
kernel, which is compiled because no kernel cache is configured), makes
the workload's inputs, times one pass, and -- with ``--verify`` --
checks every output against an independent re-simulation.

It pauses after its set-up, right before its pass and right after it:
it writes a byte to ``--pause-fd`` and waits for a line on stdin, while
``run.py`` times its reference loop.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict

ROOT = Path(__file__).resolve().parents[2]


def _pause(fd: int) -> None:
    """Wait, idle, while the parent times its reference loop."""
    os.write(fd, b".")
    sys.stdin.readline()


def _load_kernel() -> str:
    """Load the C pass kernel the way the first simulation would."""
    try:
        from repro.sim.npsim import kernel_unavailable_reason
    except ImportError:
        return "absent"
    reason = kernel_unavailable_reason()
    return "loaded" if reason is None else reason


def _measure(args: argparse.Namespace) -> Dict[str, Any]:
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed, args.smoke)
    planned = workload.n_ops(inputs)
    out: Dict[str, Any] = {"ops": planned, "ops_failed": 0}
    tracer = installation = None
    if args.trace:
        tracer = tracing.Tracer()
        installation = tracing.install(tracer)
    ops = workloads.Ops()
    _pause(args.pause_fd)
    started = time.perf_counter()
    try:
        outcome = workload.run(inputs, ops)
    except Exception:  # an operation failed: count it, report it
        out["ops_failed"] = planned - ops.done
        out["error"] = traceback.format_exc()
        return out
    out["wall_s"] = time.perf_counter() - started
    _pause(args.pause_fd)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None and installation is not None:
        tracer.active = False
        installation.remove()
        out["spans"] = {name: {"self_s": tracer.self_s[name],
                               "calls": tracer.calls[name]}
                        for name in tracer.calls}
        out["events"] = tracer.events
        out["dropped_events"] = tracer.dropped_events
        out["absent"] = installation.absent
    out["quality"] = outcome.quality
    out["counters"] = outcome.counters
    out["digest"] = outcome.digest()
    if args.verify:
        try:
            out["problems"] = outcome.check()
        except Exception:  # a failing check is a finding, not a crash
            out["problems"] = ["check raised:\n" + traceback.format_exc()]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--pause-fd", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--verify", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    # A compiler subprocess that inherited the pipe would keep it open
    # and hide this process's exit from run.py.
    os.set_inheritable(args.pause_fd, False)

    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import repro.api  # noqa: F401
    import repro.experiments.runner  # noqa: F401
    kernel = _load_kernel()
    result: Dict[str, Any] = {"setup_s": time.perf_counter() - started,
                              "kernel": kernel}
    _pause(args.pause_fd)
    if not args.setup_only:
        result.update(_measure(args))
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
