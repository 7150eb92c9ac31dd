"""Experiment harness: suite runners and paper-table regeneration.

Two execution layers:

* :mod:`~repro.experiments.runner` -- simple serial in-process runs;
* :mod:`~repro.experiments.harness` -- resilient campaigns with worker
  isolation, per-job timeouts, stall detection, retries and
  checkpoint-resume.

Supporting modules:

* :mod:`~repro.experiments.store` -- the self-verifying run store
  (CRC-enveloped JSONL, quarantine-and-repair loading,
  :func:`doctor`);
* :mod:`~repro.experiments.supervision` -- in-worker heartbeats, phase
  hooks and scoped chaos directives.
"""

from .harness import (HarnessConfig, JobRecord, JobSpec, RunStore,
                      SuiteOutcome, run_jobs, run_suite_resilient)
from .reporting import (Table, atomic_write_text, dump_json,
                        engine_counters_table, render_all,
                        run_from_dict, run_to_dict)
from .runner import (ArmResult, CircuitRun, resolve_profiles, run_circuit,
                     run_circuit_by_name, run_suite)
from .store import (CorruptLine, DoctorReport, decode_line, doctor,
                    encode_line, load_jsonl)
from .supervision import (ChaosDirective, ChaosError, ProgressReporter,
                          WorkerHooks, chaos_from_env, parse_chaos)
from .tables import (all_tables, paper_comparison, table1, table2, table3,
                     table4, table5, table_atspeed_coverage, table_power)

__all__ = [
    "Table", "atomic_write_text", "dump_json", "engine_counters_table",
    "render_all", "run_to_dict", "run_from_dict",
    "ArmResult", "CircuitRun", "resolve_profiles", "run_circuit",
    "run_circuit_by_name", "run_suite",
    "HarnessConfig", "JobRecord", "JobSpec", "RunStore", "SuiteOutcome",
    "run_jobs", "run_suite_resilient",
    "CorruptLine", "DoctorReport", "decode_line", "doctor",
    "encode_line", "load_jsonl",
    "ChaosDirective", "ChaosError", "ProgressReporter", "WorkerHooks",
    "chaos_from_env", "parse_chaos",
    "all_tables", "paper_comparison", "table1", "table2", "table3",
    "table4", "table5", "table_atspeed_coverage", "table_power",
]
