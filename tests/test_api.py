"""Tests for the high-level API."""

import pytest

import repro
from repro import api
from repro.circuits import library


class TestWorkbench:
    def test_builds_everything(self, s27):
        wb = api.Workbench.for_netlist(s27)
        assert wb.circuit.n_nets == s27.num_nets
        assert len(wb.faults) == 32

    def test_engine_and_width_knobs(self, s27):
        """Neither knob exists: the workbench builds the one
        production configuration."""
        from repro.sim.fault_sim import FUSED_CAP
        for knob in ({"engine": "interp"}, {"width": 8}):
            with pytest.raises(TypeError):
                api.Workbench.for_netlist(s27, **knob)
        assert api.Workbench.for_netlist(s27).sim.fused_cap == FUSED_CAP

    def test_counters_property_is_sims(self, s27):
        wb = api.Workbench.for_netlist(s27)
        assert wb.counters is wb.sim.counters

    def test_bad_engine_rejected(self, s27):
        with pytest.raises(TypeError, match="engine"):
            api.Workbench.for_netlist(s27, engine="fpga")

    def test_numpy_and_auto_engines(self, s27):
        """The workbench runs its passes on the C kernel exactly when
        the kernel can serve the circuit, even a pass this small."""
        from repro.sim import npsim
        from repro.sim import values as V
        wb = api.Workbench.for_netlist(s27)
        on_kernel = npsim.kernel_unavailable_reason(wb.circuit) is None
        assert (wb.circuit.array_backend is not None) == on_kernel
        wb.sim.detect([V.vec("1010")], V.vec("010"), target=[0],
                      early_exit=False)
        assert (wb.counters.np_passes > 0) == on_kernel


class TestCompactTests:
    def test_seqgen_arm(self, s27):
        res = repro.compact_tests(s27, seed=1, t0_length=40)
        assert res.final_detected
        assert res.compacted_set is not None

    def test_random_arm(self, s27):
        res = repro.compact_tests(s27, seed=1, t0_source="random",
                                  t0_length=60)
        assert res.t0_length == 60

    def test_explicit_t0(self, s27_bench, s27_comb):
        from repro.sim import values as V
        t0 = [V.vec("1010")] * 5
        res = repro.compact_tests(s27_bench.netlist, t0=t0,
                                  comb_tests=s27_comb.tests,
                                  workbench=s27_bench)
        assert res.t0_length == 5

    def test_bad_source(self, s27):
        with pytest.raises(ValueError, match="unknown t0_source"):
            repro.compact_tests(s27, t0_source="magic")

    def test_workbench_reuse(self, s27_bench, s27_comb):
        res = repro.compact_tests(s27_bench.netlist, seed=2,
                                  t0_length=20,
                                  comb_tests=s27_comb.tests,
                                  workbench=s27_bench)
        assert res.added_tests >= 0


class TestBaselines:
    def test_static_baseline(self, s27):
        result = repro.baseline_static(s27, seed=1)
        assert result.stats.final_cycles <= result.stats.initial_cycles

    def test_dynamic_baseline(self, s27):
        result = repro.baseline_dynamic(s27, seed=1)
        assert len(result.test_set) >= 1

    def test_generate_comb_set(self, s27):
        result = repro.generate_comb_set(s27, seed=1)
        assert result.detected
        assert len(result.tests) >= 1


class TestPackage:
    def test_version(self):
        assert repro.__version__

    def test_public_names(self):
        for name in repro.__all__:
            assert hasattr(repro, name)
