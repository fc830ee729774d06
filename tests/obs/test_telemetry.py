"""Telemetry acceptance tests.

Two of the instrumentation subsystem's hard requirements live here:

* **Fig. 4 fidelity** — the gate participation probabilities recorded
  from a live SACGA run must match the analytic eqn (2)-(4) values to
  1e-12 (the telemetry reads the same ``CompetitionGate`` the optimizer
  applies, at the same annealing step).
* **Zero registry calls on the hot loop** — all instrument handles are
  resolved at wiring time; after construction, neither the optimizer nor
  the telemetry callback may call back into the registry (locked in with
  counting stubs, for both the enabled and the disabled path).
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.kernels import kernel_call_counts
from repro.core.partitions import PartitionGrid
from repro.core.sacga import SACGA, SACGAConfig
from repro.obs.exporters import read_telemetry_csv, save_telemetry_csv
from repro.obs.registry import MetricsRegistry, NullMetrics
from repro.obs.spans import SpanTracer
from repro.obs.telemetry import TelemetryCallback, gate_probability_curves
from repro.problems.synthetic import ClusteredFeasibility

POP = 16
GENS = 12
SEED = 7


def instrumented_sacga(registry, tracer=None):
    algo = SACGA(
        ClusteredFeasibility(n_var=4),
        PartitionGrid(axis=1, low=0.0, high=1.0, n_partitions=4),
        population_size=POP,
        seed=SEED,
        config=SACGAConfig(phase1_max_iterations=2),
        metrics=registry,
        tracer=tracer,
    )
    telemetry = TelemetryCallback(
        algo, registry, kernel_counts=kernel_call_counts
    )
    algo.add_callback(telemetry)
    return algo, telemetry


# --------------------------------------------------- Fig. 4 reproduction


class TestGateProbabilityFidelity:
    def test_recorded_curves_match_analytic_equations_to_1e12(self):
        registry = MetricsRegistry()
        algo, telemetry = instrumented_sacga(registry, tracer=SpanTracer())
        result = algo.run(GENS)

        gen_t = result.metadata["gen_t"]
        span = result.metadata["span"]
        assert span > 0, "run must reach Phase II for this test to bite"
        # The same construction the optimizer used at the phase boundary.
        gate = algo._make_gate(span)

        curves = gate_probability_curves(telemetry.samples)
        assert set(curves) == set(range(1, algo.config.n_per_partition + 1))
        n_checked = 0
        for i, points in curves.items():
            for generation, recorded in points:
                step = generation - gen_t
                assert step >= 1
                assert abs(recorded - gate.probability(i, step)) < 1e-12
                n_checked += 1
        # One sample per Phase-II generation per cost index.
        assert n_checked == span * algo.config.n_per_partition

    def test_recorded_temperature_matches_schedule(self):
        registry = MetricsRegistry()
        algo, telemetry = instrumented_sacga(registry)
        result = algo.run(GENS)
        gen_t = result.metadata["gen_t"]
        gate = algo._make_gate(result.metadata["span"])
        temps = [
            (g, v) for g, name, v in telemetry.samples if name == "temperature"
        ]
        assert temps
        for generation, recorded in temps:
            assert abs(recorded - gate.schedule.temperature(generation - gen_t)) < 1e-12

    def test_gate_counters_are_consistent(self):
        registry = MetricsRegistry()
        algo, _ = instrumented_sacga(registry)
        algo.run(GENS)
        considered = registry.get("repro_gate_considered_total").value
        exposed = registry.get("repro_gate_exposed_total").value
        rejected = registry.get("repro_gate_rejected_total").value
        assert considered > 0
        assert exposed + rejected == pytest.approx(considered)


def test_kernel_calls_counted_per_function():
    registry = MetricsRegistry()
    algo, telemetry = instrumented_sacga(registry)
    algo.run(GENS)
    (samples,) = [
        samples
        for name, _, _, samples in registry.collect()
        if name == "repro_kernel_calls_total"
    ]
    by_fn = {labels["fn"]: counter.value for labels, counter in samples}
    assert all(set(labels) == {"fn"} for labels, _ in samples)
    assert by_fn["local_rank_and_crowd"] > 0
    assert by_fn["constrained_fronts"] > 0
    assert sum(v for g, n, v in telemetry.samples if n == "kernel_calls") == sum(
        by_fn.values()
    )


# ------------------------------------------- hot-loop registry isolation


class CountingRegistry(MetricsRegistry):
    """Real registry that counts instrument lookups."""

    def __init__(self):
        super().__init__()
        self.lookups = 0

    def _register(self, *args, **kwargs):
        self.lookups += 1
        return super()._register(*args, **kwargs)


class CountingNullMetrics(NullMetrics):
    """Disabled registry that counts instrument lookups."""

    def __init__(self):
        self.lookups = 0

    def counter(self, *args, **kwargs):
        self.lookups += 1
        return super().counter(*args, **kwargs)

    def gauge(self, *args, **kwargs):
        self.lookups += 1
        return super().gauge(*args, **kwargs)

    def histogram(self, *args, **kwargs):
        self.lookups += 1
        return super().histogram(*args, **kwargs)


class TestHotLoopRegistryIsolation:
    def test_enabled_path_resolves_handles_only_at_wiring_time(self):
        registry = CountingRegistry()
        algo, _ = instrumented_sacga(registry, tracer=SpanTracer())
        wiring_lookups = registry.lookups
        assert wiring_lookups > 0
        algo.run(GENS)
        assert registry.lookups == wiring_lookups, (
            "the hot loop called back into MetricsRegistry"
        )

    def test_disabled_path_makes_zero_registry_calls_during_run(self):
        stub = CountingNullMetrics()
        algo, _ = instrumented_sacga(stub)
        wiring_lookups = stub.lookups
        algo.run(GENS)
        assert stub.lookups == wiring_lookups

    def test_disabled_metrics_record_nothing(self):
        stub = CountingNullMetrics()
        algo, telemetry = instrumented_sacga(stub)
        algo.run(5)
        assert list(stub.collect()) == []
        # The tidy sample table still works without a real registry.
        assert telemetry.samples


# ------------------------------------------------ degenerate populations


class _FakeOptimizer:
    def __init__(self):
        self.backend = SimpleNamespace(
            stats=SimpleNamespace(cache_hits=0, cache_misses=0, eval_time=0.0)
        )
        self._n_evaluations = 0
        self._loop_state = None


def _population(size, n_feasible=0):
    feasible = np.zeros(size, dtype=bool)
    feasible[:n_feasible] = True
    return SimpleNamespace(
        size=size, feasible=feasible, rank=np.zeros(size, dtype=int)
    )


class TestDegeneratePopulations:
    def test_empty_population_yields_null_ratio_never_nan(self, tmp_path):
        telemetry = TelemetryCallback(_FakeOptimizer(), MetricsRegistry())
        telemetry(0, _population(0))
        assert telemetry.last_sample["feasible_ratio"] is None
        path = save_telemetry_csv(telemetry.samples, tmp_path / "t.csv")
        assert "nan" not in path.read_text(encoding="utf-8").lower()
        ratios = [
            v for _, name, v in read_telemetry_csv(path)
            if name == "feasible_ratio"
        ]
        assert ratios == [None]

    def test_zero_feasible_population_is_ratio_zero(self):
        telemetry = TelemetryCallback(_FakeOptimizer(), MetricsRegistry())
        telemetry(1, _population(8, n_feasible=0))
        assert telemetry.last_sample["feasible_ratio"] == 0.0
        assert telemetry.last_sample["feasible_count"] == 0.0

    def test_gen_zero_with_no_loop_state_is_tolerated(self):
        registry = MetricsRegistry()
        telemetry = TelemetryCallback(_FakeOptimizer(), registry)
        telemetry(0, _population(4, n_feasible=2))
        assert telemetry.last_sample["feasible_ratio"] == 0.5
        assert "temperature" not in telemetry.last_sample
