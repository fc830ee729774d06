"""Backend equivalence, cache accounting, and fallback behavior.

The evaluation backend layer must be invisible to the optimizer: for a
fixed seed, every backend has to produce bit-identical Evaluation arrays
and bit-identical final fronts.  These tests are the contract that every
future scaling PR (sharding, async campaigns) must keep green.
"""

import numpy as np
import pytest

from repro.circuits.sizing_problem import IntegratorSizingProblem
from repro.core.evaluation import (
    BACKEND_NAMES,
    CachedBackend,
    ProcessPoolBackend,
    SerialBackend,
    SharedMemoryBackend,
    ThreadPoolBackend,
    default_workers,
    make_backend,
)
from repro.core.mesacga import MESACGA
from repro.core.nsga2 import NSGA2
from repro.core.sacga import SACGA, SACGAConfig
from repro.problems.synthetic import ClusteredFeasibility

POP = 16
GENS = 4
SMOKE_CONFIG = SACGAConfig(phase1_max_iterations=2)


def synthetic_problem():
    return ClusteredFeasibility(n_var=4)


def integrator_problem():
    return IntegratorSizingProblem(n_mc=2)


def make_optimizer(name, problem, seed, backend):
    """The three compared algorithms at smoke scale on *problem*.

    ClusteredFeasibility's f2 = 1 - x0 spans [0, 1]; the integrator's f2
    deficit spans [0, 5 pF] — both partition cleanly on axis 1.
    """
    high = 5.0e-12 if isinstance(problem, IntegratorSizingProblem) else 1.0
    if name == "nsga2":
        return NSGA2(problem, population_size=POP, seed=seed, backend=backend)
    if name == "sacga":
        from repro.core.partitions import PartitionGrid

        grid = PartitionGrid(axis=1, low=0.0, high=high, n_partitions=4)
        return SACGA(
            problem, grid, population_size=POP, seed=seed,
            config=SMOKE_CONFIG, backend=backend,
        )
    if name == "mesacga":
        return MESACGA(
            problem, axis=1, low=0.0, high=high,
            partition_schedule=(4, 2, 1), population_size=POP, seed=seed,
            config=SMOKE_CONFIG, backend=backend,
        )
    raise KeyError(name)


def assert_evaluations_equal(a, b):
    np.testing.assert_array_equal(a.objectives, b.objectives)
    np.testing.assert_array_equal(a.constraints, b.constraints)
    np.testing.assert_array_equal(a.violation, b.violation)


class FailingPoolBackend(ThreadPoolBackend):
    """A pool backend whose executor always refuses work."""

    class _BrokenExecutor:
        def submit(self, *args, **kwargs):
            raise RuntimeError("pool is broken")

        def shutdown(self, wait=True):
            pass

    def _make_executor(self):
        return self._BrokenExecutor()

    def _chunks(self, x):
        # Always >= 2 chunks so single-chunk short-circuiting cannot hide
        # the broken executor.
        return [x[: max(1, x.shape[0] // 2)], x[max(1, x.shape[0] // 2):]]


# --------------------------------------------------------- raw evaluation


@pytest.mark.parametrize("problem_factory", [synthetic_problem, integrator_problem])
@pytest.mark.parametrize("n_workers", [1, 3])
def test_thread_backend_matches_serial(problem_factory, n_workers):
    problem = problem_factory()
    x = problem.sample(23, np.random.default_rng(7))
    serial = SerialBackend().evaluate(problem, x)
    with ThreadPoolBackend(n_workers=n_workers) as backend:
        threaded = backend.evaluate(problem, x)
    assert_evaluations_equal(serial, threaded)


@pytest.mark.parametrize("problem_factory", [synthetic_problem, integrator_problem])
def test_process_backend_matches_serial(problem_factory):
    problem = problem_factory()
    x = problem.sample(17, np.random.default_rng(11))
    serial = SerialBackend().evaluate(problem, x)
    with ProcessPoolBackend(n_workers=2) as backend:
        pooled = backend.evaluate(problem, x)
    assert_evaluations_equal(serial, pooled)


def test_process_backend_mirrors_problem_counter():
    problem = synthetic_problem()
    x = problem.sample(10, np.random.default_rng(0))
    with ProcessPoolBackend(n_workers=2) as backend:
        backend.evaluate(problem, x)
    assert problem.n_evaluations == 10


@pytest.mark.parametrize("problem_factory", [synthetic_problem, integrator_problem])
def test_shm_backend_matches_serial(problem_factory):
    problem = problem_factory()
    x = problem.sample(17, np.random.default_rng(11))
    serial = SerialBackend().evaluate(problem, x)
    with SharedMemoryBackend(n_workers=2) as backend:
        pooled = backend.evaluate(problem, x)
    assert_evaluations_equal(serial, pooled)
    assert backend.stats.fallbacks == 0


def test_shm_backend_mirrors_problem_counter_and_accounts_bytes():
    problem = synthetic_problem()
    x = problem.sample(10, np.random.default_rng(0))
    with SharedMemoryBackend(n_workers=2) as backend:
        backend.evaluate(problem, x)
        assert problem.n_evaluations == 10
        stats = backend.stats
        # Genome in + objectives/constraints/violation out, all float64.
        out_cols = problem.n_obj + problem.n_con + 1
        assert stats.bytes_shared == 10 * problem.n_var * 8 + 10 * out_cols * 8
        # Only the row-slice descriptors cross the pickle boundary.
        assert 0 < stats.bytes_pickled < x.nbytes


def test_shm_backend_chunk_size_override_preserves_results():
    problem = synthetic_problem()
    x = problem.sample(19, np.random.default_rng(3))
    serial = SerialBackend().evaluate(problem, x)
    with SharedMemoryBackend(n_workers=2, chunk_size=4) as backend:
        chunked = backend.evaluate(problem, x)
    assert_evaluations_equal(serial, chunked)


def test_chunk_size_override_preserves_results():
    problem = synthetic_problem()
    x = problem.sample(19, np.random.default_rng(3))
    serial = SerialBackend().evaluate(problem, x)
    with ThreadPoolBackend(n_workers=2, chunk_size=4) as backend:
        chunked = backend.evaluate(problem, x)
    assert_evaluations_equal(serial, chunked)


def test_empty_batch_supported():
    problem = synthetic_problem()
    x = np.zeros((0, problem.n_var))
    for backend in (SerialBackend(), ThreadPoolBackend(n_workers=2), CachedBackend()):
        with backend:
            ev = backend.evaluate(problem, x)
        assert ev.n_points == 0


# ------------------------------------------------------- full-run fronts


@pytest.mark.parametrize("algo", ["nsga2", "sacga", "mesacga"])
def test_thread_run_front_identical_on_synthetic(algo):
    problem = synthetic_problem()
    serial = make_optimizer(algo, synthetic_problem(), 42, SerialBackend()).run(GENS)
    with ThreadPoolBackend(n_workers=3) as backend:
        threaded = make_optimizer(algo, problem, 42, backend).run(GENS)
    np.testing.assert_array_equal(serial.front_objectives, threaded.front_objectives)
    np.testing.assert_array_equal(serial.front_x, threaded.front_x)
    assert serial.n_evaluations == threaded.n_evaluations


@pytest.mark.parametrize("algo", ["nsga2", "sacga", "mesacga"])
def test_process_run_front_identical_on_synthetic(algo):
    serial = make_optimizer(algo, synthetic_problem(), 42, SerialBackend()).run(GENS)
    with ProcessPoolBackend(n_workers=2) as backend:
        pooled = make_optimizer(algo, synthetic_problem(), 42, backend).run(GENS)
    np.testing.assert_array_equal(serial.front_objectives, pooled.front_objectives)
    np.testing.assert_array_equal(serial.front_x, pooled.front_x)


@pytest.mark.parametrize("algo", ["nsga2", "sacga", "mesacga"])
def test_thread_run_front_identical_on_integrator(algo):
    serial = make_optimizer(algo, integrator_problem(), 9, SerialBackend()).run(3)
    with ThreadPoolBackend(n_workers=2) as backend:
        threaded = make_optimizer(algo, integrator_problem(), 9, backend).run(3)
    np.testing.assert_array_equal(serial.front_objectives, threaded.front_objectives)
    np.testing.assert_array_equal(serial.front_x, threaded.front_x)


def test_process_run_front_identical_on_integrator():
    serial = make_optimizer("nsga2", integrator_problem(), 9, SerialBackend()).run(2)
    with ProcessPoolBackend(n_workers=2) as backend:
        pooled = make_optimizer("nsga2", integrator_problem(), 9, backend).run(2)
    np.testing.assert_array_equal(serial.front_objectives, pooled.front_objectives)


@pytest.mark.parametrize("algo", ["nsga2", "sacga", "mesacga"])
def test_shm_run_front_identical_on_synthetic(algo):
    serial = make_optimizer(algo, synthetic_problem(), 42, SerialBackend()).run(GENS)
    with SharedMemoryBackend(n_workers=2) as backend:
        pooled = make_optimizer(algo, synthetic_problem(), 42, backend).run(GENS)
    np.testing.assert_array_equal(serial.front_objectives, pooled.front_objectives)
    np.testing.assert_array_equal(serial.front_x, pooled.front_x)
    assert serial.n_evaluations == pooled.n_evaluations


def test_shm_run_front_identical_on_integrator():
    serial = make_optimizer("nsga2", integrator_problem(), 9, SerialBackend()).run(2)
    with SharedMemoryBackend(n_workers=2) as backend:
        pooled = make_optimizer("nsga2", integrator_problem(), 9, backend).run(2)
    np.testing.assert_array_equal(serial.front_objectives, pooled.front_objectives)


def test_cached_run_front_identical_and_hits():
    serial = make_optimizer("nsga2", synthetic_problem(), 4, SerialBackend()).run(GENS)
    cached_backend = CachedBackend(max_size=10_000)
    cached = make_optimizer("nsga2", synthetic_problem(), 4, cached_backend).run(GENS)
    np.testing.assert_array_equal(serial.front_objectives, cached.front_objectives)
    stats = cached.metadata["backend_stats"]
    assert stats["cache_misses"] > 0
    assert stats["n_evaluations"] == stats["cache_misses"]


# ----------------------------------------------------------------- cache


def test_cache_hit_miss_accounting():
    problem = synthetic_problem()
    x = problem.sample(8, np.random.default_rng(1))
    backend = CachedBackend(max_size=64)
    first = backend.evaluate(problem, x)
    assert backend.stats.cache_misses == 8
    assert backend.stats.cache_hits == 0
    second = backend.evaluate(problem, x)
    assert backend.stats.cache_misses == 8
    assert backend.stats.cache_hits == 8
    assert_evaluations_equal(first, second)
    # Only the misses reached the problem.
    assert problem.n_evaluations == 8


def test_cache_counts_duplicates_within_one_batch():
    problem = synthetic_problem()
    x = problem.sample(5, np.random.default_rng(2))
    batch = np.vstack([x, x[:3]])
    backend = CachedBackend(max_size=64)
    ev = backend.evaluate(problem, batch)
    assert backend.stats.cache_misses == 5
    assert backend.stats.cache_hits == 3
    assert problem.n_evaluations == 5
    assert_evaluations_equal(ev.subset(np.arange(5, 8)), ev.subset(np.arange(3)))


def test_cache_results_match_direct_evaluation_with_duplicates():
    problem = synthetic_problem()
    x = problem.sample(6, np.random.default_rng(8))
    batch = np.vstack([x, x[::-1]])
    direct = problem.evaluate(batch)
    cached = CachedBackend(max_size=64).evaluate(synthetic_problem(), batch)
    assert_evaluations_equal(direct, cached)


def test_cache_key_normalizes_negative_zero():
    """Regression: -0.0 and +0.0 are the same design point but have
    different raw bytes.  Before the keys were canonicalized, a row that
    clipped to -0.0 on one path and +0.0 on the other missed the cache
    and was re-evaluated — batch and scalar paths must share hits."""
    problem = synthetic_problem()
    pos = problem.sample(3, np.random.default_rng(7))
    pos[:, 0] = 0.0
    neg = pos.copy()
    neg[:, 0] = -0.0
    assert pos.tobytes() != neg.tobytes()  # genuinely different raw bytes

    backend = CachedBackend(max_size=64)
    first = backend.evaluate(problem, pos)
    assert backend.stats.cache_misses == 3
    second = backend.evaluate(problem, neg)
    assert backend.stats.cache_hits == 3, "signed-zero rows missed the cache"
    assert backend.stats.cache_misses == 3
    assert problem.n_evaluations == 3  # the -0.0 batch never hit the problem
    assert_evaluations_equal(first, second)


def test_cache_shared_between_batch_and_scalar_paths():
    """A generation evaluated as one batch then re-requested row by row
    (and vice versa) is served entirely from cache — both paths hash the
    same canonical row bytes."""
    problem = synthetic_problem()
    x = problem.sample(6, np.random.default_rng(9))
    backend = CachedBackend(max_size=64)
    backend.evaluate(problem, x)
    assert backend.stats.n_evaluations == 6
    for i in range(x.shape[0]):
        backend.evaluate(problem, x[i : i + 1])
    assert backend.stats.cache_hits == 6
    assert backend.stats.n_evaluations == 6  # no scalar re-computation
    # And rows first seen scalar serve a later batched request.
    fresh = problem.sample(4, np.random.default_rng(10))
    backend.evaluate(problem, fresh[:1])
    backend.evaluate(problem, fresh)
    assert backend.stats.n_evaluations == 6 + 4  # row 0 reused, not recomputed
    assert backend.stats.cache_hits == 6 + 1


def test_cache_lru_eviction():
    problem = synthetic_problem()
    x = problem.sample(6, np.random.default_rng(4))
    backend = CachedBackend(max_size=4)
    backend.evaluate(problem, x)  # rows 0-1 evicted (oldest of 6 > 4)
    assert backend.stats.cache_evictions == 2
    assert backend.size == 4
    backend.evaluate(problem, x[2:])  # still resident -> all hits
    assert backend.stats.cache_hits == 4
    backend.evaluate(problem, x[:2])  # evicted rows -> misses again
    assert backend.stats.cache_misses == 6 + 2


def test_cache_lru_recency_order():
    """Touching an entry protects it from the next eviction round."""
    problem = synthetic_problem()
    x = problem.sample(4, np.random.default_rng(5))
    extra = problem.sample(2, np.random.default_rng(6))
    backend = CachedBackend(max_size=4)
    backend.evaluate(problem, x)
    backend.evaluate(problem, x[:1])  # refresh row 0
    backend.evaluate(problem, extra)  # evicts rows 1 and 2, not row 0
    misses_before = backend.stats.cache_misses
    backend.evaluate(problem, x[:1])
    assert backend.stats.cache_misses == misses_before  # row 0 survived
    backend.evaluate(problem, x[1:2])
    assert backend.stats.cache_misses == misses_before + 1  # row 1 did not


def test_cache_clear_keeps_counters():
    problem = synthetic_problem()
    backend = CachedBackend(max_size=8)
    backend.evaluate(problem, problem.sample(3, np.random.default_rng(0)))
    backend.clear()
    assert backend.size == 0
    assert backend.stats.cache_misses == 3


# -------------------------------------------------------------- fallback


def test_broken_pool_falls_back_to_serial():
    problem = synthetic_problem()
    x = problem.sample(12, np.random.default_rng(9))
    serial = SerialBackend().evaluate(problem, x)
    backend = FailingPoolBackend(n_workers=2)
    fallback = backend.evaluate(problem, x)
    assert_evaluations_equal(serial, fallback)
    assert backend.stats.fallbacks == 1
    # The pool is not retried; later batches stay serial and correct.
    again = backend.evaluate(problem, x[:5])
    assert_evaluations_equal(serial.subset(np.arange(5)), again)
    assert backend.stats.fallbacks == 1
    assert backend.stats.n_evaluations == 17


def test_unpicklable_problem_falls_back_to_serial():
    problem = synthetic_problem()
    problem.poison = lambda: None  # closures cannot cross the pickle boundary
    x = problem.sample(6, np.random.default_rng(10))
    with ProcessPoolBackend(n_workers=2) as backend:
        ev = backend.evaluate(problem, x)
    assert backend.stats.fallbacks == 1
    assert_evaluations_equal(SerialBackend().evaluate(synthetic_problem(), x), ev)


def test_unpicklable_problem_falls_back_to_serial_on_shm():
    problem = synthetic_problem()
    problem.poison = lambda: None  # the one-time problem ship must fail too
    x = problem.sample(6, np.random.default_rng(10))
    with SharedMemoryBackend(n_workers=2) as backend:
        ev = backend.evaluate(problem, x)
    assert backend.stats.fallbacks == 1
    assert backend.stats.bytes_shared == 0  # transport never engaged
    assert_evaluations_equal(SerialBackend().evaluate(synthetic_problem(), x), ev)


class FailOnPoisonRowProblem(ClusteredFeasibility):
    """Raises the first time a batch contains the poisoned marker row.

    The flag makes the failure one-shot: the chunk that carries the
    marker dies in the pool, but the serial fallback retry of the full
    batch succeeds — exactly the shape of a transient worker fault.
    """

    def __init__(self):
        super().__init__(n_var=4)
        self.tripped = False

    def evaluate_batch(self, x):
        if not self.tripped and np.any(x[:, 0] == -1.0):
            self.tripped = True
            raise RuntimeError("poisoned chunk")
        return super().evaluate_batch(x)


def test_thread_fallback_does_not_double_count_completed_chunks():
    """Regression: a thread fan-out that dies after some chunks finished
    used to leave those chunks' rows in ``problem.n_evaluations`` and
    then re-count them in the serial retry of the whole batch."""
    problem = FailOnPoisonRowProblem()
    x = problem.sample(12, np.random.default_rng(5))
    x[:, 0] = np.abs(x[:, 0])
    x[-1, 0] = -1.0  # poison lands in the final chunk
    # One worker => chunks run strictly in submission order, so the first
    # two 4-row chunks complete (and bump the counter) before the third
    # raises.
    with ThreadPoolBackend(n_workers=1, chunk_size=4) as backend:
        ev = backend.evaluate(problem, x)
    assert backend.stats.fallbacks == 1
    assert problem.tripped
    # Pre-fix this reported 20 (12 serial retry + 8 completed-chunk rows).
    assert problem.n_evaluations == 12
    assert backend.stats.n_evaluations == 12
    reference = synthetic_problem()
    assert_evaluations_equal(SerialBackend().evaluate(reference, x), ev)


def test_full_run_with_broken_pool_matches_serial():
    serial = make_optimizer("nsga2", synthetic_problem(), 13, SerialBackend()).run(GENS)
    broken = make_optimizer(
        "nsga2", synthetic_problem(), 13, FailingPoolBackend(n_workers=2)
    ).run(GENS)
    np.testing.assert_array_equal(serial.front_objectives, broken.front_objectives)
    assert broken.metadata["backend_stats"]["fallbacks"] == 1


# ---------------------------------------------------- factory & metadata


def test_make_backend_names():
    assert isinstance(make_backend(None), SerialBackend)
    assert isinstance(make_backend("serial"), SerialBackend)
    assert isinstance(make_backend("thread", workers=2), ThreadPoolBackend)
    assert isinstance(make_backend("process", workers=2), ProcessPoolBackend)
    with make_backend("shm", workers=2) as shm:
        assert isinstance(shm, SharedMemoryBackend)
        assert shm.n_workers == 2
    cached = make_backend("thread", workers=2, cache_size=100)
    assert isinstance(cached, CachedBackend)
    assert isinstance(cached.inner, ThreadPoolBackend)
    assert cached.inner.n_workers == 2
    with pytest.raises(KeyError):
        make_backend("gpu")
    assert set(BACKEND_NAMES) == {"serial", "thread", "process", "shm"}


def test_default_workers_respects_cpu_affinity(monkeypatch):
    """Containerized runs pin the process to a CPU subset; the default
    pool size must follow the affinity mask, not the host core count."""
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 64)
    assert default_workers() == 2  # affinity - 1, not cpu_count - 1

    def unavailable(pid):
        raise AttributeError("sched_getaffinity unavailable")

    monkeypatch.setattr("os.sched_getaffinity", unavailable, raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    assert default_workers() == 3  # cpu_count fallback
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {5}, raising=False)
    assert default_workers() == 1  # never below one worker


def test_cache_keys_match_per_row_reference():
    """Regression for the vectorized ``CachedBackend._keys``: the single
    whole-matrix ``tobytes`` + stride slicing must yield exactly the
    bytes the historical per-row loop produced, including -0.0
    canonicalization and non-contiguous / non-float64 inputs."""

    def reference_keys(x):
        rows = np.ascontiguousarray(x, dtype=float) + 0.0
        return [rows[i].tobytes() for i in range(rows.shape[0])]

    rng = np.random.default_rng(3)
    dense = rng.normal(size=(37, 5))
    dense[::4, 2] = -0.0
    cases = [
        dense,
        dense[::3],                      # non-contiguous row stride
        dense.T[:4].T,                   # non-contiguous column slice
        dense.astype(np.float32),        # dtype widening
        np.zeros((1, 1)),
        rng.normal(size=(2, 8))[:, ::2], # strided columns
    ]
    for case in cases:
        assert CachedBackend._keys(case) == reference_keys(case)


def test_invalid_backend_parameters():
    with pytest.raises(ValueError):
        ThreadPoolBackend(n_workers=-1)
    with pytest.raises(ValueError):
        ThreadPoolBackend(n_workers=2, chunk_size=0)
    with pytest.raises(ValueError):
        CachedBackend(max_size=0)


@pytest.mark.parametrize("name", ["thread", "process", "shm"])
def test_make_backend_rejects_zero_workers(name):
    # Regression: workers=0 used to be read as "unset" and silently ran
    # with default_workers() workers.
    with pytest.raises(ValueError, match="n_workers must be >= 1, got 0"):
        make_backend(name, workers=0)


def test_make_backend_rejects_nonpositive_cache_size():
    # Regression: cache_size=0 used to silently build an uncached
    # backend, masking a misconfigured sweep.
    for bad in (0, -1):
        with pytest.raises(ValueError, match="cache_size"):
            make_backend("serial", cache_size=bad)
    # None still means "no cache", not an error.
    assert isinstance(make_backend("serial", cache_size=None), SerialBackend)


def test_backend_stats_in_metadata_and_history():
    backend = CachedBackend(ThreadPoolBackend(n_workers=2), max_size=256)
    result = make_optimizer("nsga2", synthetic_problem(), 21, backend).run(GENS)
    desc = result.metadata["backend"]
    assert desc["name"] == "cached"
    assert desc["inner"] == {"name": "thread", "n_workers": 2, "chunk_size": None}
    stats = result.metadata["backend_stats"]
    assert stats["n_batches"] == GENS + 1
    assert stats["eval_time"] >= 0.0
    # Every history record carries *per-generation* eval wall time and
    # cache-counter deltas (not cumulative totals).
    assert all("eval_time_s" in rec.extras for rec in result.history)
    assert all(rec.extras["eval_time_s"] >= 0.0 for rec in result.history)
    total_hits = sum(rec.extras.get("cache_hits", 0) for rec in result.history)
    total_misses = sum(rec.extras.get("cache_misses", 0) for rec in result.history)
    assert total_hits + total_misses == result.n_evaluations


def test_backend_extras_are_per_generation_deltas():
    """Regression: history extras are deltas, so they sum to the totals.

    The pre-fix behaviour reported the backend's *cumulative* counters in
    every record, so summing over history overcounted by roughly a factor
    of ``len(history)``; a single generation's record also carried the
    whole run's eval time.  Deltas reconcile exactly with the final
    cumulative ``backend_stats``.
    """
    backend = CachedBackend(ThreadPoolBackend(n_workers=2), max_size=256)
    result = make_optimizer("nsga2", synthetic_problem(), 21, backend).run(GENS)
    stats = result.metadata["backend_stats"]
    hist = result.history
    assert np.isclose(
        sum(rec.extras["eval_time_s"] for rec in hist), stats["eval_time"]
    )
    assert sum(rec.extras.get("cache_hits", 0) for rec in hist) == stats["cache_hits"]
    assert (
        sum(rec.extras.get("cache_misses", 0) for rec in hist)
        == stats["cache_misses"]
    )
    # Each generation evaluates one offspring batch: no record may carry
    # more lookups than the whole run (the cumulative-reporting symptom).
    per_gen = [
        rec.extras.get("cache_hits", 0) + rec.extras.get("cache_misses", 0)
        for rec in hist
    ]
    assert all(0 <= n <= POP for n in per_gen)


def test_backend_extras_deltas_reset_between_runs():
    """A second ``run()`` must not inherit the first run's counters."""
    backend = CachedBackend(SerialBackend(), max_size=256)
    opt = make_optimizer("nsga2", synthetic_problem(), 21, backend)
    first = opt.run(GENS)
    second = opt.run(GENS)
    for result in (first, second):
        gen0 = result.history[0].extras
        lookups = gen0.get("cache_hits", 0) + gen0.get("cache_misses", 0)
        # The initial-population record covers exactly one batch of POP.
        assert lookups == POP
