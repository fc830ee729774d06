"""Same seed + same config => byte-identical serialized results.

This is the regression net under the evaluation-backend layer: if any
future change to evaluation order, chunking, or caching perturbs the
optimization trajectory, the serialized payloads stop matching at the
byte level and this file fails first.  Timing fields are stripped via
``result_to_dict(include_timing=False)`` — everything else must match
exactly.
"""

import contextlib
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.circuits.sizing_problem import IntegratorSizingProblem
from repro.core.evaluation import (
    SHM_SEGMENT_PREFIX,
    CachedBackend,
    ProcessPoolBackend,
    SerialBackend,
    SharedMemoryBackend,
    ThreadPoolBackend,
)
from repro.core.islands import IslandNSGA2
from repro.core.kernels import kernel_call_counts
from repro.core.mesacga import MESACGA
from repro.core.nsga2 import NSGA2
from repro.core.sacga import SACGA, SACGAConfig
from repro.core.partitions import PartitionGrid
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.obs.telemetry import TelemetryCallback
from repro.problems.synthetic import ClusteredFeasibility
from repro.utils.serialization import result_to_dict, save_result
from tests.core.kernel_oracles import oracle_kernels

POP = 16
GENS = 5
SEED = 1234

ALL_ALGOS = ["nsga2", "sacga", "mesacga", "islands"]


def build(name, backend=None, problem=None, metrics=None, tracer=None):
    if problem is None:
        problem = ClusteredFeasibility(n_var=4)
    high = 1.0
    if isinstance(problem, IntegratorSizingProblem):
        high = 5.0e-12
    config = SACGAConfig(phase1_max_iterations=2)
    if name == "nsga2":
        return NSGA2(
            problem, population_size=POP, seed=SEED, backend=backend,
            metrics=metrics, tracer=tracer,
        )
    if name == "sacga":
        grid = PartitionGrid(axis=1, low=0.0, high=high, n_partitions=4)
        return SACGA(
            problem, grid, population_size=POP, seed=SEED,
            config=config, backend=backend,
            metrics=metrics, tracer=tracer,
        )
    if name == "mesacga":
        return MESACGA(
            problem, axis=1, low=0.0, high=high, partition_schedule=(4, 2, 1),
            population_size=POP, seed=SEED, config=config, backend=backend,
            metrics=metrics, tracer=tracer,
        )
    if name == "islands":
        return IslandNSGA2(
            problem, population_size=POP, n_islands=2, migration_interval=2,
            seed=SEED, backend=backend,
            metrics=metrics, tracer=tracer,
        )
    raise KeyError(name)


def serialized(result):
    payload = result_to_dict(result, include_timing=False)
    return json.dumps(payload, sort_keys=True).encode()


@pytest.mark.parametrize("algo", ALL_ALGOS)
def test_two_runs_serialize_byte_identical(algo):
    blob_a = serialized(build(algo).run(GENS))
    blob_b = serialized(build(algo).run(GENS))
    assert blob_a == blob_b


@pytest.mark.parametrize("algo", ALL_ALGOS)
def test_instrumented_run_serializes_byte_identical(algo):
    """Observability is read-only: a fully instrumented run (metrics
    registry + span tracer + per-generation telemetry callback) must
    serialize byte-identically to a bare run.  This is the acceptance
    gate for the instrumentation subsystem."""
    plain = serialized(build(algo).run(GENS))
    registry = MetricsRegistry()
    algorithm = build(algo, metrics=registry, tracer=SpanTracer())
    algorithm.add_callback(
        TelemetryCallback(algorithm, registry, kernel_counts=kernel_call_counts)
    )
    instrumented = serialized(algorithm.run(GENS))
    assert instrumented == plain
    # Guard against the instrumented leg silently running uninstrumented.
    collected = {name for name, _, _, _ in registry.collect()}
    assert "repro_generation" in collected
    assert "repro_backend_batches_total" in collected


@pytest.mark.parametrize("algo", ["nsga2", "sacga"])
def test_distributed_observability_is_byte_invisible(algo, tmp_path):
    """The serve-stack observability — span export, structured logging,
    and a trace-bound run ledger — must not perturb the trajectory: a run
    wrapped the way a traced worker wraps it serializes byte-identically
    to a bare run."""
    from repro.experiments.ledger import LedgerCallback, RunLedger, read_ledger
    from repro.obs.logging import configure_logging, disable_logging, get_logger
    from repro.obs.tracing import TraceRecorder, read_trace_events

    plain = serialized(build(algo).run(GENS))
    recorder = TraceRecorder(tmp_path / "run.trace.jsonl", process="test-worker")
    ledger = RunLedger(
        tmp_path / "run.jsonl",
        bound={"trace_id": "det-trace", "job_id": "job-det", "attempt": 1},
    )
    try:
        configure_logging(path=tmp_path / "run.log", level="debug")
        algorithm = build(algo)
        algorithm.add_callback(LedgerCallback(ledger, algorithm, run_id="det"))
        with recorder.span("worker:run", trace_id="det-trace"):
            get_logger("test").info("instrumented run")
            result = algorithm.run(GENS)
    finally:
        disable_logging()
    assert serialized(result) == plain
    # Guard against the instrumented leg silently not instrumenting.
    assert read_trace_events(recorder.path)
    events = read_ledger(ledger.path)
    assert events
    assert all(e["trace_id"] == "det-trace" for e in events)


@pytest.mark.parametrize("algo", ["nsga2", "sacga", "mesacga"])
def test_serial_and_thread_backends_serialize_byte_identical(algo):
    serial_blob = serialized(build(algo, SerialBackend()).run(GENS))
    with ThreadPoolBackend(n_workers=3) as backend:
        thread_blob = serialized(build(algo, backend).run(GENS))
    # The backend echo in metadata legitimately differs; everything else
    # (fronts, history, counters) must not.
    a = json.loads(serial_blob)
    b = json.loads(thread_blob)
    for payload in (a, b):
        payload["metadata"].pop("backend")
        payload["metadata"].pop("backend_stats")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_cached_backend_serializes_identical_fronts():
    plain = json.loads(serialized(build("nsga2").run(GENS)))
    cached = json.loads(serialized(build("nsga2", CachedBackend()).run(GENS)))
    assert plain["front_objectives"] == cached["front_objectives"]
    assert plain["front_x"] == cached["front_x"]
    assert plain["n_evaluations"] == cached["n_evaluations"]


def test_saved_files_byte_identical(tmp_path):
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    save_result(build("nsga2").run(GENS), path_a, include_timing=False)
    save_result(build("nsga2").run(GENS), path_b, include_timing=False)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_include_timing_strips_wall_clock_fields():
    result = build("nsga2").run(GENS)
    with_timing = result_to_dict(result, include_timing=True)
    without = result_to_dict(result, include_timing=False)
    assert with_timing["wall_time"] > 0.0
    assert without["wall_time"] == 0.0
    assert "eval_time" in with_timing["metadata"]["backend_stats"]
    assert "eval_time" not in without["metadata"]["backend_stats"]
    assert all("eval_time_s" in rec["extras"] for rec in with_timing["history"])
    assert all("eval_time_s" not in rec["extras"] for rec in without["history"])


# --------------------------------------------------------------- golden fronts
#
# tests/core/golden_fronts.json pins sha256 hashes of the serialized runs
# captured on the pre-batch-refactor tree (before evaluate_batch /
# evaluate_one split, CachedBackend key canonicalization, and the circuit
# model routing changes).  Matching these hashes proves the refactor is
# byte-invisible to every optimizer on both a synthetic and the real
# sizing problem.  The same hashes pin the reference-loop oracles in
# kernel_oracles.py: replayed through every optimizer, they must
# reproduce production byte for byte.  Regenerate ONLY for an
# intentional trajectory change:
#
#     PYTHONPATH=src python tests/core/test_determinism_regression.py --regen

GOLDEN_PATH = Path(__file__).parent / "golden_fronts.json"

GOLDEN_PROBLEMS = {
    "clustered": lambda: ClusteredFeasibility(n_var=4),
    "integrator": lambda: IntegratorSizingProblem(n_mc=2),
}


def golden_run(algo, problem_key, backend=None):
    return build(algo, backend=backend, problem=GOLDEN_PROBLEMS[problem_key]()).run(GENS)


def golden_digest(result):
    return hashlib.sha256(serialized(result)).hexdigest()


def load_golden():
    payload = json.loads(GOLDEN_PATH.read_text())
    assert payload["pop"] == POP and payload["generations"] == GENS
    assert payload["seed"] == SEED
    return payload["hashes"]


@pytest.mark.parametrize("problem_key", sorted(GOLDEN_PROBLEMS))
@pytest.mark.parametrize("algo", ALL_ALGOS)
@pytest.mark.parametrize("kernel", ["blocked", "reference"])
def test_golden_fronts_all_algorithms_both_kernels(algo, problem_key, kernel):
    """All four optimizers reproduce the pre-refactor goldens byte-for-byte
    under the serial backend, on the production kernels and with the
    reference-loop oracles patched in (so the oracles stay pinned too)."""
    want = load_golden()[f"{algo}/{problem_key}"]
    oracle = oracle_kernels() if kernel == "reference" else contextlib.nullcontext()
    calls_before = kernel_call_counts()
    with oracle:
        got = golden_digest(golden_run(algo, problem_key, SerialBackend()))
    # Guard against the oracle leg silently running production kernels.
    assert (kernel_call_counts() == calls_before) == (kernel == "reference")
    assert got == want, (
        f"{algo}/{problem_key} (kernel={kernel}) diverged from the "
        f"pre-refactor golden: {got} != {want}"
    )


@pytest.mark.parametrize("algo", ALL_ALGOS)
def test_golden_fronts_default_backend(algo):
    """The no-backend default path hits the same goldens."""
    want = load_golden()[f"{algo}/clustered"]
    assert golden_digest(golden_run(algo, "clustered")) == want


@pytest.mark.parametrize("algo", ["nsga2", "sacga", "mesacga"])
def test_golden_fronts_survive_pool_backends(algo):
    """Chunked pool evaluation cannot perturb the trajectory: after
    stripping the backend echo from metadata, thread- and process-backend
    runs serialize identically to the golden-matching serial run."""
    def stripped(result):
        payload = result_to_dict(result, include_timing=False)
        payload["metadata"].pop("backend")
        payload["metadata"].pop("backend_stats")
        return json.dumps(payload, sort_keys=True)

    serial_result = golden_run(algo, "clustered", SerialBackend())
    assert golden_digest(serial_result) == load_golden()[f"{algo}/clustered"]
    with ThreadPoolBackend(n_workers=3) as thread_backend:
        thread = stripped(golden_run(algo, "clustered", thread_backend))
    with ProcessPoolBackend(n_workers=2) as process_backend:
        process = stripped(golden_run(algo, "clustered", process_backend))
    serial = stripped(serial_result)
    assert thread == serial
    assert process == serial


@pytest.mark.parametrize("problem_key", sorted(GOLDEN_PROBLEMS))
@pytest.mark.parametrize("algo", ALL_ALGOS)
def test_golden_fronts_survive_shm_backend(algo, problem_key):
    """The shared-memory transport is byte-invisible: for all four
    optimizers on both golden problems, an shm-backend run serializes
    identically (modulo the backend echo) to the golden-matching serial
    run — and leaves nothing behind in /dev/shm."""
    import os

    def stripped(result):
        payload = result_to_dict(result, include_timing=False)
        payload["metadata"].pop("backend")
        payload["metadata"].pop("backend_stats")
        return json.dumps(payload, sort_keys=True)

    serial_result = golden_run(algo, problem_key, SerialBackend())
    assert golden_digest(serial_result) == load_golden()[f"{algo}/{problem_key}"]
    with SharedMemoryBackend(n_workers=2) as shm_backend:
        shm = stripped(golden_run(algo, problem_key, shm_backend))
        assert shm_backend.stats.fallbacks == 0
    assert shm == stripped(serial_result)
    leaked = [
        name for name in os.listdir("/dev/shm")
        if name.startswith(SHM_SEGMENT_PREFIX)
    ]
    assert not leaked, f"leaked shared-memory segments: {leaked}"


def test_different_seeds_actually_differ():
    """Guard against the test proving nothing (e.g. constant output)."""
    problem = ClusteredFeasibility(n_var=4)
    r1 = NSGA2(problem, population_size=POP, seed=1).run(GENS)
    r2 = NSGA2(ClusteredFeasibility(n_var=4), population_size=POP, seed=2).run(GENS)
    assert not np.array_equal(r1.front_objectives, r2.front_objectives)


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("usage: python tests/core/test_determinism_regression.py --regen")
    hashes = {
        f"{algo}/{problem_key}": golden_digest(golden_run(algo, problem_key))
        for algo in ALL_ALGOS
        for problem_key in GOLDEN_PROBLEMS
    }
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                "_comment": (
                    "sha256 of result_to_dict(include_timing=False) JSON blobs, "
                    f"pop={POP} gens={GENS} seed={SEED}; regenerate via "
                    "tests/core/test_determinism_regression.py --regen "
                    "(see module docstring)"
                ),
                "generations": GENS,
                "hashes": hashes,
                "pop": POP,
                "seed": SEED,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH} with {len(hashes)} hashes")
