"""Tests of the end-to-end benchmark itself.

Run from the repository root with ``python -m pytest e2ebench``.  The
workloads run here at toy sizes; the mechanics (inputs, wrappers, counts,
metric names) are the same code the full-size runs use.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import e2e_tracing  # noqa: E402
import e2e_workloads  # noqa: E402

_spec = importlib.util.spec_from_file_location("e2ebench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def small(name):
    """Each workload at a size that runs in about a second."""
    return {
        "sacga_circuit": lambda: e2e_workloads.SacgaCircuit(generations=4, population=24),
        "mesacga_synthetic_observed": lambda: e2e_workloads.MesacgaSyntheticObserved(
            generations=30, population=60
        ),
        "campaign_inline": lambda: e2e_workloads.CampaignInline(
            n_designs=12, n_mc=2, base_population=16, base_generations=2
        ),
    }[name]()


ALL = tuple(bench.WORKLOAD_NAMES)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(ALL)
    assert set(e2e_workloads.WORKLOADS) == set(ALL)


def test_emitted_metric_names_match_benchmark_json(tmp_path):
    session = bench.Session(small("mesacga_synthetic_observed"), 3, tmp_path / "s")
    end_to_end = bench.measure_untraced(session, seconds=0.0)
    assert list(end_to_end) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for m in BENCHMARK["end_to_end"]:
        assert end_to_end[m["name"]]["unit"] == m["unit"]
    per_layer = bench.per_layer_metrics({}, 0.0)
    assert list(per_layer) == [m["name"] for m in BENCHMARK["per_layer"]]
    for m in BENCHMARK["per_layer"]:
        assert per_layer[m["name"]]["unit"] == m["unit"]
    assert set(bench.DETERMINISTIC) <= set(per_layer)


@pytest.mark.parametrize("name", ALL)
def test_inputs_depend_only_on_the_seed(name):
    workload = small(name)
    first = e2e_workloads.input_bytes(workload.inputs(11))
    assert first == e2e_workloads.input_bytes(workload.inputs(11))
    assert first != e2e_workloads.input_bytes(workload.inputs(12))


def _spy_on_bindings(ctx, seen):
    """Snapshot the traced bindings from inside a running optimizer."""

    def callback(generation, population):
        if generation == 1:
            seen.append(e2e_tracing.current_bindings())

    ctx.state["algorithm"].add_callback(callback)


def test_no_wrapper_is_installed_outside_the_traced_run(tmp_path):
    originals = e2e_tracing.current_bindings()
    session = bench.Session(small("mesacga_synthetic_observed"), 5, tmp_path)

    seen = []
    ctx, _ = session.prepare()
    _spy_on_bindings(ctx, seen)
    session.run(ctx)
    assert all(seen[0][k] is originals[k] for k in originals)

    seen.clear()
    ctx, _ = session.prepare()
    _spy_on_bindings(ctx, seen)
    tracer = e2e_tracing.Tracer("t")
    session.run(ctx, tracer=tracer)
    assert all(seen[0][k] is not originals[k] for k in originals)
    assert tracer.spans

    after = e2e_tracing.current_bindings()
    assert all(after[k] is originals[k] for k in originals)
    assert session.failed == 0


def test_wrappers_are_removed_when_the_run_raises():
    originals = e2e_tracing.current_bindings()
    with pytest.raises(RuntimeError):
        with e2e_tracing.installed(e2e_tracing.Tracer("t")):
            raise RuntimeError("boom")
    after = e2e_tracing.current_bindings()
    assert all(after[k] is originals[k] for k in originals)


def test_missing_binding_is_an_error():
    layer = e2e_tracing.Layer("x", ("repro.core.sacga:no_such_function",))
    with pytest.raises(LookupError):
        with e2e_tracing.installed(e2e_tracing.Tracer("t"), [layer]):
            pass


@pytest.mark.parametrize("name", ALL)
def test_traced_counts_repeat_on_the_same_seed(name, tmp_path):
    counts = []
    for i in range(2):
        session = bench.Session(small(name), 7, tmp_path / f"s{i}")
        metrics = bench.measure_traced(session, seconds=0.0, out=tmp_path)
        counts.append({k: metrics[k]["value"] for k in bench.DETERMINISTIC})
        assert (tmp_path / f"{name}.trace.jsonl").exists()
    assert counts[0] == counts[1]
    assert counts[0]["core.evaluation.calls"] > 0


def test_layer_stats_self_time_and_nesting():
    spans = [
        # id, parent, layer, start, end, counts
        (0, -1, "a", 0.0, 10.0, {"rows": 4.0}),
        (1, 0, "b", 1.0, 4.0, None),
        (2, 1, "a", 2.0, 3.0, {"rows": 1.0}),  # "a" nested in "a": not busy again
        (3, 0, "b", 5.0, 6.0, None),
    ]
    stats = e2e_tracing.layer_stats(spans)
    assert stats["a"].calls == 2
    assert stats["a"].busy_s == pytest.approx(10.0)
    assert stats["a"].self_s == pytest.approx((10.0 - 4.0) + 1.0)
    assert stats["a"].counts == {"rows": 5.0}
    assert stats["b"].busy_s == pytest.approx(4.0)
    assert stats["b"].self_s == pytest.approx(2.0 + 1.0)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", ALL[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_poorly_converged_sacga_front_fails_its_check(tmp_path):
    # 20 of the 100 generations: a feasible front, but one the
    # hypervolume floor in reference.json rejects.
    workload = e2e_workloads.SacgaCircuit(generations=20)
    ctx = workload.prepare(3, tmp_path)
    outcome = workload.run(ctx)
    assert outcome.output.front_size > 0
    problems = workload.check(ctx, outcome)
    assert any("hv_ref" in p for p in problems)
