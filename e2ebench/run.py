"""End-to-end benchmark: one workload per process, metrics as JSON.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload sacga_circuit --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` repeats set-up + run for about ``--seconds`` seconds and
reports the end-to-end metrics.  ``--trace 1`` makes the same untraced
runs, then one traced run, and reports the per-layer metrics from it.
``--workload all`` runs every workload in its own process, untraced and
traced, and prints every metric.  The last line of standard output is
always one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  See ``e2ebench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".e2ebench_out"
WORKLOAD_NAMES = ("sacga_circuit", "mesacga_synthetic_observed", "campaign_inline")
#: Set-up is repeated at least this often per process; setup_s is the median.
SETUP_REPEATS = 5


def git_commit(root: Path) -> str:
    """HEAD's commit id, or ``"unknown"`` outside a git repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


#: Run in a fresh interpreter: prints the seconds taken by importing numpy
#: and the program (argv: the directories to put first on ``sys.path``).
_IMPORT_PROBE = (
    "import sys, time; start = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
    "import e2e_workloads; print(time.perf_counter() - start)"
)


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import numpy and the program."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(HERE)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def per_layer_metrics(stats: dict, overhead: float) -> dict:
    """Every per-layer metric of BENCHMARK.json from the traced run's stats."""
    from e2e_tracing import LayerStats

    def get(layer):
        return stats.get(layer) or LayerStats()

    ev = get("core.evaluation")
    rows = ev.counts.get("rows", 0.0)
    ai = get("circuits.integrator.analyze_integrator")
    ao = get("circuits.opamp.analyze_opamp")
    vg = get("circuits.mosfet.vgs_for_current")
    dc = get("circuits.mosfet.drain_current")
    part = get("core.partitions")
    rec = get("core.callbacks.record")
    pm = get("utils.pareto.pareto_mask")
    ck = get("core.checkpoint.save_checkpoint")
    es = get("campaign.shards.evaluate_shard")
    ws = get("campaign.shards.write_shard")
    return {
        "core.evaluation.calls": metric(ev.calls, "count"),
        "core.evaluation.rows": metric(rows, "count"),
        "core.evaluation.busy_s": metric(ev.busy_s, "s"),
        "core.evaluation.feasible_frac": metric(
            ev.counts.get("feasible", 0.0) / rows if rows else 0.0, "ratio"
        ),
        "circuits.integrator.analyze_integrator.calls": metric(ai.calls, "count"),
        "circuits.integrator.analyze_integrator.card_rows": metric(
            ai.counts.get("card_rows", 0.0), "count"
        ),
        "circuits.integrator.analyze_integrator.busy_s": metric(ai.busy_s, "s"),
        "circuits.integrator.analyze_integrator.self_s": metric(ai.self_s, "s"),
        "circuits.opamp.analyze_opamp.calls": metric(ao.calls, "count"),
        "circuits.opamp.analyze_opamp.self_s": metric(ao.self_s, "s"),
        "circuits.mosfet.vgs_for_current.calls": metric(vg.calls, "count"),
        "circuits.mosfet.vgs_for_current.busy_s": metric(vg.busy_s, "s"),
        "circuits.mosfet.vgs_for_current.self_s": metric(vg.self_s, "s"),
        "circuits.mosfet.drain_current.calls": metric(dc.calls, "count"),
        "circuits.mosfet.drain_current.calls_per_row": metric(
            dc.calls / rows if rows else 0.0, "count/row"
        ),
        "circuits.mosfet.drain_current.busy_s": metric(dc.busy_s, "s"),
        "core.partitions.calls": metric(part.calls, "count"),
        "core.partitions.busy_s": metric(part.busy_s, "s"),
        "core.operators.variation.busy_s": metric(get("core.operators.variation").busy_s, "s"),
        "core.selection.busy_s": metric(get("core.selection").busy_s, "s"),
        "core.annealing.gate.busy_s": metric(get("core.annealing.gate").busy_s, "s"),
        "core.callbacks.record.calls": metric(rec.calls, "count"),
        "core.callbacks.record.busy_s": metric(rec.busy_s, "s"),
        "utils.pareto.pareto_mask.calls": metric(pm.calls, "count"),
        "utils.pareto.pareto_mask.busy_s": metric(pm.busy_s, "s"),
        "core.checkpoint.save_checkpoint.calls": metric(ck.calls, "count"),
        "core.checkpoint.save_checkpoint.busy_s": metric(ck.busy_s, "s"),
        "core.checkpoint.save_checkpoint.bytes": metric(ck.counts.get("bytes", 0.0), "B"),
        "obs.telemetry.busy_s": metric(get("obs.telemetry").busy_s, "s"),
        "experiments.ledger.busy_s": metric(get("experiments.ledger").busy_s, "s"),
        "campaign.shards.evaluate_shard.calls": metric(es.calls, "count"),
        "campaign.shards.evaluate_shard.busy_s": metric(es.busy_s, "s"),
        "campaign.shards.write_shard.calls": metric(ws.calls, "count"),
        "campaign.shards.write_shard.busy_s": metric(ws.busy_s, "s"),
        "campaign.shards.write_shard.bytes": metric(ws.counts.get("bytes", 0.0), "B"),
        "campaign.engine.finalize.busy_s": metric(get("campaign.engine.finalize").busy_s, "s"),
        "trace.overhead_frac": metric(overhead, "ratio"),
    }


#: Per-layer metrics that are counts of work: two traced runs on one seed
#: must give them exactly (the tests and later changes cite them).
DETERMINISTIC = (
    "core.evaluation.calls",
    "core.evaluation.rows",
    "core.evaluation.feasible_frac",
    "circuits.integrator.analyze_integrator.calls",
    "circuits.integrator.analyze_integrator.card_rows",
    "circuits.opamp.analyze_opamp.calls",
    "circuits.mosfet.vgs_for_current.calls",
    "circuits.mosfet.drain_current.calls",
    "circuits.mosfet.drain_current.calls_per_row",
    "core.partitions.calls",
    "core.callbacks.record.calls",
    "utils.pareto.pareto_mask.calls",
    "core.checkpoint.save_checkpoint.calls",
    "core.checkpoint.save_checkpoint.bytes",
    "campaign.shards.evaluate_shard.calls",
    "campaign.shards.write_shard.calls",
    "campaign.shards.write_shard.bytes",
)


class Session:
    """Runs one workload and keeps the tally of attempted and failed runs."""

    def __init__(self, workload, seed: int, scratch: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.quality: dict = {}
        self._fingerprint = None
        self._n_prepared = 0

    def prepare(self):
        workdir = self.scratch / f"run{self._n_prepared:03d}"
        self._n_prepared += 1
        workdir.mkdir(parents=True)
        start = time.perf_counter()
        ctx = self.workload.prepare(self.seed, workdir)
        return ctx, time.perf_counter() - start

    def run(self, ctx, tracer=None):
        """One timed run and its check: ``(seconds, outcome)``, or ``(None, None)``
        when the run raised.  Every run on one seed must give the first run's output."""
        from e2e_tracing import installed

        self.attempted += 1
        try:
            with installed(tracer) if tracer is not None else contextlib.nullcontext():
                start = time.perf_counter()
                outcome = self.workload.run(ctx)
                elapsed = time.perf_counter() - start
            problems = self.workload.check(ctx, outcome)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            self.problems.append(f"{self.workload.name}: run raised")
            return None, None
        finally:
            shutil.rmtree(ctx.workdir, ignore_errors=True)
        if self._fingerprint is None:
            self._fingerprint = outcome.fingerprint
            self.quality = self.workload.quality(outcome)
        elif outcome.fingerprint != self._fingerprint:
            problems.append(f"{self.workload.name}: output differs from the first run")
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            for line in problems:
                print(f"CHECK FAILED {line}", file=sys.stderr)
        return elapsed, outcome


def timed_runs(session: Session, seconds: float, time_imports: bool = False):
    """Set-up + run, repeated for about *seconds*.

    Returns set-up seconds, run seconds, step milliseconds, and the peak
    resident memory (MB) after the first set-up and run: later runs add
    allocator high-water marks, and how many runs fit depends on the
    machine's speed.  With *time_imports* each set-up also counts an
    import of the program in a fresh interpreter, so the import is timed
    as often as the rest of set-up and over the whole window.
    """
    setups, runs, steps = [], [], []
    peak_mb = 0.0
    began = time.perf_counter()
    while True:
        ctx, setup = session.prepare()
        setups.append(setup + (import_seconds() if time_imports else 0.0))
        elapsed, outcome = session.run(ctx)
        if outcome is not None:
            runs.append(elapsed)
            steps.extend(outcome.steps_ms)
        if len(setups) == 1:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Stop when one more iteration would more likely end after the
        # deadline than before it.
        spent = time.perf_counter() - began
        if spent + 0.5 * spent / len(setups) > seconds:
            break
    print(f"# {session.workload.name}: {len(runs)} runs, {len(steps)} steps", flush=True)
    return setups, runs, steps, peak_mb


def measure_untraced(session: Session, seconds: float) -> dict:
    setups, runs, steps, peak_mb = timed_runs(session, seconds, time_imports=True)
    while len(setups) < SETUP_REPEATS:
        ctx, setup = session.prepare()
        setups.append(setup + import_seconds())
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    if not runs:
        return {}
    return {
        "run_s": metric(statistics.median(runs), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "gen_ms_p50": metric(percentile(steps, 50), "ms"),
        "gen_ms_p90": metric(percentile(steps, 90), "ms"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }


def measure_traced(session: Session, seconds: float, out: Path) -> dict:
    """Untraced runs as in :func:`measure_untraced`, then one traced run
    whose spans are written to ``<out>/<workload>.trace.jsonl``."""
    from e2e_tracing import Tracer, layer_stats, write_spans

    _, runs, _, _ = timed_runs(session, seconds)
    ctx, _ = session.prepare()
    tracer = Tracer(trace_id=f"{session.workload.name}-{session.seed}-{os.getpid()}")
    traced_s, traced = session.run(ctx, tracer=tracer)
    if not runs or traced is None:
        return {}
    write_spans(out / f"{session.workload.name}.trace.jsonl", tracer)
    overhead = traced_s / statistics.median(runs) - 1.0
    return per_layer_metrics(layer_stats(tracer.spans), overhead)


def provenance(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(ROOT),
        "machine": platform.machine(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} --trace {trace}: exit code {proc.returncode}")
                correct = False
                continue
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            correct = correct and result["correct"]
            print(f"== {name} (trace {trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for key, m in result["metrics"].items():
                print(f"   {key:<52} {m['value']:>14.6g} {m['unit']}")
                metrics[f"{name}/{key}"] = m
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    # One process, serial backend: one BLAS/OpenMP thread (at most nproc)
    # keeps the numbers steady.  Set before numpy is first imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import e2e_workloads  # imports numpy and the program

    workload = e2e_workloads.WORKLOADS[args.workload]()
    scratch = OUT / f"tmp-{args.workload}-{os.getpid()}"
    session = Session(workload, args.seed, scratch)
    info = provenance(args)
    print(json.dumps({"provenance": info}), flush=True)
    try:
        if args.trace:
            metrics = measure_traced(session, args.seconds, OUT)
        else:
            metrics = measure_untraced(session, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({"quality": session.quality}), flush=True)
    if metrics:
        record = {
            "provenance": info,
            "metrics": metrics,
            "quality": session.quality,
            "problems": session.problems,
            "deterministic_counts": {
                k: metrics[k]["value"] for k in DETERMINISTIC if k in metrics
            },
        }
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"{args.workload}.trace{args.trace}.json").write_text(
            json.dumps(record, indent=2) + "\n", encoding="utf-8"
        )
        for key, m in metrics.items():
            print(f"# {key:<52} {m['value']:>14.6g} {m['unit']}")
    else:
        print("error: no run completed", file=sys.stderr)
    ok = bool(metrics) and session.failed == 0
    print(json.dumps({
        "correct": ok,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }))
    return 0 if ok else 1

if __name__ == "__main__":
    sys.exit(main())
