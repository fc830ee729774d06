"""Microbenchmark harness for the dominance/selection kernel layer.

Times each kernel primitive (non-dominated sort, per-partition local
ranking, crowded truncation, the first-front mask) plus end-to-end NSGA-II generations for
both the ``blocked`` and ``reference`` kernels, at several population
sizes, and writes ``BENCH_kernels.json`` at the repo root.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_kernels.py
    PYTHONPATH=src python benchmarks/perf/bench_kernels.py \
        --sizes 100 400 --repeats 3 --baseline BENCH_kernels.json

Numbers are best-of-``--repeats`` wall times (``time.perf_counter``),
which is robust to scheduler noise for CI-scale inputs.  The JSON holds
both raw seconds and, for each (primitive, size), the ``speedup`` of
blocked over reference — a machine-independent ratio.  With
``--baseline``, the run fails (exit 1) when any overlapping speedup
ratio regresses by more than ``--max-regression`` (default 20%);
comparing ratios rather than seconds makes the check portable across
machines, and comparing only overlapping keys lets CI run at small N
against a baseline recorded at full scale.

Measured ratios still jitter run to run (the end-to-end timings share
the evaluation cost between kernels, so their ratio is the most
sensitive), so the *committed* baseline is recorded as a conservative
floor: ``--floor 0.5`` halves every measured speedup before writing.  A
regression only trips the gate when the current ratio drops below
``floor x (1 - max_regression)`` — i.e. a genuine algorithmic
regression, not scheduler noise.  Regenerate the checked-in baseline
with::

    PYTHONPATH=src python benchmarks/perf/bench_kernels.py \
        --repeats 7 --floor 0.5
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from repro.core.kernels import (
    constrained_fronts,
    local_rank_and_crowd,
    truncate_and_rank,
)
from repro.core.nsga2 import NSGA2
from repro.problems.synthetic import ClusteredFeasibility
from repro.utils.pareto import pareto_mask

KERNELS = ("blocked", "reference")
DEFAULT_SIZES = (100, 400, 1600)
N_PARTITIONS = 16


def make_inputs(n: int, seed: int = 0):
    """A realistic ranking workload: 2 objectives, ~25% infeasible."""
    rng = np.random.default_rng(seed)
    objs = rng.random((n, 2))
    viol = np.where(rng.random(n) < 0.25, rng.random(n), 0.0)
    partition = rng.integers(0, N_PARTITIONS, size=n)
    return objs, viol, partition


def first_front_mask(objs, viol, kernel: str) -> np.ndarray:
    """The constrained first-front mask: :func:`pareto_mask` for
    ``blocked``, the first front of the reference sort for ``reference``."""
    if kernel == "blocked":
        return pareto_mask(objs, viol)
    mask = np.zeros(objs.shape[0], dtype=bool)
    mask[constrained_fronts(objs, viol, kernel="reference")[0]] = True
    return mask


def best_of(fn: Callable[[], None], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_primitives(sizes, repeats: int) -> Dict[str, float]:
    times: Dict[str, float] = {}
    for n in sizes:
        objs, viol, partition = make_inputs(n)
        for kernel in KERNELS:
            times[f"nds/n={n}/{kernel}"] = best_of(
                lambda: constrained_fronts(objs, viol, kernel=kernel), repeats
            )
            times[f"local_rank/n={n}/{kernel}"] = best_of(
                lambda: local_rank_and_crowd(
                    objs, viol, partition, N_PARTITIONS, kernel=kernel
                ),
                repeats,
            )
            times[f"crowded_truncate/n={n}/{kernel}"] = best_of(
                lambda: truncate_and_rank(objs, viol, n // 2, kernel=kernel),
                repeats,
            )
            times[f"pareto_mask/n={n}/{kernel}"] = best_of(
                lambda: first_front_mask(objs, viol, kernel), repeats
            )
    return times


def bench_end_to_end(sizes, repeats: int, generations: int) -> Dict[str, float]:
    times: Dict[str, float] = {}
    for n in sizes:
        problem = ClusteredFeasibility(n_var=8)
        for kernel in KERNELS:

            def run_once():
                NSGA2(
                    problem, population_size=n, seed=7, kernel=kernel
                ).run(generations)

            times[f"nsga2_e2e/n={n}/{kernel}"] = best_of(run_once, repeats)
    return times


def speedups(times: Dict[str, float]) -> Dict[str, float]:
    """blocked-over-reference ratio per (primitive, size); >1 is faster."""
    out: Dict[str, float] = {}
    for key, t_blocked in times.items():
        if not key.endswith("/blocked"):
            continue
        ref_key = key[: -len("blocked")] + "reference"
        t_ref = times.get(ref_key)
        if t_ref and t_blocked > 0:
            out[key[: -len("/blocked")]] = t_ref / t_blocked
    return out


def compare_to_baseline(
    current: Dict[str, float], baseline: Dict[str, float], max_regression: float
) -> List[str]:
    """Speedup-ratio regressions beyond the threshold, over shared keys."""
    failures = []
    for key in sorted(set(current) & set(baseline)):
        if baseline[key] <= 0:
            continue
        ratio = current[key] / baseline[key]
        if ratio < 1.0 - max_regression:
            failures.append(
                f"{key}: speedup {current[key]:.2f}x vs baseline "
                f"{baseline[key]:.2f}x ({(1.0 - ratio) * 100.0:.0f}% regression)"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES),
        help="population sizes to benchmark (default: 100 400 1600)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="take the best of this many timed runs (default: 5)",
    )
    parser.add_argument(
        "--generations", type=int, default=5,
        help="generations per end-to-end NSGA-II timing (default: 5)",
    )
    parser.add_argument(
        "--skip-e2e", action="store_true",
        help="skip the end-to-end optimizer timings (primitives only)",
    )
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parents[2] / "BENCH_kernels.json",
        help="where to write the results JSON (default: repo root)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="compare speedup ratios against this earlier BENCH_kernels.json",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.20,
        help="fail when a speedup ratio worsens by more than this fraction",
    )
    parser.add_argument(
        "--floor", type=float, default=1.0,
        help="write speedups scaled by this factor — use < 1 to record a "
        "noise-tolerant floor baseline (default: 1.0, raw ratios)",
    )
    args = parser.parse_args(argv)
    if not 0.0 < args.floor <= 1.0:
        parser.error(f"--floor must be in (0, 1], got {args.floor}")

    times = bench_primitives(args.sizes, args.repeats)
    if not args.skip_e2e:
        times.update(
            bench_end_to_end(args.sizes, args.repeats, args.generations)
        )
    ratios = {k: v * args.floor for k, v in speedups(times).items()}

    payload = {
        "sizes": list(args.sizes),
        "repeats": args.repeats,
        "floor_factor": args.floor,
        "times_s": {k: times[k] for k in sorted(times)},
        "speedup_blocked_over_reference": {k: ratios[k] for k in sorted(ratios)},
    }
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    for key in sorted(ratios):
        print(f"{key:<32} {ratios[key]:6.2f}x")
    print(f"wrote {args.output}")

    if args.baseline is not None:
        base = json.loads(args.baseline.read_text())
        base_ratios = base.get("speedup_blocked_over_reference", {})
        failures = compare_to_baseline(ratios, base_ratios, args.max_regression)
        if failures:
            print("PERF REGRESSION:", file=sys.stderr)
            for line in failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        shared = len(set(ratios) & set(base_ratios))
        print(f"baseline check passed ({shared} shared keys)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
