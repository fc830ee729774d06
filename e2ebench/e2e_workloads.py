"""The three end-to-end workloads: inputs, set-up, one run, and its check.

Each workload makes its inputs from the workload seed alone
(:meth:`inputs`), builds everything a run needs in :meth:`prepare`
(timed as set-up), runs once in :meth:`run` (timed as ``run_s``; the
per-step times are taken from outside the program) and checks the
output in :meth:`check`, which returns a list of problems (empty when
the run is correct).  Sizes are constructor arguments so the tests can
run the same code small.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

from repro.campaign.engine import CampaignRunner
from repro.campaign.scenarios import (
    CampaignSpec,
    OperatingCondition,
    expand_scenarios,
    scenario_technology,
)
from repro.circuits.integrator import analyze_integrator
from repro.circuits.sizing_problem import IntegratorSizingProblem, spec_pass_matrix
from repro.circuits.specs import published_spec
from repro.circuits.technology import nominal_technology
from repro.circuits.yield_est import MonteCarloSampler
from repro.core.checkpoint import CheckpointCallback, load_checkpoint
from repro.core.kernels import kernel_call_counts
from repro.core.mesacga import MESACGA, PAPER_SCHEDULE
from repro.core.sacga import SACGAConfig
from repro.experiments.ledger import LedgerCallback, RunLedger
from repro.experiments.runner import (
    PAPER_HV_SCALE,
    Scale,
    default_phase1_cap,
    make_problem,
    run_one,
)
from repro.metrics.diversity import range_coverage
from repro.metrics.hypervolume import hypervolume_paper, hypervolume_ref
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.obs.telemetry import TelemetryCallback
from repro.problems.synthetic import ClusteredFeasibility

REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "reference.json").read_text(encoding="utf-8")
)


def input_bytes(inputs: Dict[str, Any]) -> bytes:
    """Canonical byte form of a workload's generated inputs."""
    parts = []
    for key in sorted(inputs):
        value = np.ascontiguousarray(inputs[key])
        parts.append(f"{key}:{value.dtype.str}:{value.shape}:".encode())
        parts.append(value.tobytes())
    return b"".join(parts)


class StepClock:
    """Progress callback stamping the end of every generation."""

    def __init__(self) -> None:
        self.stamps: List[float] = []

    def __call__(self, generation: int, population) -> None:
        self.stamps.append(time.perf_counter())

    def steps_ms(self) -> List[float]:
        return [1e3 * (b - a) for a, b in zip(self.stamps, self.stamps[1:])]


@dataclass
class Outcome:
    """What one run produced: per-step wall times and the run's output."""

    steps_ms: List[float]
    output: Any
    #: Bytes of the output that every run on the same seed must reproduce.
    fingerprint: bytes


@dataclass
class Context:
    """A prepared run: its generated inputs, scratch directory and objects."""

    inputs: Dict[str, Any]
    workdir: Path
    state: Dict[str, Any] = field(default_factory=dict)


def _ga_problems(
    name: str, result, quality: Dict[str, float], expected_evaluations: int, problem
) -> List[str]:
    """Check a GA result against the reference envelope and a fresh evaluation.

    The front must be non-empty, every quality figure with a
    ``<figure>_min`` or ``<figure>_max`` in ``reference.json`` inside
    those bounds, the evaluation count exact, and the front's designs,
    evaluated afresh by *problem*, must give exactly its objectives and
    all be feasible.
    """
    if result.front_size == 0:
        return [f"{name}: empty feasible front"]
    ref = REFERENCE[name]
    problems = []
    for key, value in quality.items():
        low = ref.get(f"{key}_min", -np.inf)
        high = ref.get(f"{key}_max", np.inf)
        if not low <= value <= high:
            problems.append(f"{name}: {key} {value:.6g} outside reference [{low}, {high}]")
    if result.n_evaluations != expected_evaluations:
        problems.append(
            f"{name}: {result.n_evaluations} evaluations, expected {expected_evaluations}"
        )
    evaluation = problem.evaluate_batch(result.front_x)
    if not np.array_equal(evaluation.objectives, result.front_objectives):
        problems.append(f"{name}: re-evaluated front objectives differ")
    if not evaluation.feasible.all():
        problems.append(f"{name}: re-evaluated front has infeasible designs")
    return problems


class SacgaCircuit:
    """SACGA on the integrator through ``run_one``: ``repro run sacga --partitions 8``."""

    name = "sacga_circuit"

    def __init__(self, generations: int = 100, population: int = 80) -> None:
        self.generations = generations
        self.scale = Scale(population=population, generations=generations, n_mc=6)

    def inputs(self, seed: int) -> Dict[str, Any]:
        rng = np.random.default_rng(seed)
        return {"seed_index": np.int64(rng.integers(0, 2**31 - 1))}

    def prepare(self, seed: int, workdir: Path) -> Context:
        ctx = Context(self.inputs(seed), workdir)
        ctx.state["problem"] = make_problem(scale=self.scale, use_corners=True)
        return ctx

    def run(self, ctx: Context) -> Outcome:
        clock = StepClock()
        summary = run_one(
            "sacga",
            "e2ebench",
            scale=self.scale,
            generations=self.generations,
            problem=ctx.state["problem"],
            seed_index=int(ctx.inputs["seed_index"]),
            backend="serial",
            n_partitions=8,
            callbacks=[clock],
        )
        result = summary.result
        return Outcome(
            clock.steps_ms(),
            summary,
            result.front_x.tobytes() + result.front_objectives.tobytes(),
        )

    def quality(self, outcome: Outcome) -> Dict[str, float]:
        s = outcome.output
        # Standard hypervolume (higher is better) up to a fixed reference
        # point in the paper's units: unlike hv_paper and coverage, it
        # falls when the front is poorly converged.
        front = s.result.front_objectives / np.asarray(PAPER_HV_SCALE)
        return {
            "hv_paper": s.hv_paper,
            "coverage": s.coverage,
            "front_size": s.front_size,
            "hv_ref": hypervolume_ref(front, REFERENCE[self.name]["hv_ref_point"]),
        }

    def check(self, ctx: Context, outcome: Outcome) -> List[str]:
        return _ga_problems(
            self.name,
            outcome.output.result,
            self.quality(outcome),
            self.scale.population * (self.generations + 1),
            make_problem(scale=self.scale, use_corners=True),
        )


class MesacgaSyntheticObserved:
    """MESACGA on ``ClusteredFeasibility`` with every observer switched on."""

    name = "mesacga_synthetic_observed"
    #: Every 25th generation checkpoints: 4% of the generations, fewer
    #: than the 10% beyond p90, so checkpoints cannot set gen_ms_p90.
    CHECKPOINT_EVERY = 25

    def __init__(self, generations: int = 100, population: int = 400, n_var: int = 8):
        self.generations = generations
        self.population = population
        self.n_var = n_var

    def inputs(self, seed: int) -> Dict[str, Any]:
        rng = np.random.default_rng(seed)
        return {
            "algorithm_seed": np.int64(rng.integers(0, 2**31 - 1)),
            "initial_x": rng.random((self.population, self.n_var)),
        }

    def prepare(self, seed: int, workdir: Path) -> Context:
        ctx = Context(self.inputs(seed), workdir)
        problem = ClusteredFeasibility(n_var=self.n_var)
        registry = MetricsRegistry()
        algorithm = MESACGA(
            problem,
            axis=1,
            low=0.0,
            high=1.0,
            partition_schedule=PAPER_SCHEDULE,
            population_size=self.population,
            seed=int(ctx.inputs["algorithm_seed"]),
            config=SACGAConfig(phase1_max_iterations=default_phase1_cap(self.generations)),
            metrics=registry,
            tracer=SpanTracer(),
        )
        # Wired as run_one wires an observed run: telemetry first, so the
        # ledger's extras see this generation's sample.
        telemetry = TelemetryCallback(algorithm, registry, kernel_counts=kernel_call_counts)
        algorithm.add_callback(telemetry)
        ledger = RunLedger(workdir / "run.ledger.jsonl")
        algorithm.add_callback(
            LedgerCallback(
                ledger, algorithm, run_id="e2ebench", extras_fn=lambda: telemetry.last_sample
            )
        )
        algorithm.add_callback(
            CheckpointCallback(
                algorithm,
                workdir / "run.ckpt",
                every=self.CHECKPOINT_EVERY,
                ledger=ledger,
                run_id="e2ebench",
            )
        )
        clock = StepClock()
        algorithm.add_callback(clock)
        ctx.state.update(algorithm=algorithm, clock=clock)
        return ctx

    def run(self, ctx: Context) -> Outcome:
        result = ctx.state["algorithm"].run(
            self.generations, initial_x=ctx.inputs["initial_x"]
        )
        return Outcome(
            ctx.state["clock"].steps_ms(),
            result,
            result.front_x.tobytes() + result.front_objectives.tobytes(),
        )

    def quality(self, outcome: Outcome) -> Dict[str, float]:
        front = outcome.output.front_objectives
        if front.shape[0] == 0:
            return {"hv_paper": float("inf"), "coverage": 0.0, "front_size": 0}
        return {
            "hv_paper": hypervolume_paper(front),
            "coverage": range_coverage(front, axis=1, low=0.0, high=1.0),
            "front_size": int(front.shape[0]),
        }

    def check(self, ctx: Context, outcome: Outcome) -> List[str]:
        problems = _ga_problems(
            self.name,
            outcome.output,
            self.quality(outcome),
            self.population * (self.generations + 1),
            ClusteredFeasibility(n_var=self.n_var),
        )
        last = self.generations - self.generations % self.CHECKPOINT_EVERY
        if last:
            saved = load_checkpoint(ctx.workdir / "run.ckpt")
            if saved["generation"] != last:
                problems.append(
                    f"{self.name}: last checkpoint at generation "
                    f"{saved['generation']}, expected {last}"
                )
        n_lines = len((ctx.workdir / "run.ledger.jsonl").read_text().splitlines())
        expected_lines = self.generations + 1 + self.generations // self.CHECKPOINT_EVERY
        if n_lines != expected_lines:
            problems.append(
                f"{self.name}: ledger has {n_lines} events, expected {expected_lines}"
            )
        return problems


#: Operating conditions of the campaign grid (5 corners x these).
CONDITIONS = (
    OperatingCondition(),
    OperatingCondition(name="hot", temperature=358.0),
    OperatingCondition(name="lowvdd", vdd_scale=0.9),
)


class CampaignInline:
    """``CampaignRunner.create`` + ``run_inline`` over jittered SACGA designs."""

    name = "campaign_inline"
    #: Designs whose yields the check recomputes straight from the
    #: circuit analysis, bypassing shards, shard files and aggregation.
    ORACLE_DESIGNS = 24

    def __init__(
        self,
        n_designs: int = 1000,
        n_mc: int = 16,
        base_population: int = 40,
        base_generations: int = 20,
    ) -> None:
        self.n_designs = n_designs
        self.spec = CampaignSpec(n_mc=n_mc, conditions=CONDITIONS, shard_scenarios=3)
        self.base_scale = Scale(
            population=base_population, generations=base_generations, n_mc=2
        )

    def _base_designs(self) -> np.ndarray:
        """Feasible members of a short fixed-seed SACGA population."""
        summary = run_one(
            "sacga", "e2ebench-campaign-base", scale=self.base_scale, n_partitions=4
        )
        pop = summary.result.population
        return pop.x[pop.feasible] if pop.feasible.any() else pop.x

    def inputs(self, seed: int) -> Dict[str, Any]:
        base = self._base_designs()
        rng = np.random.default_rng(seed)
        pick = rng.integers(0, base.shape[0], self.n_designs)
        # 2% log-normal jitter keeps most designs near the evolved ones,
        # so yields spread over (0, 1] instead of all being zero.
        x = base[pick] * np.exp(0.02 * rng.standard_normal((self.n_designs, base.shape[1])))
        problem = IntegratorSizingProblem(n_mc=1)
        x = np.clip(x, problem.lower, problem.upper)
        perf = analyze_integrator(
            nominal_technology(), IntegratorSizingProblem.build_design(x)
        )
        return {
            "x": x,
            "c_load": x[:, 14].copy(),
            "nominal_power": np.asarray(perf.power, dtype=float),
            "oracle_rows": np.sort(
                rng.choice(self.n_designs, min(self.ORACLE_DESIGNS, self.n_designs), replace=False)
            ),
        }

    def prepare(self, seed: int, workdir: Path) -> Context:
        ctx = Context(self.inputs(seed), workdir)
        runner = CampaignRunner(workdir / "campaigns")
        ctx.state["runner"] = runner
        ctx.state["manifest"] = runner.create(
            self.spec,
            ctx.inputs["x"],
            ctx.inputs["c_load"],
            ctx.inputs["nominal_power"],
            campaign_id="e2ebench",
        )
        return ctx

    def run(self, ctx: Context) -> Outcome:
        runner: CampaignRunner = ctx.state["runner"]
        manifest = ctx.state["manifest"]
        started = time.time()
        report = runner.run_inline(manifest)
        # A step is one shard.  Shard files are written as each shard
        # finishes, so their modification times mark the step ends
        # without wrapping anything inside the untraced run.
        ends = [
            os.stat(runner.shard_path(manifest["id"], i)).st_mtime_ns / 1e9
            for i in range(len(manifest["shards"]))
        ]
        steps = [1e3 * (b - a) for a, b in zip([started] + ends, ends)]
        yields = np.array([d["yield"] for d in report["designs"]])
        return Outcome(steps, report, yields.tobytes())

    def quality(self, outcome: Outcome) -> Dict[str, float]:
        report = outcome.output
        return {
            "median_yield": report["median_yield"],
            "n_yielding": report["n_yielding"],
        }

    def oracle_yields(self, inputs: Dict[str, Any]) -> np.ndarray:
        """Yields of the oracle rows from one stacked analysis per scenario."""
        rows = inputs["oracle_rows"]
        x = inputs["x"][rows]
        params = IntegratorSizingProblem.decode(x)
        design = IntegratorSizingProblem.build_design(x)
        ispec = published_spec()
        sampler = MonteCarloSampler(
            n_samples=self.spec.n_mc,
            sigma_mu=self.spec.sigma_mu,
            sigma_vt=self.spec.sigma_vt,
            seed=self.spec.mc_seed,
        )
        all_pass = np.ones((self.spec.n_mc, rows.size), dtype=bool)
        base = nominal_technology()
        for scenario in expand_scenarios(self.spec):
            tech = scenario_technology(scenario, base)
            perf = analyze_integrator(
                sampler.stacked(tech), design, settle_epsilon=ispec.se_max / 2.0
            )
            offsets = sampler.mismatch_offsets(tech.nmos.a_vt, params["w1"], params["l1"])
            all_pass &= spec_pass_matrix(ispec, perf, offset_extra=offsets)
        return all_pass.mean(axis=0)

    def check(self, ctx: Context, outcome: Outcome) -> List[str]:
        report = outcome.output
        problems = []
        n_scenarios = len(expand_scenarios(self.spec))
        if report["n_designs"] != self.n_designs:
            problems.append(f"{self.name}: report has {report['n_designs']} designs")
        if report["n_evaluations"] != self.n_designs * n_scenarios:
            problems.append(
                f"{self.name}: {report['n_evaluations']} evaluations, expected "
                f"{self.n_designs * n_scenarios}"
            )
        yields = np.array([d["yield"] for d in report["designs"]])
        if not np.any(yields > 0):
            problems.append(f"{self.name}: every design has zero yield")
        rows = ctx.inputs["oracle_rows"]
        expected = self.oracle_yields(ctx.inputs)
        wrong = np.flatnonzero(yields[rows] != expected)
        if wrong.size:
            problems.append(
                f"{self.name}: yields of designs {rows[wrong].tolist()} differ "
                "from the direct analysis"
            )
        return problems


WORKLOADS = {
    w.name: w for w in (SacgaCircuit, MesacgaSyntheticObserved, CampaignInline)
}
