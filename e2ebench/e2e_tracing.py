"""Outside-in tracing for the end-to-end benchmark.

The traced run wraps public functions of the program at the bindings its
callers look them up through (a module global such as
``repro.circuits.sizing_problem.analyze_integrator``, or a class
attribute such as ``MosfetModel.drain_current``).  Nothing under ``src/``
is edited: :func:`installed` swaps the bindings in for one run and puts
the originals back afterwards, even when the run raises.

Spans are kept in memory as tuples, one trace id per run, and written
out once the run is over (:func:`write_spans`).  A layer's ``busy_s`` is
the inclusive time of its outermost spans (a span nested in another span
of the same layer is not counted twice); ``self_s`` subtracts the time
spent in nested wrapped spans of any layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Counts taken from a wrapped call's return value.
Measure = Callable[[Any], Dict[str, float]]


def _evaluation_counts(result: Any) -> Dict[str, float]:
    # EvaluationBackend.evaluate returns an Evaluation.
    return {
        "rows": float(result.objectives.shape[0]),
        "feasible": float(np.count_nonzero(result.feasible)),
    }


def _card_rows(result: Any) -> Dict[str, float]:
    # (cards x designs) pairs analysed in one analyze_integrator call: the
    # largest performance array (power alone does not vary across cards).
    sizes = [np.size(v) for v in vars(result).values() if isinstance(v, np.ndarray)]
    return {"card_rows": float(max(sizes))}


def _file_bytes(result: Any) -> Dict[str, float]:
    # save_checkpoint / write_shard return the path they wrote.
    return {"bytes": float(os.path.getsize(result))}


@dataclass(frozen=True)
class Layer:
    """A named layer and the bindings whose calls are its spans."""

    name: str
    targets: Tuple[str, ...]  # "module:attr" or "module:Class.attr"
    measure: Optional[Measure] = None


#: Every binding the traced run wraps.  A binding that no longer exists
#: raises at install time, so a refactor that moves a layer cannot
#: silently report zero for it.
LAYERS: Tuple[Layer, ...] = (
    Layer(
        "core.evaluation",
        ("repro.core.evaluation:EvaluationBackend.evaluate",),
        _evaluation_counts,
    ),
    Layer(
        "circuits.integrator.analyze_integrator",
        (
            "repro.circuits.sizing_problem:analyze_integrator",
            "repro.campaign.shards:analyze_integrator",
        ),
        _card_rows,
    ),
    Layer("circuits.opamp.analyze_opamp", ("repro.circuits.integrator:analyze_opamp",)),
    Layer(
        "circuits.mosfet.vgs_for_current",
        ("repro.circuits.mosfet:MosfetModel.vgs_for_current",),
    ),
    Layer(
        "circuits.mosfet.drain_current",
        ("repro.circuits.mosfet:MosfetModel.drain_current",),
    ),
    Layer(
        "core.partitions",
        (
            "repro.core.partitions:PartitionedPopulation.__init__",
            "repro.core.partitions:PartitionedPopulation.local_truncate",
        ),
    ),
    Layer("core.operators.variation", ("repro.core.sacga:variation",)),
    Layer(
        "core.selection",
        (
            "repro.core.sacga:linear_rank_selection",
            "repro.core.sacga:binary_tournament",
            "repro.core.sacga:shuffle_for_mating",
        ),
    ),
    Layer(
        "core.annealing.gate",
        (
            "repro.core.annealing:CompetitionGate.sample_mask",
            # The global non-dominated sort over the gated participants.
            "repro.core.sacga:assign_ranks",
        ),
    ),
    Layer("core.callbacks.record", ("repro.core.callbacks:HistoryRecorder.record",)),
    Layer(
        "utils.pareto.pareto_mask",
        (
            # Population.pareto_front_indices imports it at call time.
            "repro.utils.pareto:pareto_mask",
            "repro.metrics.hypervolume:pareto_mask",
        ),
    ),
    Layer(
        "core.checkpoint.save_checkpoint",
        ("repro.core.checkpoint:save_checkpoint",),
        _file_bytes,
    ),
    Layer("obs.telemetry", ("repro.obs.telemetry:TelemetryCallback.__call__",)),
    Layer(
        "experiments.ledger",
        (
            "repro.experiments.ledger:LedgerCallback.__call__",
            "repro.experiments.ledger:RunLedger.emit",
        ),
    ),
    Layer("campaign.shards.evaluate_shard", ("repro.campaign.engine:evaluate_shard",)),
    Layer(
        "campaign.shards.write_shard",
        ("repro.campaign.engine:write_shard",),
        _file_bytes,
    ),
    Layer("campaign.engine.finalize", ("repro.campaign.engine:CampaignRunner.finalize",)),
)


def resolve(target: str) -> Tuple[Any, str]:
    """``"module:Owner.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise LookupError(f"trace target {target!r} does not exist")
    return owner, attr


# A span: (span_id, parent_id or -1, layer, start, end, counts or None).
Span = Tuple[int, int, str, float, float, Optional[Dict[str, float]]]


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._ids = itertools.count()

    def wrap(self, layer: str, fn: Callable, measure: Optional[Measure]) -> Callable:
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                counts = measure(result) if (ok and measure) else None
                spans.append((span_id, parent, layer, start, end, counts))

        return traced


@contextlib.contextmanager
def installed(tracer: Tracer, layers: Sequence[Layer] = LAYERS) -> Iterator[Tracer]:
    """Wrap every layer binding for the duration of the block."""
    patches: List[Tuple[Any, str, Any]] = []
    try:
        for layer in layers:
            for target in layer.targets:
                owner, attr = resolve(target)
                original = vars(owner)[attr]
                setattr(owner, attr, tracer.wrap(layer.name, original, layer.measure))
                patches.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def current_bindings(layers: Sequence[Layer] = LAYERS) -> Dict[str, Any]:
    """The object each target binding holds right now (for tests)."""
    out = {}
    for layer in layers:
        for target in layer.targets:
            owner, attr = resolve(target)
            out[target] = vars(owner)[attr]
    return out


@dataclass
class LayerStats:
    """One layer's totals over a traced run."""

    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)


def layer_stats(spans: Sequence[Span]) -> Dict[str, LayerStats]:
    """Per-layer calls, busy time, self time and summed counts."""
    layer_of = {s[0]: s[2] for s in spans}
    parent_of = {s[0]: s[1] for s in spans}
    child_time: Dict[int, float] = {}
    for span_id, parent, _, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    stats: Dict[str, LayerStats] = {}
    for span_id, parent, layer, start, end, counts in spans:
        entry = stats.get(layer)
        if entry is None:
            entry = stats[layer] = LayerStats()
        duration = end - start
        entry.calls += 1
        entry.self_s += duration - child_time.get(span_id, 0.0)
        ancestor = parent
        while ancestor >= 0 and layer_of[ancestor] != layer:
            ancestor = parent_of[ancestor]
        if ancestor < 0:
            entry.busy_s += duration
        for key, value in (counts or {}).items():
            entry.counts[key] = entry.counts.get(key, 0.0) + value
    return stats


def write_spans(path: Path, tracer: Tracer) -> None:
    """A header line naming the fields, then one JSON array per span.

    Times are seconds relative to the first span's start.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    t0 = min((s[3] for s in tracer.spans), default=0.0)
    fields = ["span_id", "parent_id", "name", "start_s", "dur_s", "counts"]
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"trace_id": tracer.trace_id, "fields": fields}) + "\n")
        for span_id, parent, layer, start, end, counts in sorted(tracer.spans):
            row = [
                span_id,
                None if parent < 0 else parent,
                layer,
                round(start - t0, 9),
                round(end - start, 9),
                counts,
            ]
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")
