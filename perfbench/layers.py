"""Per-layer figures derived from a traced run's spans.

Stage spans come from the program's stage hooks; the benchmark adds
``cell/<CODE>`` around ``ExperimentMatrix.run_cell`` and
``filter/<CODE>`` around a filter's ``candidates`` call.  A stage's
family is that of the method whose ``tune/<CODE>``, ``cell/<CODE>`` or
``filter/<CODE>`` span encloses it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core import registry
from repro.core.stages import add_stage_hook, remove_stage_hook

import common
import inputs
from spans import Span, SpanIndex, SpanRecorder

BLOCKING_STAGES = ("build", "purge", "filter", "clean")
NN_STAGES = ("preprocess", "index", "query")
LEARNED_STAGES = ("features", "train", "score", "prune")
_METHOD_PREFIXES = ("tune/", "cell/", "filter/")


@contextmanager
def installed(hook):
    """Install ``hook`` as a stage hook for the enclosed block only (no-op
    for None), so set-up and output checks leave no spans."""
    if hook is None:
        yield
        return
    add_stage_hook(hook)
    try:
        yield
    finally:
        remove_stage_hook(hook)


def check_digests(outcome: common.Outcome, workload: str, seed: int, digests: Dict[str, str]) -> None:
    print(f"# input digests {workload} seed={seed}: {digests}")
    expected = inputs.expected_digests(workload, seed)
    if expected is None:
        outcome.notes.append(f"no recorded digest for seed {seed}")
    elif expected != digests:
        outcome.error(f"input digests {digests} differ from recorded {expected}")


def _method_of(index: SpanIndex, span: Span) -> Optional[str]:
    for node in index.ancestors(span):
        for prefix in _METHOD_PREFIXES:
            if node.name.startswith(prefix):
                return node.name[len(prefix):]
    return None


def stage_metrics(recorder: SpanRecorder, rounds: int) -> Dict[str, float]:
    """Self time of every filter stage, by layer, per round."""
    index = SpanIndex(recorder.spans)
    totals = {name: 0.0 for name in common.STAGE_METRICS}
    for span in index.spans:
        if span.name in BLOCKING_STAGES:
            key = f"blocking.{span.name}_s"
        elif span.name in LEARNED_STAGES:
            key = f"learned.{span.name}_s"
        elif span.name in NN_STAGES:
            method = _method_of(index, span)
            family = registry.get(method).family if method else None
            if family not in ("sparse", "dense"):
                continue
            key = f"{family}.{span.name}_s"
        else:
            continue
        totals[key] += index.self_seconds(span)
    return {name: value / rounds for name, value in totals.items()}


def tuning_metrics(
    recorder: SpanRecorder, rounds: int,
    tuned: Sequence[str], baselines: Sequence[str],
) -> Dict[str, float]:
    index = SpanIndex(recorder.spans)
    values: Dict[str, float] = {}
    for code in tuned:
        values[f"tuning.{code}_s"] = index.total(f"tune/{code}")
    values["tuning.baselines_s"] = sum(index.total(f"cell/{code}") for code in baselines)
    values["tuning.search_self_s"] = sum(
        index.self_seconds(span) for span in index.spans if span.name.startswith("tune/")
    )
    overhead = 0.0
    for code in tuned:
        for cell in index.named(f"cell/{code}"):
            inner = sum(
                span.seconds for span in index.spans
                if span.parent == cell.id and span.name == f"tune/{code}"
            )
            overhead += cell.seconds - inner
    values["bench.harness_overhead_s"] = overhead
    return {name: value / rounds for name, value in values.items()}


def spans_between(recorder: SpanRecorder, names: Iterable[str], start: float, end: float) -> List[Span]:
    wanted = set(names)
    return [
        span for span in recorder.spans
        if span.name in wanted and span.start >= start and span.end <= end
    ]


def zero_fill(values: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric, 0 where the workload does not run the layer."""
    return {name: float(values.get(name, 0.0)) for name, __ in common.PER_LAYER}
