"""Workload ``tune-d2``: Problem-1 tuning of all 18 methods on d2.

The experiment matrix as users run it (``ExperimentMatrix.run_cell``),
settings a and b, 36 cells, fast profile, pruning off, one worker, a
fresh empty cache.  Tuning search is ~90% of the time (CP-LSH alone
about half), so tuner changes show here; per-filter kernels matter
little on 180 x 180 inputs.  d2 is fixed: ``--seed`` does not change
this workload's input.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.bench.harness import CellResult, ExperimentMatrix, SettingKey
from repro.bench.resilience import ExecutionPolicy
from repro.core import registry
from repro.core.optimizer import DEFAULT_RECALL_TARGET
from repro.core.parallel import set_default_workers
from repro.datasets import ERDataset, generate, load_dataset
from repro.datasets.stats import reset_shared_stats_cache
from repro.text.memo import clear_tokenize_cache

import common
import inputs
import oracles
import layers

#: Cells that fail their check on every run because of a known fault;
#: they are counted as failed operations, not as wrong output.
KNOWN_FAULTS = {
    ("DB", "d2", "a"): "KNNSearchTuner._ranked_ids trains the autoencoder"
    " for 12 epochs, the selected DeepBlocker for 20",
    ("DB", "d2", "b"): "KNNSearchTuner._ranked_ids trains the autoencoder"
    " for 12 epochs, the selected DeepBlocker for 20",
}
EXPECTED_CELLS = 36
SETUP_REPEATS = 3
#: Equality tolerance for PC/PQ: the cardinality tuners average hit
#: counts before dividing, the rerun averages ratios.
TOLERANCE = 1e-9


def rerun_seeds(code: str, stochastic: bool) -> List[Optional[int]]:
    """The repetitions and reseeding the cell's tuner used.

    ``GridSearchOptimizer.evaluate`` reseeds a stochastic filter with the
    repetition number: the LSH tuners run 1 repetition, the harness
    evaluates baselines with 2, and ``KNNSearchTuner`` averages DB over
    3 training seeds.  Deterministic filters run once, unseeded.
    """
    if not stochastic:
        return [None]
    if code == "DB":
        return [0, 1, 2]
    if registry.get(code).is_baseline:
        return [0, 1]
    return [0]


def check_cell(key: SettingKey, cell: CellResult, dataset: ERDataset) -> Optional[str]:
    """Rebuild and rerun a cell's selected configuration; compare figures."""
    if not cell.ok:
        return f"status {cell.status}: {cell.error}"
    if cell.feasible != (cell.pc >= DEFAULT_RECALL_TARGET):
        return f"feasible={cell.feasible} but PC={cell.pc}"
    spec = registry.get(key.method)
    filter_ = spec.build_filter(None if spec.is_baseline else cell.params)
    attribute = dataset.key_attribute if key.setting == "b" else None
    groundtruth = set(dataset.groundtruth)
    pcs, pqs, sizes = [], [], []
    for seed in rerun_seeds(key.method, filter_.is_stochastic):
        if seed is not None:
            filter_.reseed(seed)
        pairs = filter_.candidates(dataset.left, dataset.right, attribute)
        pc, pq, size = oracles.effectiveness(pairs, groundtruth)
        pcs.append(pc)
        pqs.append(pq)
        sizes.append(size)
    pc = sum(pcs) / len(pcs)
    pq = sum(pqs) / len(pqs)
    size = round(sum(sizes) / len(sizes))
    if (
        abs(pc - cell.pc) > TOLERANCE
        or abs(pq - cell.pq) > TOLERANCE
        or size != cell.candidates
    ):
        return (
            f"reported PC={cell.pc:.4f} PQ={cell.pq:.4f} |C|={cell.candidates},"
            f" rerun PC={pc:.4f} PQ={pq:.4f} |C|={size}"
        )
    return None


def run(seed: int, seconds: float, recorder, outcome: common.Outcome, work, import_s: float) -> None:
    set_default_workers(1)
    generate_times = []
    for __ in range(SETUP_REPEATS):
        elapsed, generated = common.timed(generate, inputs.D2_SPEC)
        generate_times.append(elapsed)
    dataset = load_dataset("d2")
    digests = {"d2": inputs.dataset_digest(dataset)}
    if digests["d2"] != inputs.dataset_digest(generated):
        outcome.error("registry d2 differs from the benchmark's d2 spec")
    layers.check_digests(outcome, "tune-d2", seed, digests)

    def one_round(number: int):
        # Process-wide memo caches would let a second round reuse the
        # first round's tokenization; every round starts cold.
        clear_tokenize_cache()
        reset_shared_stats_cache()
        matrix = ExperimentMatrix(
            datasets=["d2"],
            profile="fast",
            prune=False,
            cache_path=work / f"matrix-{number}.json",
            policy=ExecutionPolicy(),
            save_every=10 ** 9,
        )
        keys = list(matrix.cells())
        cached = [
            k for k in keys
            if matrix.get(k.method, k.dataset, k.setting, include_failed=True)
        ]
        if len(keys) != EXPECTED_CELLS or cached:
            outcome.error(f"{len(keys)} cells in scope, {len(cached)} cached")
        cells = []
        start = time.perf_counter()
        for key in keys:
            if recorder is not None:
                with recorder.span(f"cell/{key.method}"):
                    cell = matrix.run_cell(key, force=True, save=False)
            else:
                cell = matrix.run_cell(key, force=True, save=False)
            cells.append((key, cell))
        return time.perf_counter() - start, cells

    with layers.installed(recorder):
        rounds = common.run_rounds(seconds, one_round)
    outcome.end_to_end["peak_rss_mb"] = rounds[0][2]
    for elapsed, cells, __ in rounds:
        outcome.attempted += len(cells)
        for key, cell in cells:
            problem = check_cell(key, cell, dataset)
            if problem is None:
                continue
            outcome.failed += 1
            ident = (key.method, key.dataset, key.setting)
            if ident in KNOWN_FAULTS:
                outcome.notes.append(
                    f"known fault {key.as_string()}: {problem} ({KNOWN_FAULTS[ident]})"
                )
            else:
                outcome.error(f"{key.as_string()}: {problem}")

    walls = [elapsed for elapsed, __, __ in rounds]
    median_wall = common.median(walls)
    outcome.end_to_end.update(
        elapsed_s=median_wall,
        setup_s=import_s + common.median(generate_times),
        ops_per_s=EXPECTED_CELLS / median_wall,
    )
    per_layer = outcome.per_layer
    per_layer["datasets.generate_s"] = common.median(generate_times)
    last_cells = rounds[-1][1]
    tuned = [cell for key, cell in last_cells if not registry.get(key.method).is_baseline]
    per_layer["tuning.configs_tried"] = sum(c.configurations_tried for c in tuned)
    per_layer["tuning.selected_rt_s"] = sum(c.runtime for __, c in last_cells)
    if recorder is not None:
        per_layer.update(layers.tuning_metrics(
            recorder, len(rounds), common.TUNED_CODES, common.BASELINE_CODES
        ))
        per_layer.update(layers.stage_metrics(recorder, len(rounds)))
