"""Workload ``filter-scale``: one selected configuration per family, at scale.

The paper's RT column without tuning: each filter runs once per round
over a seeded 1,500 x 1,500 product dataset.  The configurations are
the ones the fast-profile matrix selects on d2 setting a; SMB trains its
model in the run.  Kernel, candidate-representation and SMB-graph
changes show here; tuner-only changes must not move it.
"""

from __future__ import annotations

import time
from typing import Dict, List, Set

from repro.core import registry
from repro.core.parallel import set_default_workers
from repro.datasets import ERDataset
from repro.dense import HashedNGramEmbedder
from repro.learned import SupervisedMetaBlocking
from repro.text.cleaning import TextCleaner

import common
import inputs
import layers
import oracles

CONFIGS: Dict[str, Dict[str, object]] = {
    "SBW": {"purging": False, "ratio": 1.0, "cleaner": "EJS+BLAST"},
    "EJ": {"cleaning": True, "model": "T1G", "measure": "cosine", "threshold": 0.34},
    "kNNJ": {"cleaning": False, "reverse": False, "model": "C3G", "measure": "cosine", "k": 1},
    "MH-LSH": {"bands": 64, "rows": 4, "shingle_k": 3, "cleaning": False},
    "HP-LSH": {"tables": 32, "hashes": 10, "probes": 128, "cleaning": True},
    "CP-LSH": {"tables": 32, "hashes": 1, "last_cp_dimension": 512, "probes": 64, "cleaning": True},
    "FAISS": {"cleaning": True, "reverse": False, "k": 3},
}
#: SMB trained in the run from the groundtruth (oracle mode), so its RT
#: covers blocking, features, training, scoring and pruning.
SMB_CONFIG = {
    "model_kind": "logistic", "sample_size": 200, "pruning": "WEP",
    "threshold": 0.05, "seed": 7,
}
SETUP_REPEATS = 3


def build(code: str, dataset: ERDataset):
    if code == "SMB":
        return SupervisedMetaBlocking(oracle=dataset.groundtruth, **SMB_CONFIG)
    return registry.build_filter(code, CONFIGS[code])


class References:
    """Brute-force answers and properties for one dataset, built once."""

    def __init__(self, dataset: ERDataset) -> None:
        self.n_left, self.n_right = len(dataset.left), len(dataset.right)
        self.left_texts = dataset.left.texts(None)
        self.right_texts = dataset.right.texts(None)
        cleaner = TextCleaner()
        left_clean = [cleaner.clean(text) for text in self.left_texts]
        right_clean = [cleaner.clean(text) for text in self.right_texts]
        ej, knn = CONFIGS["EJ"], CONFIGS["kNNJ"]
        self.ej = oracles.epsilon_join_pairs(
            [frozenset(oracles.words(t)) for t in left_clean],
            [frozenset(oracles.words(t)) for t in right_clean],
            float(ej["threshold"]),
        )
        self.knn = oracles.knn_join_pairs(
            [oracles.qgrams(t, 3) for t in self.left_texts],
            [oracles.qgrams(t, 3) for t in self.right_texts],
            int(knn["k"]),
        )
        embedder = HashedNGramEmbedder()
        self.left_vectors = embedder.embed_texts(left_clean)
        self.right_vectors = embedder.embed_texts(right_clean)
        # What each LSH family hashes: the normalized text (MinHash
        # shingles, no cleaning) or the embedding of the cleaned text.
        self.identical = {
            "MH-LSH": oracles.identical_pairs(
                [" ".join(oracles.words(t)) for t in self.left_texts],
                [" ".join(oracles.words(t)) for t in self.right_texts],
            ),
            "clean": oracles.identical_pairs(left_clean, right_clean),
        }
        self.groundtruth: Set = set(dataset.groundtruth)


def check_filter(code: str, pairs, refs: References) -> List[str]:
    pairs = set(pairs)
    problems = oracles.check_well_formed(code, pairs, refs.n_left, refs.n_right)
    if code == "EJ":
        problems += oracles.compare_pairs(code, pairs, refs.ej)
    elif code == "kNNJ":
        problems += oracles.compare_pairs(code, pairs, refs.knn)
    elif code == "FAISS":
        problems += oracles.check_knn_search(
            code, pairs, refs.left_vectors, refs.right_vectors,
            int(CONFIGS["FAISS"]["k"]), reverse=False,
        )
    elif code in ("SBW", "SMB"):
        problems += oracles.check_shared_key(code, pairs, refs.left_texts, refs.right_texts)
    else:
        identical = refs.identical["MH-LSH" if code == "MH-LSH" else "clean"]
        problems += oracles.check_identical_collide(code, pairs, identical)
    return problems


def run(seed: int, seconds: float, recorder, outcome: common.Outcome, work, import_s: float) -> None:
    set_default_workers(1)
    generate_times = []
    for __ in range(SETUP_REPEATS):
        elapsed, dataset = common.timed(inputs.scale_dataset, seed)
        generate_times.append(elapsed)
    layers.check_digests(
        outcome, "filter-scale", seed, {"dataset": inputs.dataset_digest(dataset)}
    )

    def one_round(number: int):
        results = {}
        start = time.perf_counter()
        for code in common.SCALE_CODES:
            began = time.perf_counter()
            try:
                filter_ = build(code, dataset)
                if recorder is not None:
                    with recorder.span(f"filter/{code}"):
                        pairs = filter_.candidates(dataset.left, dataset.right, None)
                else:
                    pairs = filter_.candidates(dataset.left, dataset.right, None)
            except Exception as error:  # noqa: BLE001 - counted as a failed run
                pairs = error
            results[code] = (time.perf_counter() - began, pairs)
        return time.perf_counter() - start, results

    with layers.installed(recorder):
        rounds = common.run_rounds(seconds, one_round)
    outcome.end_to_end["peak_rss_mb"] = rounds[0][2]

    refs = References(dataset)
    first = rounds[0][1]
    for __, results, __ in rounds:
        for code, (__, pairs) in results.items():
            outcome.attempted += 1
            if isinstance(pairs, Exception):
                problems = [f"{code} raised {pairs!r}"]
            elif results is not first and pairs == first[code][1]:
                continue  # same answer as the checked first round
            else:
                problems = check_filter(code, pairs, refs)
            if problems:
                outcome.failed += 1
                for problem in problems:
                    outcome.error(problem)

    walls = [elapsed for elapsed, __, __ in rounds]
    filter_times = {
        code: [results[code][0] for __, results, __ in rounds]
        for code in common.SCALE_CODES
    }
    median_wall = common.median(walls)
    outcome.end_to_end.update(
        elapsed_s=median_wall,
        setup_s=import_s + common.median(generate_times),
        ops_per_s=len(common.SCALE_CODES) / median_wall,
    )
    per_layer = outcome.per_layer
    per_layer["datasets.generate_s"] = common.median(generate_times)
    for code in common.SCALE_CODES:
        pairs = first[code][1]
        if isinstance(pairs, Exception):
            continue
        pc, pq, size = oracles.effectiveness(pairs, refs.groundtruth)
        per_layer[f"filter.{code}_s"] = common.median(filter_times[code])
        per_layer[f"filter.{code}.candidates"] = size
        per_layer[f"filter.{code}.pq"] = pq
    if recorder is not None:
        per_layer.update(layers.stage_metrics(recorder, len(rounds)))
