"""Self-test: every output check accepts a correct answer and rejects a
corrupted one.

Runs the real program on small inputs, feeds each check the program's
answer (which must pass) and then a corrupted copy (which must fail).
Exits 0 only when every check behaves.  ``python3 perfbench/run.py
--self-test``.
"""

from __future__ import annotations

import json
import os
from typing import List, Tuple

import numpy as np

from repro.bench.harness import ExperimentMatrix
from repro.core.parallel import set_default_workers
from repro.datasets import DatasetSpec, generate, load_dataset

import common
import filter_scale
import inputs
import layers
import oracles
import serve_durable
import tune_d2

class Report:
    def __init__(self) -> None:
        self.rows: List[Tuple[str, bool, bool]] = []

    def case(self, name: str, good: List[str], bad: List[str]) -> None:
        """``good``/``bad``: the check's problems on the correct and the
        corrupted answer."""
        self.rows.append((name, not good, bool(bad)))
        status = "ok " if not good and bad else "BAD"
        print(f"{status} {name}: correct answer "
              f"{'accepted' if not good else 'REJECTED ' + str(good[:1])}, corrupted "
              f"{'rejected' if bad else 'ACCEPTED'}")

    @property
    def passed(self) -> bool:
        return all(accepted and rejected for __, accepted, rejected in self.rows)


def check_metric_tables(report: Report) -> None:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())

    def mismatch(end_to_end, per_layer) -> List[str]:
        listed = {
            key: [(m["name"], m["unit"]) for m in spec[key]]
            for key in ("end_to_end", "per_layer")
        }
        if listed == {"end_to_end": list(end_to_end), "per_layer": list(per_layer)}:
            return []
        return ["BENCHMARK.json metric lists differ from the benchmark's tables"]

    renamed = [("renamed", common.PER_LAYER[0][1])] + list(common.PER_LAYER[1:])
    report.case(
        "BENCHMARK.json metric tables",
        mismatch(common.END_TO_END, common.PER_LAYER),
        mismatch(common.END_TO_END, renamed),
    )


def check_tune_cells(report: Report, work) -> None:
    dataset = load_dataset("d1")
    matrix = ExperimentMatrix(
        methods=["EJ", "HP-LSH", "DkNN"], datasets=["d1"], profile="fast",
        prune=False, cache_path=work / "selftest-matrix.json", save_every=10 ** 9,
    )
    for key in matrix.cells():
        if key.setting != "a":
            continue
        cell = matrix.run_cell(key, force=True, save=False)
        good = tune_d2.check_cell(key, cell, dataset)
        for field, value in (
            ("pc", cell.pc + 0.01),
            ("candidates", cell.candidates + 1),
            ("feasible", not cell.feasible),
        ):
            original = getattr(cell, field)
            setattr(cell, field, value)
            bad = tune_d2.check_cell(key, cell, dataset)
            setattr(cell, field, original)
            report.case(f"tune cell {key.as_string()} ({field})",
                        [good] if good else [], [bad] if bad else [])


def check_filters(report: Report) -> None:
    base = generate(DatasetSpec(
        name="selftest", domain="product", size1=200, size2=200,
        duplicates=200, seed=11, noise1=inputs.MODERATE, noise2=inputs.MODERATE,
    ))
    dataset = inputs.with_exact_copies(base, 10, 11)
    refs = filter_scale.References(dataset)
    distances = None
    for code in common.SCALE_CODES:
        pairs = set(filter_scale.build(code, dataset).candidates(
            dataset.left, dataset.right, None
        ))
        good = filter_scale.check_filter(code, pairs, refs)
        corruptions = []
        if code in ("EJ", "kNNJ"):
            expected = refs.ej if code == "EJ" else refs.knn
            corruptions.append(("drop a pair", pairs - {min(pairs)}))
            outside = next(
                (i, j) for i in range(refs.n_left) for j in range(refs.n_right)
                if (i, j) not in expected
            )
            corruptions.append(("add a pair", pairs | {outside}))
        elif code == "FAISS":
            if distances is None:
                left = refs.left_vectors.astype(np.float64)
                right = refs.right_vectors.astype(np.float64)
                distances = ((right[:, None, :] - left[None, :, :]) ** 2).sum(-1)
            i, j = min(pairs)
            farthest = int(np.argmax(distances[j]))
            corruptions.append(("swap in the farthest item", (pairs - {(i, j)}) | {(farthest, j)}))
        elif code in ("SBW", "SMB"):
            keys_l = [set(oracles.words(t)) for t in refs.left_texts]
            keys_r = [set(oracles.words(t)) for t in refs.right_texts]
            keyless = next(
                (i, j) for i in range(refs.n_left) for j in range(refs.n_right)
                if not keys_l[i] & keys_r[j]
            )
            corruptions.append(("add a keyless pair", pairs | {keyless}))
        else:
            identical = refs.identical["MH-LSH" if code == "MH-LSH" else "clean"]
            corruptions.append(("drop an identical pair", pairs - {min(identical)}))
        corruptions.append(("add a malformed pair", pairs | {(-1, 0)}))
        for label, corrupted in corruptions:
            bad = filter_scale.check_filter(code, corrupted, refs)
            report.case(f"filter {code} ({label})", good, bad)


def check_serving(report: Report, work) -> None:
    dataset = generate(DatasetSpec(
        name="selftest-serve", domain="product", size1=150, size2=100,
        duplicates=80, seed=12, noise1=inputs.MODERATE, noise2=inputs.MODERATE,
    ))
    pool = list(dataset.left) + list(dataset.right)
    catalogue = len(dataset.left)
    directory = work / "selftest-serve"
    service = serve_durable.bulk_load(directory, list(dataset.left))
    script, answers = [], []
    rounds = inputs.op_rounds(3, len(pool), catalogue)
    for __ in range(5):
        for kind, position in next(rounds):
            if kind == "add":
                service.add(pool[position])
            elif kind == "remove":
                service.remove(pool[position].uid)
            else:
                answers.append((position, service.query(pool[position])))
            script.append((kind, position))
    live = {p.uid for p in service.catalog()}
    service.close()
    reopened = serve_durable.open_service(directory)
    recovered = {p.uid for p in reopened.catalog()}
    reopened.close(checkpoint=False)

    threshold = serve_durable.PARAMS["threshold"]
    good = serve_durable.check_answers(pool, catalogue, script, answers, threshold)
    target = next(n for n, (__, answer) in enumerate(answers) if answer)
    probe, answer = answers[target]
    corrupted = list(answers)
    corrupted[target] = (probe, answer[1:])
    bad = serve_durable.check_answers(pool, catalogue, script, corrupted, threshold)
    report.case("serving answers (drop a match)", good, bad)

    good = serve_durable.check_recovered(recovered, live)
    bad = serve_durable.check_recovered(recovered - {min(recovered)}, live)
    report.case("serving recovery (lose an acknowledged uid)", good, bad)


def check_digests(report: Report) -> None:
    seed = min(inputs.DIGEST_SEEDS)
    digests = inputs.input_digests("filter-scale", seed)
    good, bad = common.Outcome(), common.Outcome()
    layers.check_digests(good, "filter-scale", seed, digests)
    layers.check_digests(bad, "filter-scale", seed, {"dataset": "0" * 16})
    report.case("input digests", good.errors, bad.errors)


def check_tree(report: Report) -> None:
    before = common.tree_state()
    probe = common.BENCH_DIR / ".selftest-probe"
    probe.write_text("x")
    try:
        bad = common.tree_changes(before, common.tree_state())
    finally:
        probe.unlink()
    good = common.tree_changes(before, common.tree_state())
    report.case("working-tree guard", good, bad)


def main() -> int:
    set_default_workers(1)
    report = Report()
    work = common.make_work_dir()
    cwd = os.getcwd()
    try:
        os.chdir(work)
        check_metric_tables(report)
        check_digests(report)
        check_tree(report)
        check_filters(report)
        check_serving(report, work)
        check_tune_cells(report, work)
    finally:
        os.chdir(cwd)
        common.remove_work_dir(work)
    total = len(report.rows)
    good = sum(1 for __, a, r in report.rows if a and r)
    print(f"self-test: {good}/{total} checks accept correct and reject corrupted output")
    return 0 if report.passed else 1
