"""The benchmark's inputs: dataset specs, their construction and digests.

Every input is built through the public ``repro.datasets`` API from the
specs below (kept here, not borrowed from ``benchmarks/*.py``), so a
change to the program cannot silently change what the benchmark feeds
it.  Each input's digest is printed and compared with ``digests.json``;
``python3 perfbench/run.py --write-digests`` regenerates that file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.groundtruth import GroundTruth
from repro.core.profile import EntityCollection, EntityProfile
from repro.datasets import DatasetSpec, ERDataset, NoiseProfile, generate

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"
#: Seeds whose digests ``--write-digests`` records.  Other seeds run
#: normally; their digests are printed but have nothing to compare with.
DIGEST_SEEDS = range(0, 64)

#: The noise of the paper's product datasets (d2/d3 analogues).
MODERATE = NoiseProfile(
    typo_rate=0.22, token_drop_rate=0.18, abbreviation_rate=0.08,
    missing_value_rate=0.05, misplace_rate=0.02, extra_token_rate=0.20,
)

#: d2 exactly as ``repro.datasets.registry`` defines it (Abt-Buy
#: analogue, 180 x 180, full overlap).  ``tune-d2`` runs the registry's
#: d2 through ``ExperimentMatrix``; this copy lets the benchmark check
#: that the registry still produces the same dataset.
D2_SPEC = DatasetSpec(
    name="d2", domain="product", size1=180, size2=180, duplicates=180,
    seed=102, noise1=MODERATE, noise2=MODERATE,
    misplace_target="description",
    description="Abt-Buy analogue (full overlap)",
)

#: filter-scale: a d2-like product dataset scaled ~8x per side.
SCALE_SIZE = 1500
#: Duplicates whose right-hand view is an exact copy of the left one, so
#: the LSH property "identical representations collide" has cases to
#: check (the noise model alone produces none at this size).
SCALE_EXACT_COPIES = 60

#: serve-durable: a 2,000-entity catalogue plus 1,000 entities that are
#: added, removed and probed during the run (800 of them duplicates of
#: catalogue entities, so queries find matches).
SERVE_CATALOGUE = 2000
SERVE_SPARE = 1000
SERVE_DUPLICATES = 800


def scale_spec(seed: int) -> DatasetSpec:
    return DatasetSpec(
        name=f"scale-{seed}", domain="product",
        size1=SCALE_SIZE, size2=SCALE_SIZE, duplicates=SCALE_SIZE,
        seed=7_000_000 + seed, noise1=MODERATE, noise2=MODERATE,
        misplace_target="description",
    )


def serve_spec(seed: int) -> DatasetSpec:
    return DatasetSpec(
        name=f"serve-{seed}", domain="product",
        size1=SERVE_CATALOGUE, size2=SERVE_SPARE,
        duplicates=SERVE_DUPLICATES, seed=9_000_000 + seed,
        noise1=MODERATE, noise2=MODERATE, misplace_target="description",
    )


def scale_dataset(seed: int) -> ERDataset:
    """The filter-scale input: the generated dataset with a seeded set of
    duplicates whose right view is an exact copy of the left one."""
    return with_exact_copies(generate(scale_spec(seed)), SCALE_EXACT_COPIES, seed)


def with_exact_copies(base: ERDataset, count: int, seed: int) -> ERDataset:
    """``base`` with ``count`` seeded duplicates' right-hand views replaced
    by exact copies of their left-hand views (groundtruth (i, i))."""
    rng = np.random.default_rng(seed)
    copies = set(rng.choice(base.spec.duplicates, size=count, replace=False).tolist())
    right = EntityCollection(name=base.right.name)
    for position, profile in enumerate(base.right):
        if position in copies:
            profile = EntityProfile(
                uid=profile.uid, attributes=dict(base.left[position].attributes)
            )
        right.add(profile)
    return ERDataset(
        spec=base.spec, left=base.left, right=right,
        groundtruth=GroundTruth(base.groundtruth),
    )


def serve_dataset(seed: int) -> ERDataset:
    return generate(serve_spec(seed))


# ----------------------------------------------------------------------
# The serving op script.
# ----------------------------------------------------------------------

#: One round of client requests: 70 queries, 15 adds, 15 removes, in a
#: seeded order.  Adds and removes balance, so the catalogue stays at
#: its pre-loaded size.
ROUND_QUERIES, ROUND_ADDS, ROUND_REMOVES = 70, 15, 15
ROUND_OPS = ROUND_QUERIES + ROUND_ADDS + ROUND_REMOVES

Op = Tuple[str, int]  # ("query" | "add" | "remove", pool position)


def op_rounds(seed: int, pool_size: int, catalogue: int) -> Iterator[List[Op]]:
    """Endless seeded rounds of ops over a pool of entities.

    Positions ``[0, catalogue)`` start live.  Adds draw from the absent
    entities (re-adding removed ones is allowed), removes from the live
    ones, queries probe any pool entity.  The script depends on the seed
    only, never on the program's answers.
    """
    rng = np.random.default_rng(5_000_000 + seed)
    live = list(range(catalogue))
    absent = list(range(catalogue, pool_size))
    kinds = (
        ["query"] * ROUND_QUERIES + ["add"] * ROUND_ADDS
        + ["remove"] * ROUND_REMOVES
    )
    while True:
        order = rng.permutation(ROUND_OPS)
        ops: List[Op] = []
        for slot in order:
            kind = kinds[int(slot)]
            if kind == "add":
                position = absent.pop(int(rng.integers(len(absent))))
                live.append(position)
            elif kind == "remove":
                position = live.pop(int(rng.integers(len(live))))
                absent.append(position)
            else:
                position = int(rng.integers(pool_size))
            ops.append((kind, position))
        yield ops


# ----------------------------------------------------------------------
# Digests.
# ----------------------------------------------------------------------


def _hash_collection(digest, collection: EntityCollection) -> None:
    for profile in collection:
        line = json.dumps(
            [profile.uid, sorted(profile.attributes.items())],
            separators=(",", ":"),
        )
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")


def dataset_digest(dataset: ERDataset) -> str:
    digest = hashlib.sha256()
    _hash_collection(digest, dataset.left)
    digest.update(b"--\n")
    _hash_collection(digest, dataset.right)
    digest.update(b"--\n")
    for left, right in sorted(dataset.groundtruth):
        digest.update(f"{left},{right}\n".encode("ascii"))
    return digest.hexdigest()[:16]


def ops_digest(seed: int, pool_size: int, catalogue: int, rounds: int = 20) -> str:
    digest = hashlib.sha256()
    script = op_rounds(seed, pool_size, catalogue)
    for __ in range(rounds):
        for kind, position in next(script):
            digest.update(f"{kind}:{position}\n".encode("ascii"))
    return digest.hexdigest()[:16]


def input_digests(workload: str, seed: int) -> Dict[str, str]:
    """Digest of every input a workload builds for ``seed``."""
    if workload == "tune-d2":
        return {"d2": dataset_digest(generate(D2_SPEC))}
    if workload == "filter-scale":
        return {"dataset": dataset_digest(scale_dataset(seed))}
    pool = SERVE_CATALOGUE + SERVE_SPARE
    return {
        "dataset": dataset_digest(serve_dataset(seed)),
        "ops": ops_digest(seed, pool, SERVE_CATALOGUE),
    }


def expected_digests(workload: str, seed: int) -> Optional[Dict[str, str]]:
    """The recorded digests for (workload, seed), or None if unrecorded."""
    if not DIGESTS_PATH.exists():
        return None
    table = json.loads(DIGESTS_PATH.read_text())
    entry = table.get(workload, {})
    key = "any" if workload == "tune-d2" else str(seed)
    return entry.get(key)


def write_digests() -> None:
    table: Dict[str, Dict[str, Dict[str, str]]] = {
        "tune-d2": {"any": input_digests("tune-d2", 0)}
    }
    for workload in ("filter-scale", "serve-durable"):
        table[workload] = {
            str(seed): input_digests(workload, seed) for seed in DIGEST_SEEDS
        }
    # One line per (workload, seed), so a changed input shows as one line.
    blocks = []
    for workload, entries in table.items():
        rows = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
            for key, value in entries.items()
        )
        blocks.append(f" {json.dumps(workload)}: {{\n{rows}\n }}")
    DIGESTS_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
