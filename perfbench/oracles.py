"""Output checks computed apart from the program.

Each check takes the program's answer plus the input and returns a list
of problems (empty when the answer is right).  The references are brute
force over the whole input — token-incidence products for the set
joins, all-pairs L2 for the exact kNN search — or properties every
correct answer must have (a shared blocking key, identical inputs
colliding).  Tokenization is re-implemented here where it is plain
(whitespace tokens, character q-grams); stop-word removal and stemming
come from ``repro.text.TextCleaner``, and embeddings from
``repro.dense.HashedNGramEmbedder``, since the checks target the joins,
searches and pruning, not those two.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

import numpy as np

Pair = Tuple[int, int]

_NON_ALNUM = re.compile(r"[^0-9a-z]+")


def words(text: str) -> List[str]:
    return _NON_ALNUM.sub(" ", text.lower()).split()


def qgrams(text: str, q: int) -> FrozenSet[str]:
    grams: Set[str] = set()
    for token in words(text):
        if len(token) <= q:
            grams.add(token)
        else:
            grams.update(token[i:i + q] for i in range(len(token) - q + 1))
    return frozenset(grams)


def profile_text(attributes: Dict[str, str]) -> str:
    return " ".join(
        value.strip() for __, value in sorted(attributes.items())
        if value and value.strip()
    )


# ----------------------------------------------------------------------
# Brute-force set similarity.
# ----------------------------------------------------------------------


def overlap_matrix(
    rows: Sequence[FrozenSet[str]], cols: Sequence[FrozenSet[str]],
    block: int = 4096,
) -> np.ndarray:
    """|rows[i] & cols[j]| for every pair, as incidence-matrix products.

    The vocabulary is processed in blocks, so the dense incidence slices
    stay small; float32 counts are exact far beyond any set size here.
    """
    vocabulary: Dict[str, int] = {}
    for tokens in list(rows) + list(cols):
        for token in tokens:
            vocabulary.setdefault(token, len(vocabulary))

    def coordinates(sets):
        ids = [np.fromiter((vocabulary[t] for t in s), np.int64, len(s)) for s in sets]
        owner = np.repeat(np.arange(len(sets)), [len(i) for i in ids])
        flat = np.concatenate(ids) if ids else np.zeros(0, np.int64)
        return owner, flat

    row_owner, row_tok = coordinates(rows)
    col_owner, col_tok = coordinates(cols)
    result = np.zeros((len(rows), len(cols)), dtype=np.float32)
    for lo in range(0, max(1, len(vocabulary)), block):
        hi = lo + block
        a = np.zeros((len(rows), block), dtype=np.float32)
        b = np.zeros((len(cols), block), dtype=np.float32)
        keep = (row_tok >= lo) & (row_tok < hi)
        a[row_owner[keep], row_tok[keep] - lo] = 1.0
        keep = (col_tok >= lo) & (col_tok < hi)
        b[col_owner[keep], col_tok[keep] - lo] = 1.0
        result += a @ b.T
    return result.astype(np.int64)


def cosine_matrix(
    rows: Sequence[FrozenSet[str]], cols: Sequence[FrozenSet[str]]
) -> Tuple[np.ndarray, np.ndarray]:
    """``(overlaps, cosine)`` of every pair; empty sets score 0."""
    overlaps = overlap_matrix(rows, cols)
    row_sizes = np.array([len(s) for s in rows], dtype=np.int64)
    col_sizes = np.array([len(s) for s in cols], dtype=np.int64)
    denominator = np.sqrt(row_sizes[:, None] * col_sizes[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        cosine = overlaps.astype(np.float64) / denominator
    return overlaps, np.where(denominator > 0.0, cosine, 0.0)


def pairs_of(mask: np.ndarray) -> Set[Pair]:
    lefts, rights = np.nonzero(mask)
    return set(zip(lefts.tolist(), rights.tolist()))


def compare_pairs(label: str, got: Iterable[Pair], expected: Set[Pair]) -> List[str]:
    got = set(got)
    if got == expected:
        return []
    missing = sorted(expected - got)
    extra = sorted(got - expected)
    return [
        f"{label}: {len(missing)} pairs missing (e.g. {missing[:3]}), "
        f"{len(extra)} unexpected (e.g. {extra[:3]})"
    ]


def epsilon_join_pairs(
    left: Sequence[FrozenSet[str]], right: Sequence[FrozenSet[str]],
    threshold: float,
) -> Set[Pair]:
    overlaps, cosine = cosine_matrix(left, right)
    return pairs_of((overlaps > 0) & (cosine >= threshold))


def knn_join_pairs(
    indexed: Sequence[FrozenSet[str]], queries: Sequence[FrozenSet[str]],
    k: int,
) -> Set[Tuple[int, int]]:
    """(indexed id, query id) pairs: per query, every overlapping set
    whose similarity is among the k highest distinct values."""
    overlaps, cosine = cosine_matrix(indexed, queries)
    result: Set[Tuple[int, int]] = set()
    for query in range(len(queries)):
        hits = np.flatnonzero(overlaps[:, query] > 0)
        if len(hits) == 0:
            continue
        values = cosine[hits, query]
        distinct = np.unique(values)[::-1]
        cutoff = distinct[min(k, len(distinct)) - 1]
        result.update((int(i), query) for i in hits[values >= cutoff])
    return result


# ----------------------------------------------------------------------
# Properties.
# ----------------------------------------------------------------------


def check_well_formed(label: str, pairs: Iterable[Pair], n_left: int, n_right: int) -> List[str]:
    bad = [
        pair for pair in pairs
        if not (isinstance(pair[0], int) and isinstance(pair[1], int)
                and 0 <= pair[0] < n_left and 0 <= pair[1] < n_right)
    ]
    return [f"{label}: {len(bad)} malformed pairs (e.g. {bad[:3]})"] if bad else []


def check_shared_key(
    label: str, pairs: Iterable[Pair],
    left_texts: Sequence[str], right_texts: Sequence[str],
) -> List[str]:
    """Every candidate of a token-blocking method shares a token key."""
    left_keys = [set(words(text)) for text in left_texts]
    right_keys = [set(words(text)) for text in right_texts]
    bad = [pair for pair in pairs if not left_keys[pair[0]] & right_keys[pair[1]]]
    return [f"{label}: {len(bad)} candidates share no blocking key (e.g. {bad[:3]})"] if bad else []


def identical_pairs(left_repr: Sequence[str], right_repr: Sequence[str]) -> Set[Pair]:
    by_text: Dict[str, List[int]] = {}
    for i, text in enumerate(left_repr):
        by_text.setdefault(text, []).append(i)
    return {
        (i, j) for j, text in enumerate(right_repr) for i in by_text.get(text, ())
    }


def check_identical_collide(label: str, pairs: Iterable[Pair], identical: Set[Pair]) -> List[str]:
    """Entities with identical representations hash identically in every
    table, so an LSH filter must return them as candidates."""
    missing = sorted(identical - set(pairs))
    return [f"{label}: {len(missing)} identical pairs did not collide (e.g. {missing[:3]})"] if missing else []


def check_knn_search(
    label: str, pairs: Iterable[Pair], indexed: np.ndarray, queries: np.ndarray,
    k: int, reverse: bool, tolerance: float = 1e-4,
) -> List[str]:
    """Each query's returned ids are k nearest by L2, ties in any order:
    nothing left out is closer (beyond float32 rounding) than anything
    returned."""
    indexed = indexed.astype(np.float64)
    queries = queries.astype(np.float64)
    distances = (
        (queries ** 2).sum(1)[:, None] + (indexed ** 2).sum(1)[None, :]
        - 2.0 * queries @ indexed.T
    )
    chosen: Dict[int, Set[int]] = {q: set() for q in range(len(queries))}
    for left, right in pairs:
        query, item = (left, right) if reverse else (right, left)
        chosen[query].add(item)
    want = min(k, len(indexed))
    problems = []
    for query, items in chosen.items():
        row = distances[query]
        if len(items) != want:
            problems.append((query, f"{len(items)} results, expected {want}"))
            continue
        mask = np.zeros(len(row), dtype=bool)
        mask[list(items)] = True
        worst_in = row[mask].max()
        best_out = row[~mask].min() if (~mask).any() else np.inf
        if worst_in > best_out + tolerance:
            problems.append((query, f"returned {worst_in:.6f} beyond {best_out:.6f}"))
    return [f"{label}: {len(problems)} queries break the k-nearest property (e.g. {problems[:2]})"] if problems else []


# ----------------------------------------------------------------------
# Effectiveness figures from pairs and groundtruth.
# ----------------------------------------------------------------------


def effectiveness(pairs: Iterable[Pair], groundtruth: Set[Pair]) -> Tuple[float, float, int]:
    """(PC, PQ, |C|) of one candidate set."""
    pairs = set(pairs)
    found = len(pairs & groundtruth)
    pc = found / len(groundtruth) if groundtruth else 0.0
    pq = found / len(pairs) if pairs else 0.0
    return pc, pq, len(pairs)
