"""Workload ``serve-durable``: a durable ServingIndex under a closed loop.

A ``ServingIndex`` over incremental ScanCount ε-Join (T1G, cosine,
threshold 0.5) with its WAL and checkpoints in the run's scratch
directory.  Set-up pre-loads a 2,000-entity catalogue.  After ten
untimed warm-up rounds, the timed phase is one client thread plus the
writer thread, both pinned to one CPU: seeded rounds of 70
queries, 15 adds and 15 removes.  Adds and removes are admitted without
waiting; before each query the client waits on its own pending tickets
(read-your-writes), so every answer is deterministic.  This exercises
admission, WAL, publish and query, and nothing of tuning.
"""

from __future__ import annotations

import os
import time
from typing import List, Sequence, Set, Tuple

import numpy as np

from repro.core import registry
from repro.core.profile import EntityProfile

import common
import inputs
import layers
import oracles

PARAMS = {"threshold": 0.5, "model": "T1G", "measure": "cosine"}
#: Group commit of up to 64 ops, a checkpoint (plus WAL truncation)
#: every 1,000 applied mutations, and a queue bound the closed loop
#: never reaches.
SERVICE = {"batch_limit": 64, "checkpoint_every": 1000, "queue_limit": 1 << 16}
SETUP_REPEATS = 3
#: Untimed rounds after set-up; their answers are checked all the same.
WARMUP_ROUNDS = 10
WAL_NAME = "wal.jsonl"
MUTATION_SPANS = ("add", "remove")

QueryRecord = Tuple[int, Tuple[str, ...]]  # (probe position, answer uids)


def open_service(directory):
    return registry.build_serving("EJ", PARAMS, directory=directory, **SERVICE)


def bulk_load(directory, catalogue: Sequence[EntityProfile]):
    service = open_service(directory)
    ticket = None
    for profile in catalogue:
        ticket = service.add(profile, wait=False)
    ticket.wait()
    return service


class WalBytes:
    """Bytes appended to the WAL, summed across checkpoint truncations.

    A stage hook reads the log's size when a checkpoint starts (the log
    is truncated right after).
    """

    def __init__(self, path) -> None:
        self.path = path
        self.total = 0
        self.start_size = 0

    def size(self) -> int:
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    def __call__(self, event: str, name: str) -> None:
        if event == "enter" and name == "serving/checkpoint":
            self.total += self.size()

    def written(self) -> int:
        return self.total + self.size() - self.start_size


def expected_matches(pool: Sequence[EntityProfile], threshold: float) -> List[np.ndarray]:
    """For every pool entity, the pool positions an ε-join would match."""
    tokens = [frozenset(oracles.words(oracles.profile_text(p.attributes))) for p in pool]
    overlaps, cosine = oracles.cosine_matrix(tokens, tokens)
    keep = (overlaps > 0) & (cosine >= threshold)
    return [np.flatnonzero(row) for row in keep]


def check_answers(
    pool: Sequence[EntityProfile], catalogue: int,
    script: Sequence[Tuple[str, int]], answers: Sequence[QueryRecord],
    threshold: float,
) -> List[str]:
    """Replay the op script against a client-side live set; every query
    answer must equal the brute-force ε-join of its probe against it."""
    matches = expected_matches(pool, threshold)
    live = np.zeros(len(pool), dtype=bool)
    live[:catalogue] = True
    problems = []
    answer_iter = iter(answers)
    for kind, position in script:
        if kind == "add":
            live[position] = True
        elif kind == "remove":
            live[position] = False
        else:
            probe, answer = next(answer_iter)
            hits = matches[probe]
            expected = tuple(sorted(pool[i].uid for i in hits[live[hits]]))
            if answer != expected:
                problems.append(
                    f"query {pool[probe].uid}: got {len(answer)} uids,"
                    f" expected {len(expected)}"
                )
    return problems


def check_recovered(recovered: Set[str], acknowledged: Set[str]) -> List[str]:
    if recovered == acknowledged:
        return []
    return [
        f"recovered catalogue differs: {len(acknowledged - recovered)} acknowledged"
        f" uids missing, {len(recovered - acknowledged)} extra"
    ]


def run(seed: int, seconds: float, recorder, outcome: common.Outcome, work, import_s: float) -> None:
    # Client and writer share one CPU.  Each read-your-writes wait hands
    # over between them; across two shared vCPUs a hand-over also waits
    # for the host to wake the other vCPU.  In interleaved one-second
    # windows of one process, unpinned round times spread 2-3x wider
    # than pinned ones (see README.md).
    cpu = common.pin_to_one_cpu()
    outcome.notes.append(f"client and writer pinned to CPU {cpu}")
    setup_times, generate_times = [], []
    service = None
    for attempt in range(SETUP_REPEATS):
        began = time.perf_counter()
        dataset = inputs.serve_dataset(seed)
        generated = time.perf_counter()
        if service is not None:
            service.close(checkpoint=False)
        directory = work / f"serve-{attempt}"
        service = bulk_load(directory, list(dataset.left))
        setup_times.append(time.perf_counter() - began)
        generate_times.append(generated - began)
    pool = list(dataset.left) + list(dataset.right)
    catalogue = inputs.SERVE_CATALOGUE
    layers.check_digests(outcome, "serve-durable", seed, {
        "dataset": inputs.dataset_digest(dataset),
        "ops": inputs.ops_digest(seed, len(pool), catalogue),
    })

    script_rounds = inputs.op_rounds(seed, len(pool), catalogue)
    script: List[Tuple[str, int]] = []
    answers: List[QueryRecord] = []
    query_s: List[float] = []
    ack_wait_s: List[float] = []
    request_s: List[float] = []
    errors: List[str] = []

    def one_round(number: int):
        ops = next(script_rounds)
        pending = []
        start = time.perf_counter()
        for kind, position in ops:
            try:
                if kind == "add":
                    pending.append(service.add(pool[position], wait=False))
                elif kind == "remove":
                    pending.append(service.remove(pool[position].uid, wait=False))
                else:
                    began = time.perf_counter()
                    for ticket in pending:
                        ticket.wait()
                    waited = time.perf_counter()
                    answer = service.query(pool[position])
                    done = time.perf_counter()
                    if pending:
                        ack_wait_s.append(waited - began)
                    pending = []
                    query_s.append(done - waited)
                    request_s.append(done - began)
                    answers.append((position, answer))
            except Exception as error:  # noqa: BLE001 - counted as a failed request
                errors.append(f"{kind} {pool[position].uid}: {error!r}")
                if kind == "query":
                    answers.append((position, ()))
        for ticket in pending:
            ticket.wait()
        elapsed = time.perf_counter() - start
        script.extend(ops)
        return elapsed, None

    # Any installed hook changes how the WAL writes, so the byte counter
    # rides only on traced runs.
    wal_bytes = WalBytes(directory / WAL_NAME)
    with layers.installed(recorder), layers.installed(wal_bytes if recorder else None):
        for number in range(WARMUP_ROUNDS):
            one_round(number)
        for samples in (query_s, ack_wait_s, request_s):
            samples.clear()
        warmup_ops = len(script)
        compactions_before = service.health()["index"]["compactions"]
        wal_bytes.total = 0
        wal_bytes.start_size = wal_bytes.size()
        timed_start = time.perf_counter()
        rounds = common.run_rounds(seconds, one_round)
        timed_end = time.perf_counter()
        written = wal_bytes.written()
    outcome.end_to_end["peak_rss_mb"] = rounds[0][2]
    compactions = service.health()["index"]["compactions"] - compactions_before

    acknowledged = {pool[i].uid for i in range(catalogue)}
    for kind, position in script:
        if kind == "add":
            acknowledged.add(pool[position].uid)
        elif kind == "remove":
            acknowledged.discard(pool[position].uid)
    service.close()
    recover_s, reopened = common.timed(open_service, directory)
    recovered = {profile.uid for profile in reopened.catalog()}
    reopened.close(checkpoint=False)

    outcome.attempted = len(script)
    problems = errors + check_answers(pool, catalogue, script, answers, PARAMS["threshold"])
    outcome.failed = len(problems)
    for problem in problems[:20]:
        outcome.error(problem)
    for problem in check_recovered(recovered, acknowledged):
        outcome.error(problem)

    walls = [elapsed for elapsed, __, __ in rounds]
    median_wall = common.median(walls)
    outcome.end_to_end.update(
        elapsed_s=median_wall,
        setup_s=import_s + common.median(setup_times),
        ops_per_s=inputs.ROUND_OPS / median_wall,
    )
    mutations = sum(1 for kind, __ in script[warmup_ops:] if kind != "query")
    per_layer = outcome.per_layer
    per_layer.update({
        "datasets.generate_s": common.median(generate_times),
        "serving.recover_s": recover_s,
        "serving.request_p50_ms": 1000.0 * common.percentile(request_s, 50),
        "serving.query_p50_ms": 1000.0 * common.percentile(query_s, 50),
        "serving.query_p99_ms": 1000.0 * common.percentile(query_s, 99),
        "serving.ack_wait_p50_ms": 1000.0 * common.percentile(ack_wait_s, 50),
        "serving.ack_wait_p99_ms": 1000.0 * common.percentile(ack_wait_s, 99),
        "incremental.compactions": compactions,
    })
    if recorder is not None:
        def between(*names):
            return layers.spans_between(recorder, names, timed_start, timed_end)

        publishes = between("serving/publish")
        applies = between(*MUTATION_SPANS)
        fsyncs = between("wal/fsync")
        per_layer.update({
            "serving.wal_append_s": sum(s.seconds for s in between("wal/append")),
            "serving.wal_fsync_s": sum(s.seconds for s in fsyncs),
            "serving.fsyncs": len(fsyncs),
            "serving.publishes": len(publishes),
            "serving.publish_s": sum(s.seconds for s in publishes),
            "serving.mutations_per_publish": mutations / max(1, len(publishes)),
            "serving.checkpoint_s": sum(s.seconds for s in between("serving/checkpoint")),
            "serving.wal_bytes_per_mutation": written / max(1, mutations),
            "incremental.applies_per_mutation": len(applies) / max(1, mutations),
            "incremental.apply_s": sum(s.seconds for s in applies),
        })
