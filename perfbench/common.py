"""Shared plumbing of the benchmark: paths, hermetic environment, noise
diagnostics, the metric tables and the result line.

Nothing here imports the ``repro`` package or numpy at module level, so
``run.py`` can make the environment hermetic before either is loaded.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space of one run (matrix cache, WAL, checkpoints); removed
#: when the run ends, so a run leaves the working tree as it found it.
WORK_PARENT = ROOT / ".perfbench-work"
#: Where a traced run writes its spans (JSON lines), named by workload
#: and seed.
SPANS_DIR = ROOT / ".perfbench-spans"

WORKLOADS = ("tune-d2", "filter-scale", "serve-durable")

#: Variables that would change what a workload runs.  The benchmark
#: passes profile, pruning and worker count explicitly instead.
CLEARED_ENV = (
    "REPRO_FAULT_INJECT",
    "REPRO_BENCH_DATASETS",
    "REPRO_BENCH_CACHE",
    "REPRO_TUNING_PROFILE",
    "REPRO_TUNING_PRUNE",
    "REPRO_WORKERS",
)
#: One BLAS thread: the host has two shared cores, and a second BLAS
#: thread competes with the serving writer and adds run-to-run spread.
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# ----------------------------------------------------------------------
# Metric tables (BENCHMARK.json lists the same names; the self-test
# checks that the two agree).
# ----------------------------------------------------------------------

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("elapsed_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "ops/s"),
)

TUNED_CODES = (
    "SBW", "QBW", "EQBW", "SABW", "ESABW", "EJ", "kNNJ", "MH-LSH",
    "CP-LSH", "HP-LSH", "FAISS", "SCANN", "DB", "SMB",
)
BASELINE_CODES = ("PBW", "DBW", "DkNN", "DDB")
SCALE_CODES = (
    "SBW", "EJ", "kNNJ", "MH-LSH", "HP-LSH", "CP-LSH", "FAISS", "SMB",
)
STAGE_METRICS = (
    "blocking.build_s", "blocking.purge_s", "blocking.filter_s",
    "blocking.clean_s",
    "sparse.preprocess_s", "sparse.index_s", "sparse.query_s",
    "dense.preprocess_s", "dense.index_s", "dense.query_s",
    "learned.features_s", "learned.train_s", "learned.score_s",
    "learned.prune_s",
)


def _per_layer() -> Tuple[Tuple[str, str], ...]:
    rows: List[Tuple[str, str]] = []
    rows += [(f"tuning.{code}_s", "s") for code in TUNED_CODES]
    rows += [
        ("tuning.baselines_s", "s"),
        ("tuning.search_self_s", "s"),
        ("tuning.configs_tried", "count"),
        ("tuning.selected_rt_s", "s"),
        ("bench.harness_overhead_s", "s"),
    ]
    rows += [(name, "s") for name in STAGE_METRICS]
    for code in SCALE_CODES:
        rows += [
            (f"filter.{code}_s", "s"),
            (f"filter.{code}.candidates", "count"),
            (f"filter.{code}.pq", "ratio"),
        ]
    rows += [
        ("serving.wal_append_s", "s"),
        ("serving.wal_fsync_s", "s"),
        ("serving.fsyncs", "count"),
        ("serving.publishes", "count"),
        ("serving.publish_s", "s"),
        ("serving.mutations_per_publish", "mut/publish"),
        ("serving.checkpoint_s", "s"),
        ("serving.wal_bytes_per_mutation", "B/mut"),
        ("serving.recover_s", "s"),
        ("serving.request_p50_ms", "ms"),
        ("serving.query_p50_ms", "ms"),
        ("serving.query_p99_ms", "ms"),
        ("serving.ack_wait_p50_ms", "ms"),
        ("serving.ack_wait_p99_ms", "ms"),
        ("incremental.applies_per_mutation", "applies/mut"),
        ("incremental.apply_s", "s"),
        ("incremental.compactions", "count"),
        ("datasets.generate_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return tuple(rows)


PER_LAYER: Tuple[Tuple[str, str], ...] = _per_layer()

# ----------------------------------------------------------------------
# Environment.
# ----------------------------------------------------------------------


def make_hermetic() -> None:
    """Clear the knobs that change a workload; pin BLAS to one thread.

    Must run before numpy is imported (BLAS reads its thread count at
    load time).  Bytecode caching is off so a run writes no
    ``__pycache__`` into the checkout.
    """
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    for name in PINNED_THREADS:
        os.environ[name] = "1"
    sys.dont_write_bytecode = True
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pin_to_one_cpu() -> Optional[int]:
    """Pin the calling thread, and every thread it starts later, to the
    lowest CPU it may run on; returns that CPU, or None where affinity
    cannot be set."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError, ValueError):
        return None
    return cpu


def make_work_dir() -> Path:
    WORK_PARENT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=WORK_PARENT))


def remove_work_dir(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK_PARENT.rmdir()  # only when no other run is using it
    except OSError:
        pass


#: Directories whose files a run must neither change nor add to.  Files
#: at the checkout root are left out: whoever runs the benchmark may
#: keep logs there.
_GUARDED_DIRS = ("src", ".bench_cache", "perfbench", "tests", "benchmarks")


def tree_state() -> Dict[str, Tuple[int, int]]:
    """(size, mtime) of every file under the guarded directories."""
    state: Dict[str, Tuple[int, int]] = {}
    for name in _GUARDED_DIRS:
        for dirpath, __, filenames in os.walk(ROOT / name):
            for filename in filenames:
                path = Path(dirpath) / filename
                stat = path.stat()
                state[str(path.relative_to(ROOT))] = (
                    stat.st_size, stat.st_mtime_ns
                )
    return state


def tree_changes(
    before: Dict[str, Tuple[int, int]], after: Dict[str, Tuple[int, int]]
) -> List[str]:
    """Files a run changed, removed or added under a guarded directory."""
    return sorted(
        name for name in before.keys() | after.keys()
        if before.get(name) != after.get(name)
    )


# ----------------------------------------------------------------------
# Noise diagnostics.
# ----------------------------------------------------------------------


def _steal_ticks() -> Optional[int]:
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _loadavg() -> Optional[List[float]]:
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return [float(value) for value in handle.read().split()[:3]]
    except (OSError, ValueError):
        return None


def host_sample() -> Dict[str, object]:
    return {"steal_ticks": _steal_ticks(), "loadavg": _loadavg()}


def host_info() -> Dict[str, object]:
    """CPU count, interpreter, numpy/BLAS versions and thread settings."""
    import numpy as np

    blas: Dict[str, object] = {}
    config = getattr(np.__config__, "CONFIG", None)
    if isinstance(config, dict):
        deps = config.get("Build Dependencies", {})
        entry = deps.get("blas", {}) if isinstance(deps, dict) else {}
        blas = {
            "name": entry.get("name"),
            "version": entry.get("version"),
        }
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {name: os.environ.get(name) for name in PINNED_THREADS},
    }


# ----------------------------------------------------------------------
# Measurement helpers.
# ----------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


#: Fresh interpreters timed importing a workload module; ``setup_s``
#: takes their median, since an import cannot repeat in one process.
IMPORT_PROBES = 3


def import_seconds(module: str) -> float:
    """Median time a fresh interpreter takes to import ``module`` (the
    workload with the package and numpy behind it)."""
    code = (
        "import sys, time; sys.dont_write_bytecode = True; "
        f"sys.path[:0] = [{str(BENCH_DIR)!r}, {str(SRC)!r}]; "
        f"start = time.perf_counter(); import {module}; "
        "print(time.perf_counter() - start)"
    )
    samples = []
    for __ in range(IMPORT_PROBES):
        probe = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, timeout=120, cwd=str(ROOT),
        )
        samples.append(float(probe.stdout.split()[-1]))
    return median(samples)


def timed(fn, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def run_rounds(seconds: float, round_fn) -> List[Tuple[float, object, float]]:
    """Run whole rounds until their timed parts add up to ``seconds``.

    ``round_fn(number)`` returns ``(elapsed, payload)``.  At least one
    round always runs and a round is never cut short, so every run
    attempts whole rounds of the same operations.  Each entry carries
    the peak RSS right after its round, before any check allocates.
    """
    results: List[Tuple[float, object, float]] = []
    spent = 0.0
    cpu_start = time.process_time()
    while not results or spent < seconds:
        elapsed, payload = round_fn(len(results))
        spent += elapsed
        results.append((elapsed, payload, peak_rss_mb()))
    cpu = time.process_time() - cpu_start
    print(
        f"# rounds: {len(results)}, timed wall {spent:.4f} s,"
        f" process cpu {cpu:.4f} s"
    )
    return results


class Outcome:
    """What a workload hands back: counts, checks and metric values."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.notes: List[str] = []
        self.end_to_end: Dict[str, float] = {}
        self.per_layer: Dict[str, float] = {}

    @property
    def correct(self) -> bool:
        return not self.errors

    def error(self, message: str) -> None:
        self.errors.append(message)


def result_line(
    outcome: Outcome, table: Iterable[Tuple[str, str]], values: Dict[str, float]
) -> str:
    metrics = {}
    for name, unit in table:
        if name not in values:
            raise KeyError(f"metric {name} was not measured")
        metrics[name] = {"value": float(values[name]), "unit": unit}
    return json.dumps(
        {
            "correct": outcome.correct,
            "attempted": int(outcome.attempted),
            "failed": int(outcome.failed),
            "metrics": metrics,
        }
    )
