"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload tune-d2 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                 # every workload, each in its own process
    python3 perfbench/run.py --self-test     # every output check rejects a corrupted answer
    python3 perfbench/run.py --write-digests # re-record perfbench/digests.json

A workload run prints diagnostics and notes first and, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A traced run first runs the same workload
untraced in a child process, to report the tracing overhead.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import List, Optional

import common

#: A child run must end well inside the 180 s a workload run may take.
CHILD_TIMEOUT_S = 170


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh process; returns its result object."""
    command = [
        sys.executable, str(common.BENCH_DIR / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(trace),
    ]
    completed = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        cwd=str(common.ROOT),
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} child run failed ({completed.returncode}):"
            f" {completed.stderr.strip()[-2000:]}"
        )
    return {"stdout": lines[:-1], "result": json.loads(lines[-1])}


def _workload_module(name: str):
    if name == "tune-d2":
        import tune_d2 as module
    elif name == "filter-scale":
        import filter_scale as module
    else:
        import serve_durable as module
    return module


def run_workload(args: argparse.Namespace) -> int:
    untraced_elapsed = None
    if args.trace:
        # End-to-end numbers come only from untraced runs; the untraced
        # twin runs first, in its own process, for trace.overhead_s.
        twin = _child(args.workload, args.seed, args.seconds, 0)
        untraced_elapsed = twin["result"]["metrics"]["elapsed_s"]["value"]
        print(f"# untraced twin: {json.dumps(twin['result'])}")

    before_tree = common.tree_state()
    before_host = common.host_sample()
    module = _workload_module(args.workload)
    from spans import SpanRecorder

    import_s = common.import_seconds(module.__name__)
    print(f"# host {json.dumps(common.host_info())}")
    outcome = common.Outcome()
    recorder = SpanRecorder() if args.trace else None
    work = common.make_work_dir()
    cwd = os.getcwd()
    try:
        # Relative default paths (the matrix and token-statistics caches)
        # resolve inside the run's scratch directory.
        os.chdir(work)
        module.run(args.seed, args.seconds, recorder, outcome, work, import_s)
    finally:
        os.chdir(cwd)
        common.remove_work_dir(work)
    changed = common.tree_changes(before_tree, common.tree_state())
    if changed:
        outcome.error(f"the run changed the working tree: {changed[:10]}")
    after_host = common.host_sample()
    print(f"# host before {json.dumps(before_host)} after {json.dumps(after_host)}")
    for note in outcome.notes:
        print(f"# note: {note}")
    for error in outcome.errors:
        print(f"# ERROR: {error}")
    if args.trace:
        import layers

        path = common.SPANS_DIR / f"{args.workload}-seed{args.seed}.jsonl"
        recorder.write_jsonl(path)
        print(f"# spans: {path}")
        values = dict(outcome.per_layer)
        values["trace.overhead_s"] = (
            outcome.end_to_end["elapsed_s"] - untraced_elapsed
        )
        print(common.result_line(outcome, common.PER_LAYER, layers.zero_fill(values)))
    else:
        print(common.result_line(outcome, common.END_TO_END, outcome.end_to_end))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh process; a summary line last."""
    summary = {}
    for workload in common.WORKLOADS:
        child = _child(workload, args.seed, args.seconds, args.trace)
        for line in child["stdout"]:
            print(f"[{workload}] {line}")
        result = child["result"]
        summary[workload] = result
        print(
            f"[{workload}] correct={result['correct']}"
            f" attempted={result['attempted']} failed={result['failed']}"
        )
        for name, metric in result["metrics"].items():
            print(f"[{workload}]   {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(summary))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    common.make_hermetic()
    if args.write_digests:
        import inputs

        inputs.write_digests()
        print(f"wrote {inputs.DIGESTS_PATH}")
        return 0
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
