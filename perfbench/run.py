"""RPQd benchmark: end-to-end and per-layer metrics on two workloads.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload lookup-c4 --seed 1 --seconds 45 --trace 0

Workloads (NOTES.md says why each exists and which metric it should move):

* ``lookup-c4`` — short lookups on the simulator, four queries in flight
  through ``Session.submit``;
* ``process-nine`` — the nine Figure 2 queries on ``backend="process"``.

The graph is ``mini_ldbc`` at scale ``m`` with the generator's default
seed; ``--seed`` draws the query sequence.  Before timing, every distinct
query text is answered by the single-machine BFT baseline, and each timed
query is checked against it.

The measured part runs in a child interpreter (see ``measure.py``).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``failed`` counts
exceptions plus wrong results, so ``error_rate = failed / attempted``.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("lookup-c4", "process-nine")
#: A run that is not over after this many seconds is killed and fails.
DEADLINE_S = 170.0


def _use_sources():
    """Import RPQd from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no RPQd sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="m", help="mini_ldbc scale (the self-test uses xs)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is None and args.workload is None:
        parser.error("--workload is required")
    return args


def _workers():
    """Process-backend workers: one per usable core, at most one per machine."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    from repro.config import EngineConfig

    return max(1, min(cores, EngineConfig().num_machines))


def _prepare(args, workdir):
    """Write the graph file and the work order; neither is timed."""
    import measure
    import oracle
    import workloads
    import repro
    from repro.datagen import mini_ldbc
    from repro.graph.loader import save_graph

    graph, info = mini_ldbc(args.scale)
    graph_path = workdir / "graph.jsonl"
    save_graph(graph, graph_path)
    sequence = workloads.build(args.workload, args.seed, graph, info)
    opening = workloads.opening_query(args.workload, info)
    if args.trace:
        count = measure.trace_count(args.workload, args.seconds)
        sequence = sequence[:count]
    expected = oracle.answer(graph, [opening, *sequence])
    sim_rounds = {}
    if args.workload == "process-nine" and not args.trace:
        with repro.connect(graph) as session:
            for text in dict.fromkeys(sequence):
                sim_rounds[text] = session.execute(text).stats.virtual_time
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": _workers(),
        "block": workloads.BLOCK[args.workload],
        "graph_path": str(graph_path),
        "result_path": str(workdir / "result.json"),
        "opening": opening,
        "sequence": sequence,
        "expected": expected,
        "sim_rounds": sim_rounds,
        "graph_vertices": graph.num_vertices,
        "graph_edges": graph.num_edges,
    }


def _run_child(work_path, timeout):
    """Run ``measure.py`` in a fresh interpreter; ``False`` if it failed."""
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(work_path)],
        start_new_session=True,
    )
    try:
        return child.wait(timeout=max(timeout, 1.0)) == 0
    except subprocess.TimeoutExpired:
        # Its process group holds the backend's worker processes too.
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print(f"perfbench: measurement did not finish within {timeout:.0f}s", file=sys.stderr)
        return False


def _report(args, work, outcome):
    import measure

    metrics = outcome["metrics"]
    properties = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "graph_vertices": work["graph_vertices"],
        "graph_edges": work["graph_edges"],
        **outcome["properties"],
    }
    if args.workload == "process-nine":
        properties["workers"] = work["workers"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>16.6f} {measure.UNITS[name]}")
    print("properties " + json.dumps(properties, sort_keys=True))
    if outcome["leaked_segments"]:
        print(f"perfbench: leaked shared memory {outcome['leaked_segments']}", file=sys.stderr)
    correct = outcome["failed"] == 0 and not outcome["leaked_segments"]
    result = {
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": value, "unit": measure.UNITS[name]}
            for name, value in metrics.items()
            if name not in measure.WORKLOAD_SPECIFIC
        },
    }
    print(json.dumps(result))
    return correct


def main(argv=None):
    started = time.monotonic()
    args = _parse_args(argv)
    _use_sources()
    if args.child is not None:
        import measure

        measure.main(args.child)
        return 0
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        work = _prepare(args, workdir)
        work_path = workdir / "work.json"
        work_path.write_text(json.dumps(work))
        if not _run_child(work_path, DEADLINE_S - (time.monotonic() - started)):
            return 3
        outcome = json.loads(Path(work["result_path"]).read_text())
        return 0 if _report(args, work, outcome) else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it


if __name__ == "__main__":
    sys.exit(main())
