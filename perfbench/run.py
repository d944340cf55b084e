"""Benchmark of the hellrank command-line program.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

For one workload it makes the input from the seed, then runs ``hellrank`` on
it as fresh child processes in a closed loop with one client: the next child
starts when the previous one has exited, until the children have run for S
seconds (and at least three times).  Every output is checked by an
independent recomputation, outside the timed region.  The children import
hellrank from ``src/`` of the checkout, with the CLI's default thread count.

With ``--trace 0`` it reports the end-to-end metrics (medians over the
children): wall time from spawn to exit, set-up time from spawn until
``cli.run`` is about to be entered, CPU time and peak RSS from the child's own
``wait4`` rusage.  With ``--trace 1`` it splits S between plain children and
children with span wrappers installed (see ``spans.py``) and reports
per-layer metrics instead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import CheckError
from spans import layer_metrics, span_times
from workloads import WORKLOADS, Prepared

HERE = Path(__file__).resolve().parent

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_CHILDREN = 3
SETUP_PROBES = 3  # extra spawns that only import the CLI, for set-up time
DEADLINE_S = 140.0  # start no child that would end later than this into a run
KILL_S = 170.0  # kill a child still running this long into a run

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    setup: float | None  # None when the child never reached cli.run
    report: dict | None
    error: str | None = None


class Runner:
    """Spawns children one at a time, through ``launch.py``, and checks each
    distinct output once."""

    def __init__(self, prep: Prepared, workdir: Path, started: float):
        self.prep = prep
        self.workdir = workdir
        self.started = started
        self.verdicts: dict[str, str | None] = {}
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.stdout.close()
        self.launcher.wait()

    def spawn(self, mode: str) -> Child:
        report = self.workdir / "report.json"
        out, err = self.workdir / "stdout", self.workdir / "stderr"
        report.unlink(missing_ok=True)
        argv = [] if mode == "probe" else self.prep.argv
        request = {
            "cmd": [sys.executable, str(HERE / "child.py"), str(report), mode, *argv],
            "stdout": str(out), "stderr": str(err),
            "kill_after": max(1.0, self.started + KILL_S - time.monotonic()),
        }
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        data = json.loads(report.read_text()) if report.exists() else None
        child = Child(reply["end"] - reply["start"], reply["cpu_s"], reply["maxrss_kb"] / 1024,
                      data["setup_done"] - reply["start"] if data else None, data)
        if reply["status"] != 0:
            tail = err.read_text(errors="replace").strip().splitlines()[-1:]
            child.error = f"exit code {reply['status']}: {' '.join(tail)}"
        elif mode != "probe":
            child.error = self.verify(out.read_bytes())
        return child

    def verify(self, output: bytes) -> str | None:
        digest = hashlib.sha256(output).hexdigest()
        if digest not in self.verdicts:
            try:
                self.prep.check(output)
                self.verdicts[digest] = None
            except CheckError as exc:
                self.verdicts[digest] = f"check failed: {exc}"
        return self.verdicts[digest]

    def closed_loop(self, mode: str, seconds: float) -> list[Child]:
        children: list[Child] = []
        busy = 0.0
        while busy < seconds or len(children) < MIN_CHILDREN:
            if children and time.monotonic() + children[-1].wall > self.started + DEADLINE_S:
                break
            children.append(self.spawn(mode))
            busy += children[-1].wall
        return children


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def loadavg() -> list[float]:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return []


def run_record(seed: int) -> dict:
    """Commit, versions and machine, so noise can be told from a regression."""
    import networkx
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(),
    }


def kernel_properties(prep: Prepared) -> dict[str, float]:
    """Input properties of the side the Hellinger kernel scores, from the
    public ``neighbor_degree_vector``; on powerlaw-scores also the kernel's
    speed-up from 1 to 2 threads.  Runs in this process, outside any timing
    of the children.  All 0 on a workload that does not run the kernel."""
    props = dict.fromkeys(("hellinger.distinct_degrees", "hellinger.unique_vectors",
                           "hellinger.duplicate_pair_share", "hellinger.thread2_speedup"), 0)
    if prep.kernel_side is None:
        return props
    sys.path.insert(0, str(SRC))
    from hellrank import Side, hellrank, load_edge_list, neighbor_degree_vector

    graph = load_edge_list(f"{u}\t{v}" for u, v in prep.edges)
    side = Side(prep.kernel_side)
    groups: dict[tuple, int] = {}
    degrees: set[int] = set()
    for x in graph.nodes(side):
        entries = neighbor_degree_vector(graph, x, side).entries
        total = sum(entries.values())
        degrees.update(entries)
        key = tuple(sorted((d, w / total) for d, w in entries.items()))
        groups[key] = groups.get(key, 0) + 1
    n = sum(groups.values())
    same = sum(c * (c - 1) for c in groups.values())
    props["hellinger.distinct_degrees"] = len(degrees)
    props["hellinger.unique_vectors"] = len(groups)
    props["hellinger.duplicate_pair_share"] = same / (n * (n - 1))
    if prep.thread_scaling:
        threads = min(2, len(os.sched_getaffinity(0)))
        took = []
        for t in (1, threads):
            start = time.monotonic()
            hellrank(graph, side, threads=t)
            took.append(time.monotonic() - start)
        props["hellinger.thread2_speedup"] = took[0] / took[1]
    return props


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in (("mb_per_s", "MB/s"), ("pairs_per_s", "1/s"), ("_share", "share"),
                         ("_speedup", "ratio"), ("_s", "s")):
        if metric.endswith(suffix):
            return unit
    return "count"


def traced_metrics(runner: Runner, plain: list[Child], traced: list[Child]) -> dict[str, float]:
    """Median per-layer metrics over the traced children, plus the input
    properties and the tracing overhead."""
    ok = [c for c in traced if c.error is None]
    per_child = [layer_metrics(c.report["spans"], c.report["counters"]) for c in ok]
    metrics = {k: median([m[k] for m in per_child]) for k in per_child[0]} if per_child else {}
    csv_bytes = (runner.workdir / "stdout").stat().st_size
    to_csv = metrics.get("hellinger.to_csv_s", 0.0)
    metrics["hellinger.csv_mb_per_s"] = csv_bytes / 1e6 / to_csv if to_csv > 0 else 0.0
    metrics.update(kernel_properties(runner.prep))
    metrics["trace.overhead_s"] = median([c.wall for c in ok]) - median(
        [c.wall for c in plain if c.error is None])
    return metrics


def print_accounting(traced: list[Child]) -> None:
    """Show that setup + the self times of all spans + exit make the wall time."""
    child = next((c for c in traced if c.error is None), None)
    if child is None:
        return
    total, self_, calls = span_times(child.report["spans"])
    run = total["cli.run"]
    print(f"  traced wall {child.wall:.4f} s = setup {child.setup:.4f} s + cli.run {run:.4f} s"
          f" + exit {child.wall - child.setup - run:.4f} s; cli.run = sum of self times:")
    for span in sorted(self_, key=self_.get, reverse=True):
        if calls[span]:
            print(f"    {span:40s} self {self_[span]:9.4f} s  calls {calls[span]}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(result object, run record) of one workload."""
    started = time.monotonic()
    record = run_record(seed)
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    prep = WORKLOADS[name](seed, str(workdir))
    runner = Runner(prep, workdir, started)
    try:
        probes = [runner.spawn("probe") for _ in range(SETUP_PROBES)]
        failed_probe = next((c.error for c in probes if c.error), None)
        if failed_probe:
            raise SystemExit(f"perfbench: the CLI does not start: {failed_probe}")
        # a traced run splits its time between plain and traced children
        plain = runner.closed_loop("run", seconds / 2 if trace else seconds)
        traced = runner.closed_loop("trace", seconds / 2) if trace else []
    finally:
        runner.close()
    children = plain + traced
    failed = [c for c in children if c.error is not None]
    good = [c for c in plain if c.error is None]
    setups = [c.setup for c in probes + good]
    end_to_end = {
        "wall_s": (median([c.wall for c in good]), len(good)),
        "setup_s": (median(setups), len(setups)),
        "cpu_s": (median([c.cpu for c in good]), len(good)),
        "peak_rss_mb": (median([c.rss_mb for c in good]), len(good)),
    }
    print(f"workload {name}  seed {seed}  inputs {json.dumps(prep.properties)}")
    for metric, (value, count) in end_to_end.items():
        print(f"  {metric:12s} {value:12.4f} {END_TO_END_UNITS[metric]:3s} median of {count}")
    print(f"  {'error_rate':12s} {len(failed) / len(children):12.4f}     "
          f"{len(failed)} of {len(children)} runs failed")
    for c in failed[:3]:
        print(f"    failure: {c.error}")
    if trace:
        metrics = traced_metrics(runner, plain, traced)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())}
        print_accounting(traced)
        for k, v in metrics.items():
            print(f"  {k:40s} {v['value']:14.6g} {v['unit']}")
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, (v, _) in end_to_end.items()}
    record.update(
        workload=name, seconds=seconds, trace=trace, inputs=prep.properties,
        loadavg_end=loadavg(), wall_s=[c.wall for c in plain], setup_s=setups,
        cpu_s=[c.cpu for c in plain], peak_rss_mb=[c.rss_mb for c in plain],
        failures=[c.error for c in failed],
    )
    if traced and traced[-1].report:
        (workdir / "spans.json").write_text(json.dumps(traced[-1].report["spans"]))
    (workdir / "stdout").unlink(missing_ok=True)
    result = {"correct": not failed, "attempted": len(children), "failed": len(failed),
              "metrics": metrics}
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hellrank" / "cli.py").is_file():
        print(f"perfbench: no hellrank source under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("record " + json.dumps(record))
        (WORK / name / "record.json").write_text(json.dumps(record, indent=1))
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
