"""End-to-end benchmark of the sweep engine and the model checker.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from the
checkout's ``src``.  Workloads, metrics and bounds are listed in
``BENCHMARK.json``; ``perfbench/predictions.json`` says which end-to-end
metric and workload each per-layer metric should move.

Each iteration runs the whole workload once in a fresh process
(``workload.py --mode timed``), so no memo, interning table or peak RSS
carries over.  Iterations repeat until the next one would end past
``--seconds`` (at least ``MIN_ITERATIONS``), and the end-to-end metrics
are the medians over them; runs with fewer than ``SETUP_SAMPLES``
iterations add set-up-only runs so that ``setup_s`` is a median of at
least that many.  Every iteration's output is checked: each
sweep record must be safe and the model checker must give the expected
verdicts, and all iterations of a run must export identical bytes.

With ``--trace 1`` the run then makes one traced serial pass in another
fresh process (``workload.py --mode traced``) and prints the per-layer
metrics.  That pass rebuilds every record through the program's public
functions, and each timed export must match its export byte for byte
(which also checks the pooled run against serial execution).  Spans are
written to ``.perfbench/spans-<workload>.json``, every iteration's
figures and the machine stamp to ``.perfbench/result-<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A workload that
raises, or a run that does not finish within ``CHILD_TIMEOUT_S``, ends
the benchmark with exit code 1 and no result; a checkout without
``src/repro`` ends it with exit code 2.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
WORKLOADS = ("xlarge-cold", "inputs-n100", "large-pooled", "modelcheck-n3")
MIN_ITERATIONS = 2
SETUP_SAMPLES = 7
#: Every run must end well inside the 180 s a run is allowed.
CHILD_TIMEOUT_S = 170.0


class BenchError(Exception):
    """The benchmark could not run (not a result about the program)."""


def machine_stamp() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
    }


def run_child(args: list[str], timeout: float) -> dict:
    """Run ``workload.py`` in its own process group and parse its result.

    The whole group is killed on timeout, so pool workers the child
    started cannot outlive it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(WORKDIR / "tmp")
    command = [sys.executable, str(HERE / "workload.py"), *args]
    child = subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise BenchError(f"{' '.join(args)}: no result within {timeout:.0f} s")
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    if err:
        sys.stderr.write(err)
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(args)}: exit code {child.returncode}")
    return json.loads(lines[-1])


def run_once(workload: str, seed: int, mode: str, name: str, deadline: float,
             *extra: str) -> dict:
    """One ``workload.py`` run in a fresh process, in its own work
    directory under ``.perfbench``."""
    workdir = WORKDIR / workload / name
    workdir.mkdir(parents=True)
    began = time.perf_counter()
    result = run_child(
        ["--workload", workload, "--seed", str(seed), "--mode", mode,
         "--workdir", str(workdir), *extra],
        deadline - began,
    )
    result["elapsed_s"] = time.perf_counter() - began
    shutil.rmtree(workdir)
    return result


def timed_iterations(workload: str, seed: int, seconds: float, deadline: float) -> list[dict]:
    """Timed runs until the next one would end past *seconds*."""
    iterations: list[dict] = []
    start = time.perf_counter()
    while True:
        iterations.append(run_once(
            workload, seed, "timed", f"iteration-{len(iterations)}", deadline
        ))
        mean = statistics.fmean(it["elapsed_s"] for it in iterations)
        finish = time.perf_counter() + mean
        if len(iterations) >= MIN_ITERATIONS and (
            finish - start > seconds or finish > deadline
        ):
            return iterations


def setup_samples(workload: str, seed: int, iterations: list[dict], deadline: float) -> list[float]:
    """``setup_s`` of every iteration, topped up to ``SETUP_SAMPLES`` with
    set-up-only runs."""
    samples = [it["setup_s"] for it in iterations]
    while len(samples) < SETUP_SAMPLES:
        result = run_once(workload, seed, "setup", f"setup-{len(samples)}", deadline)
        samples.append(result["setup_s"])
    return samples


def as_metrics(entries: list[dict], values: dict) -> dict:
    """``{name: {"value", "unit"}}`` for the metrics *entries* of
    ``BENCHMARK.json``."""
    missing = sorted({entry["name"] for entry in entries} - set(values))
    if missing:
        raise BenchError(f"no value for {', '.join(missing)}")
    return {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in entries
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0); modelcheck-n3 is "
                             "exhaustive and ignores it")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + CHILD_TIMEOUT_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    shutil.rmtree(WORKDIR / args.workload, ignore_errors=True)
    (WORKDIR / "tmp").mkdir(parents=True, exist_ok=True)
    # Byte-compile up front so that the first iteration's set-up does not
    # include writing the bytecode cache.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)

    try:
        iterations = timed_iterations(args.workload, args.seed, args.seconds, deadline)
        setups = setup_samples(args.workload, args.seed, iterations, deadline)
        traced = None
        if args.trace:
            traced = run_once(
                args.workload, args.seed, "traced", "traced", deadline,
                "--spans", str(WORKDIR / f"spans-{args.workload}.json"),
            )

        def median(key: str) -> float:
            return statistics.median(it[key] for it in iterations)

        e2e = as_metrics(spec["end_to_end"], {
            "wall_s": median("wall_s"),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": median("peak_rss_mb"),
        })
        layers = {}
        if traced is not None:
            values = dict(traced["layer"])
            values["executors.worker_rss_mb"] = median("worker_rss_mb")
            values["trace.overhead"] = (
                traced["traced_s"] / e2e["wall_s"]["value"] - 1.0
            )
            layers = as_metrics(spec["per_layer"], values)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    runs = iterations + ([traced] if traced is not None else [])
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    identical = len({run["digest"] for run in runs}) == 1
    if not identical:
        print("perfbench: exports differ between runs of the same inputs",
              file=sys.stderr)

    stamp = machine_stamp()
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": stamp,
        "iterations": iterations,
        "setup_s": setups,
        "traced": traced,
    }
    with open(WORKDIR / f"result-{args.workload}.json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"iterations {len(iterations)} (fresh process each)  "
          f"nproc {stamp['nproc']}  {stamp['implementation']} {stamp['python']}  "
          f"numpy {stamp['numpy']}")
    shown = dict(e2e)
    shown["failed_share"] = {"value": failed / attempted, "unit": "share"}
    shown.update(layers)
    for name, metric in shown.items():
        print(f"  {name:<34} {metric['value']:>14.6f} {metric['unit']}")
    print(f"  {failed} of {attempted} units failed")
    print(json.dumps({
        "correct": failed == 0 and identical,
        "attempted": attempted,
        "failed": failed,
        "metrics": layers if traced is not None else e2e,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
