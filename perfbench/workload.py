"""One benchmark workload, run once in a fresh process.

    python3 perfbench/workload.py --workload NAME --seed N \\
        --mode {setup,timed,traced} --workdir DIR [--spans FILE]

``run.py`` starts this script once per iteration, with the checkout's
``src`` on ``PYTHONPATH``, so compile memos, interning tables and
``ru_maxrss`` never carry over from one run to the next.  The script
prints one JSON object as the last line of its standard output.

``timed`` measures with tracing off.  ``setup_s`` runs from the start
of this script (before ``repro`` is imported) until the inputs are
built: grid expansion, schedule construction and the cache directory.
``wall_s`` runs from the first call into the engine or the checker until
the result exists: the JSON export written by ``BatchResult.save`` for
sweeps, the last ``CheckResult`` for the model check.

``setup`` stops when the inputs are built and reports ``setup_s`` only.

``traced`` makes one serial pass that calls the program's public
functions one at a time, each inside a span (see ``spans.py``), and
reports per-layer figures computed from the spans.  For sweeps the pass
assembles every record itself, so its export is the reference that every
timed export must match byte for byte; ``large-pooled`` then also times
the pooled map on a fresh cache and checks its export against the
serial one.
"""

from __future__ import annotations

import time

# Set-up time starts here, so that every import below counts towards it.
_START = time.perf_counter()

import argparse
import hashlib
import json
import resource
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any

SWEEPS = ("xlarge-cold", "inputs-n100", "large-pooled")
MODELCHECK = "modelcheck-n3"
WORKLOADS = SWEEPS + (MODELCHECK,)

#: The inputs-n100 algorithm set, fixed here so that registering a new
#: algorithm does not change the workload.
KERNEL_ALGORITHMS = (
    "adiamond_s",
    "afp2",
    "amr_leader",
    "att2",
    "att2_optimized",
    "chandra_toueg",
    "early_deciding",
    "floodset",
    "floodset_ws",
    "hurfin_raynal",
)
INPUTS_N, INPUTS_T, INPUTS_HORIZON = 100, 16, 54
INPUTS_PROPOSAL_VECTORS = 8
POOL_WORKERS = 2

MODELCHECK_ALGORITHMS = ("floodset_ws", "att2", "att2_optimized", "hurfin_raynal")
MODELCHECK_PROPOSALS = (0, 1, 1)
MODELCHECK_T = 1
MODELCHECK_HORIZON = 24
#: Schedules the exhaustive search visits when it finds no violation.
MODELCHECK_SCHEDULES = 1732
#: The expected verdicts: FloodSetWS is an SCS algorithm and breaks
#: agreement inside the budget; the ES algorithms stay safe.
MODELCHECK_SAFE = {
    "floodset_ws": False,
    "att2": True,
    "att2_optimized": True,
    "hurfin_raynal": True,
}


# -- inputs ----------------------------------------------------------------


def _profile_cases(profile: str, seed: int) -> list:
    """The case list ``repro sweep --profile PROFILE --seed SEED`` runs.

    Several grids are combined the way the CLI combines them: case
    indices offset per grid, workload labels prefixed with the grid label.
    """
    from repro.engine import expand_grid, profile_grids

    grids = profile_grids(profile, seed=seed)
    cases: list = []
    for label, grid in grids:
        expanded = expand_grid(grid)
        if len(grids) > 1:
            offset = len(cases)
            expanded = [
                replace(
                    case,
                    index=case.index + offset,
                    workload=f"{label}:{case.workload}",
                )
                for case in expanded
            ]
        cases.extend(expanded)
    return cases


def _inputs_n100_cases(seed: int) -> list:
    """Three n=100 schedules, each run by every algorithm on 8 proposal
    vectors, so every compiled plan serves 80 cases."""
    from repro.engine import case_seed, cases_from
    from repro.model.schedule import Schedule
    from repro.sim.random_schedules import random_es_schedule, random_proposals
    from repro.workloads import rotating_delays

    n, t, horizon = INPUTS_N, INPUTS_T, INPUTS_HORIZON
    es_seed = case_seed(seed, "inputs-n100/es", 0)
    schedules = (
        ("failure_free", Schedule.failure_free(n, t, horizon)),
        (f"es@{es_seed}", random_es_schedule(n, t, es_seed, horizon=horizon)),
        ("rotating27", rotating_delays(n, t, horizon, async_rounds=27)),
    )
    proposals = [
        random_proposals(n, case_seed(seed, "inputs-n100/proposals", i))
        for i in range(INPUTS_PROPOSAL_VECTORS)
    ]
    return cases_from(
        (algorithm, f"{label}/p{i}", schedule, vector)
        for algorithm in KERNEL_ALGORITHMS
        for label, schedule in schedules
        for i, vector in enumerate(proposals)
    )


def build_cases(workload: str, seed: int) -> list:
    if workload == "xlarge-cold":
        return _profile_cases("xlarge", seed)
    if workload == "large-pooled":
        return _profile_cases("large", seed)
    if workload == "inputs-n100":
        return _inputs_n100_cases(seed)
    raise ValueError(f"not a sweep workload: {workload}")


def _modelcheck_setup() -> tuple[Any, list]:
    from repro.algorithms.registry import get_factory
    from repro.lowerbound.model_check import AdversaryBudget

    budget = AdversaryBudget(
        max_crashes=1, crash_rounds=2, async_rounds=2, max_delays_per_round=2
    )
    return budget, [(name, get_factory(name)) for name in MODELCHECK_ALGORITHMS]


def _check(factory: Any, budget: Any) -> Any:
    from repro.lowerbound.model_check import check_consensus_safety

    return check_consensus_safety(
        factory,
        MODELCHECK_PROPOSALS,
        t=MODELCHECK_T,
        budget=budget,
        horizon=MODELCHECK_HORIZON,
    )


#: Per-layer metrics other than self times, by the workloads that reach
#: them; a workload that does not reach a layer reports 0 for it.
SWEEP_LAYER_METRICS = (
    "grids.cases",
    "grids.schedules",
    "compiled.compile_s_max",
    "compiled.plans",
    "compiled.pair_rounds",
    "kernel.rounds",
    "kernel.messages",
    "results.export_bytes",
) + tuple(f"kernel.execute_s.{name}" for name in KERNEL_ALGORITHMS)
POOL_LAYER_METRICS = (
    "cache.hit_ratio",
    "cache.bytes",
    "executors.efficiency",
    "executors.first_record_s",
)
MODELCHECK_LAYER_METRICS = (
    "lowerbound.runs",
    "lowerbound.run_us",
) + tuple(f"lowerbound.check_s.{name}" for name in MODELCHECK_ALGORITHMS)


# -- output checks ---------------------------------------------------------


def sweep_failures(cases: list, records: list) -> int:
    """Cases whose record is missing, mislabelled, or unsafe."""
    by_index = {record.case_index: record for record in records}
    failed = 0
    for case in cases:
        record = by_index.get(case.index)
        if (
            record is None
            or record.algorithm != case.algorithm
            or record.workload != case.workload
            or not (record.agreement_ok and record.validity_ok)
        ):
            failed += 1
    return failed + max(0, len(records) - len(cases))


def check_failures(results: list) -> int:
    failed = 0
    for name, result in results:
        expected_safe = MODELCHECK_SAFE[name]
        if result.safe != expected_safe or (
            expected_safe and result.runs != MODELCHECK_SCHEDULES
        ):
            failed += 1
    return failed


def check_digest(results: list) -> str:
    rows = [
        [name, result.runs, result.decided_runs, result.worst_global_round,
         result.best_global_round, result.safe]
        for name, result in results
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- timed runs ------------------------------------------------------------


def _sweep_setup(workload: str, seed: int, workdir: Path) -> tuple[list, Any, Any]:
    """The cases, executor and cache (``large-pooled`` only) of a sweep."""
    from repro.engine import ProcessExecutor, ResultCache, SerialExecutor

    cases = build_cases(workload, seed)
    if workload == "large-pooled":
        return cases, ProcessExecutor(workers=POOL_WORKERS), ResultCache(workdir / "cache")
    return cases, SerialExecutor(), None


def setup_only(workload: str, seed: int, workdir: Path) -> dict:
    """Set-up alone, for extra ``setup_s`` samples in runs with few
    timed iterations."""
    if workload == MODELCHECK:
        _modelcheck_setup()
    else:
        _sweep_setup(workload, seed, workdir)
    return {"setup_s": time.perf_counter() - _START}


def timed_sweep(workload: str, seed: int, workdir: Path) -> dict:
    from repro.engine import BatchResult, run_cases

    cases, executor, cache = _sweep_setup(workload, seed, workdir)
    export = workdir / "export.json"
    setup = time.perf_counter() - _START

    start = time.perf_counter()
    records = run_cases(cases, executor=executor, cache=cache)
    BatchResult(records=tuple(records)).save(str(export))
    wall = time.perf_counter() - start

    return {
        "setup_s": setup,
        "wall_s": wall,
        "attempted": len(cases),
        "failed": sweep_failures(cases, records),
        "digest": file_digest(export),
    }


def timed_modelcheck() -> dict:
    budget, factories = _modelcheck_setup()
    setup = time.perf_counter() - _START

    start = time.perf_counter()
    results = [(name, _check(factory, budget)) for name, factory in factories]
    wall = time.perf_counter() - start

    return {
        "setup_s": setup,
        "wall_s": wall,
        "attempted": len(results),
        "failed": check_failures(results),
        "digest": check_digest(results),
    }


# -- traced pass -----------------------------------------------------------


def _record(case: Any, trace: Any) -> Any:
    """The sweep record for *case*, assembled from the metrics layer the
    way the engine assembles it."""
    from repro.analysis.metrics import check_agreement, check_validity
    from repro.analysis.sweep import SweepRecord

    schedule = case.schedule
    return SweepRecord(
        algorithm=case.algorithm,
        workload=case.workload,
        n=schedule.n,
        t=schedule.t,
        crashes=len(schedule.crashes),
        sync_from=schedule.sync_from(),
        global_round=trace.global_decision_round(),
        first_round=trace.first_decision_round(),
        deciders=len(trace.decisions),
        agreement_ok=not check_agreement(trace),
        validity_ok=not check_validity(trace),
        messages=trace.message_count(),
        horizon=schedule.horizon,
        correct_undecided=sum(
            1 for pid in schedule.correct if pid not in trace.decisions
        ),
        case_index=case.index,
    )


def _distinct(items: list) -> list:
    """*items* without repeats, by identity, in first-seen order."""
    seen: list = []
    for item in items:
        if not any(item is other for other in seen):
            seen.append(item)
    return seen


def traced_sweep(workload: str, seed: int, workdir: Path, tracer: Any) -> dict:
    from repro.engine import BatchResult, ProcessExecutor, ResultCache, run_cases
    from repro.sim.compiled import compile_schedule
    from repro.sim.kernel import run_algorithm

    with tracer.span("grids.expand"):
        cases = build_cases(workload, seed)
    pooled = workload == "large-pooled"
    cache = ResultCache(workdir / "cache") if pooled else None
    export = workdir / "export.json"

    records = []
    executed = []  # cases not answered by the cache
    rounds = messages = 0
    for case in cases:
        with tracer.span("case", case.index):
            record = key = trace = None
            if cache is not None:
                with tracer.span("model.digest", case.index):
                    case.schedule.digest()
                with tracer.span("cache.key", case.index):
                    key = cache.case_key(case)
                with tracer.span("cache.lookup", case.index):
                    record = cache.lookup(case, key)
            if record is None:
                with tracer.span("compiled.compile", case.index):
                    compile_schedule(case.schedule)
                with tracer.span("kernel.execute", case.index):
                    trace = run_algorithm(
                        case.resolve_factory(),
                        case.schedule,
                        case.proposals,
                        trace="lean",
                    )
                with tracer.span("analysis.record", case.index):
                    record = _record(case, trace)
                if cache is not None:
                    with tracer.span("cache.store", case.index):
                        cache.store(case, record, key)
        records.append(record)
        if trace is None:
            continue
        executed.append(case)
        rounds += trace.rounds_executed
        messages += trace.messages
    with tracer.span("results.export"):
        BatchResult(records=tuple(records)).save(str(export))

    failed = sweep_failures(cases, records)
    digest = file_digest(export)
    algorithm_of = {case.index: case.algorithm for case in cases}
    # Plans are memoized per schedule instance, so each distinct schedule
    # is compiled once and later compile spans are memo hits.
    compiled = _distinct([case.schedule for case in executed])
    compiles = tracer.named("compiled.compile")
    layer: dict[str, float] = dict.fromkeys(
        POOL_LAYER_METRICS + MODELCHECK_LAYER_METRICS, 0.0
    )
    layer.update({
        "grids.cases": len(cases),
        "grids.schedules": len(_distinct([case.schedule for case in cases])),
        "compiled.compile_s_max": max(
            (span.duration for span in compiles), default=0.0
        ),
        "compiled.plans": len(compiled),
        "compiled.pair_rounds": sum(
            schedule.n * schedule.n * schedule.horizon for schedule in compiled
        ),
        "kernel.rounds": rounds,
        "kernel.messages": messages,
        "results.export_bytes": export.stat().st_size,
    })
    for name in KERNEL_ALGORITHMS:
        layer[f"kernel.execute_s.{name}"] = sum((
            span.duration
            for span in tracer.named("kernel.execute")
            if algorithm_of[span.case] == name
        ), 0.0)
    stage_s = sum(span.duration for span in tracer.named("case"))
    traced_s = stage_s + tracer.named("results.export")[0].duration

    if pooled:
        from repro.engine import cache_stats

        layer["cache.bytes"] = cache_stats(workdir / "cache")["total_bytes"]
        pool_cache = ResultCache(workdir / "cache-pooled")
        arrivals: list[float] = []
        pooled_export = workdir / "export-pooled.json"
        with tracer.span("executors.map"):
            pooled_records = run_cases(
                cases,
                executor=ProcessExecutor(workers=POOL_WORKERS),
                cache=pool_cache,
                on_record=lambda _index, _record: arrivals.append(
                    time.perf_counter()
                ),
            )
        BatchResult(records=tuple(pooled_records)).save(str(pooled_export))
        (map_span,) = tracer.named("executors.map")
        traced_s = time.perf_counter() - map_span.start
        lookups = pool_cache.hits + pool_cache.misses
        layer.update({
            "executors.efficiency": stage_s / (POOL_WORKERS * map_span.duration),
            "executors.first_record_s": arrivals[0] - map_span.start,
            "cache.hit_ratio": pool_cache.hits / lookups if lookups else 0.0,
        })
        failed += sweep_failures(cases, pooled_records)
        if file_digest(pooled_export) != digest:
            print("pooled export differs from the serial rebuild", file=sys.stderr)
            failed += len(cases)
        attempted = 2 * len(cases)
    else:
        attempted = len(cases)
    return {
        "attempted": attempted,
        "failed": failed,
        "digest": digest,
        "traced_s": traced_s,
        "layer": layer,
    }


def traced_modelcheck(tracer: Any) -> dict:
    with tracer.span("grids.expand"):
        budget, factories = _modelcheck_setup()
    results = []
    for index, (name, factory) in enumerate(factories):
        with tracer.span("lowerbound.check", index):
            results.append((name, _check(factory, budget)))
    checks = tracer.named("lowerbound.check")
    runs = sum(result.runs for _name, result in results)
    check_s = sum(span.duration for span in checks)
    layer: dict[str, float] = dict.fromkeys(
        SWEEP_LAYER_METRICS + POOL_LAYER_METRICS, 0.0
    )
    for (name, _result), span in zip(results, checks):
        layer[f"lowerbound.check_s.{name}"] = span.duration
    layer["lowerbound.runs"] = runs
    layer["lowerbound.run_us"] = check_s / runs * 1e6
    return {
        "attempted": len(results),
        "failed": check_failures(results),
        "digest": check_digest(results),
        "traced_s": check_s,
        "layer": layer,
    }


#: Self time of each span name, reported under the metric name.
SELF_TIME_METRICS = {
    "grids.expand": "grids.expand_s",
    "model.digest": "model.digest_s",
    "cache.key": "cache.key_s",
    "cache.lookup": "cache.lookup_s",
    "cache.store": "cache.store_s",
    "compiled.compile": "compiled.compile_s",
    "kernel.execute": "kernel.execute_s",
    "analysis.record": "analysis.record_s",
    "executors.map": "executors.map_s",
    "results.export": "results.export_s",
}


def traced(workload: str, seed: int, workdir: Path, spans_path: str) -> dict:
    from spans import Tracer, self_times

    tracer = Tracer()
    if workload == MODELCHECK:
        result = traced_modelcheck(tracer)
    else:
        result = traced_sweep(workload, seed, workdir, tracer)
    tracer.dump(spans_path)
    own = self_times(tracer.spans)
    for span_name, metric in SELF_TIME_METRICS.items():
        result["layer"][metric] = own.get(span_name, 0.0)
    layer = result["layer"]
    rounds = layer.get("kernel.rounds", 0)
    layer["kernel.round_us"] = (
        layer["kernel.execute_s"] / rounds * 1e6 if rounds else 0.0
    )
    return result


# -- entry point -----------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    if args.mode == "traced":
        if args.spans is None:
            parser.error("--mode traced needs --spans FILE")
        result = traced(args.workload, args.seed, args.workdir, args.spans)
    elif args.mode == "setup":
        result = setup_only(args.workload, args.seed, args.workdir)
    elif args.workload == MODELCHECK:
        result = timed_modelcheck()
    else:
        result = timed_sweep(args.workload, args.seed, args.workdir)
    result["peak_rss_mb"] = _rss_mb(resource.RUSAGE_SELF)
    result["worker_rss_mb"] = _rss_mb(resource.RUSAGE_CHILDREN)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
