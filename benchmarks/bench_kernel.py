"""Kernel microbenchmark: round-view delivery vs the older pipelines.

Two claims, both load-bearing for large-n sweeps (docs/performance.md):

* **equivalence** — the compiled kernel (:func:`repro.sim.kernel.execute`)
  produces full traces identical to the original query-at-a-time kernel
  (:func:`repro.sim.kernel.execute_reference`), and the lean trace mode
  produces byte-identical :class:`~repro.analysis.sweep.SweepRecord`\\ s;
* **speed** — the round-view delivery pipeline (shared pre-bucketed
  inboxes, no per-receiver Message materialization) beats both the
  pre-compile pipeline (*reference* arm: query-at-a-time kernel, full
  trace, per-case synchrony scan) and the PR-4-era flat delivery path
  (*flat* arm: per-receiver flat message tuples re-structured per
  automaton), by a growing factor as n grows.

The *flat* arm reconstructs the previous kernel's delivery contract on
top of today's kernel: every automaton is forced through full Message
materialization plus per-receiver re-derivation of the round structure
— exactly the work the shared :class:`~repro.sim.view.RoundView`
buckets eliminate.

Besides the printed table, the run persists machine-readable per-system
timings to ``BENCH_kernel.json`` (path override:
``REPRO_BENCH_JSON``); the ``kernel-bench`` CI lane uploads it as an
artifact so the perf trajectory is tracked across pushes.  The XXL
rows (n = 250/500/1000, the bitset data plane at scale) land in the
same file under ``xxl_systems`` — they time the full default sweep set
with a ``per_algorithm_ms`` breakdown (so the trajectory attributes a
future ceiling to its owner, not just to a total), with the flat arm
only where it is affordable.  The ``att2_focus`` rows isolate the
batched Phase-1 plane: both A_{t+2} variants at n = 500, plane engaged
vs opted out.

The ``kernel-bench`` CI lane runs this file (``--benchmark-disable``) on
every push.  The equivalence assertions are unconditional; the
wall-clock speedup floors (2x, deliberately far below the measured
ratios on quiet hardware — see docs/performance.md) are asserted only
when ``REPRO_BENCH_ASSERT_SPEEDUP=1``, because a one-shot timing on a
noisy shared runner is a structural flake source for unrelated pushes.
The nightly lane sets the knob; the per-push lane just prints the table.
"""

from __future__ import annotations

import json
import os
import time
from types import MethodType

import pytest

from repro.algorithms.base import make_automata
from repro.algorithms.registry import get_factory
from repro.core.att2 import ATt2
from repro.core.att2_optimized import ATt2Optimized
from repro.analysis.metrics import check_agreement, check_validity
from repro.analysis.sweep import SweepRecord, run_case
from repro.analysis.tables import format_table
from repro.engine.grids import DEFAULT_SWEEP_ALGORITHMS
from repro.model.schedule import Schedule
from repro.sim.kernel import execute, execute_reference
from repro.sim.random_schedules import random_es_schedule
from repro.sim.view import RoundView
from conftest import emit

#: Systems measured against the full pre-compile *reference* pipeline
#: (it is O(n²·horizon) method calls per case — impractical past n=25).
SYSTEMS = ((9, 4), (25, 8))
#: The large-n rows: view delivery vs the PR-4-era flat delivery path.
LARGE_SYSTEMS = ((50, 16), (100, 32))
#: The n >= 250 milestone rows (bitset data plane): t pinned so the
#: rounds-to-decide stay constant and the rows isolate per-round n²
#: data-plane cost.  The flat arm is affordable only at n = 250.
XXL_SYSTEMS = ((250, 16), (500, 16), (1000, 16))
#: Same-shape baseline row so the XXL flat-speedup trajectory compares
#: like for like (same t, same algorithm set) against n = 100.
XXL_BASELINE = (100, 16)
#: att2 used to be excluded here: its per-receiver ESTIMATE fold did
#: O(n²) *automaton-state* work per round, swamping the delivery plane
#: past n ≈ 100.  The batched Phase-1 plane
#: (:mod:`repro.sim.phase1_plane`) removed that ceiling, so the XXL
#: rows now time the full sweep set — with a per-algorithm breakdown
#: so any future ceiling names its owner.
XXL_ALGORITHMS = DEFAULT_SWEEP_ALGORITHMS
#: The att2-focused row (n, t): plane-engaged vs plane-opted-out
#: per-case cost for both A_{t+2} variants, cheap enough for the
#: per-push kernel-bench lane.
ATT2_FOCUS_SYSTEM = (500, 16)
ATT2_FOCUS_ALGORITHMS = ("att2", "att2_optimized")
SEED = 20260730

#: Where the machine-readable timings land (the CI lane uploads this).
BENCH_JSON = os.environ.get("REPRO_BENCH_JSON", "BENCH_kernel.json")


def _bench_schedules(n: int, t: int):
    """The two bench workloads: the paper's headline failure-free run and
    a seeded random ES schedule (crashes, delays, losses)."""
    horizon = max(12, 3 * t + 6)
    return (
        ("failure_free", Schedule.failure_free(n, t, horizon)),
        ("random_es", random_es_schedule(n, t, SEED, horizon=horizon)),
    )


def _uncached_sync_from(schedule: Schedule) -> int:
    """The pre-refactor synchrony scan, bypassing the sync_from memo."""
    first_bad = 0
    for k in range(1, schedule.horizon + 1):
        if not schedule.is_synchronous_round(k):
            first_bad = k
    return first_bad + 1


def _reference_case(
    algorithm: str, workload: str, schedule: Schedule, proposals
) -> SweepRecord:
    """The pre-compile per-case pipeline, reproduced faithfully:
    query-at-a-time kernel, full trace, per-case synchrony scan."""
    factory = get_factory(algorithm)
    trace = execute_reference(
        make_automata(factory, schedule.n, schedule.t, proposals), schedule
    )
    return SweepRecord(
        algorithm=algorithm,
        workload=workload,
        n=schedule.n,
        t=schedule.t,
        crashes=len(schedule.crashes),
        sync_from=_uncached_sync_from(schedule),
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
    )


def _flat_factory(factory):
    """Wrap *factory* so its automata take the flat delivery path.

    Each instance's ``deliver_view`` is wrapped to materialize the flat
    message tuple and re-derive the round structure from it
    (:meth:`~repro.sim.view.RoundView.from_messages`) before running
    the class's own hook — the PR-4 delivery contract exactly, and the
    work every automaton's filtering boilerplate used to do each round.
    """

    def flat_deliver_view(automaton, k, view):
        type(automaton).deliver_view(
            automaton, k,
            RoundView.from_messages(
                k, automaton.pid, automaton.n, view.messages
            ),
        )

    def build(pid, n, t, proposal):
        automaton = factory(pid, n, t, proposal)
        automaton.deliver_view = MethodType(flat_deliver_view, automaton)
        return automaton

    return build


class _NoPlaneATt2(ATt2):
    """Stock A_{t+2} minus the batched Phase-1 plane opt-in."""

    phase1_plane_protocol = None


class _NoPlaneATt2Optimized(ATt2Optimized):
    phase1_plane_protocol = None


_PLANE_OPT_OUTS = {
    "att2": _NoPlaneATt2,
    "att2_optimized": _NoPlaneATt2Optimized,
}


def _plane_opt_out_factory(algorithm: str):
    """A factory whose automata opt out of the batched Phase-1 plane.

    Clearing the class-level protocol declaration keeps every other
    optimization (lazy round-view buckets, single-pass folds) in place,
    so plane-vs-opt-out ratios attribute exactly the plane's batching —
    not the rest of the view pipeline.
    """
    return _PLANE_OPT_OUTS[algorithm].factory()


def _assert_equivalent() -> int:
    """Compiled output must equal reference output, case for case."""
    checked = 0
    for n, t in SYSTEMS:
        proposals = list(range(n))
        for workload, schedule in _bench_schedules(n, t):
            for algorithm in DEFAULT_SWEEP_ALGORITHMS:
                factory = get_factory(algorithm)
                reference = execute_reference(
                    make_automata(factory, n, t, proposals), schedule
                )
                compiled = execute(
                    make_automata(factory, n, t, proposals), schedule,
                    trace="full",
                )
                assert compiled == reference, (
                    f"compiled full trace diverged from the reference "
                    f"kernel: {algorithm} on {workload} (n={n}, t={t})"
                )
                ref_record = _reference_case(
                    algorithm, workload, schedule, proposals
                )
                lean_record, _trace = run_case(
                    algorithm, factory, workload, schedule, proposals,
                    trace_mode="lean",
                )
                assert lean_record == ref_record, (
                    f"lean record diverged from the reference pipeline: "
                    f"{algorithm} on {workload} (n={n}, t={t})"
                )
                flat_record, _trace = run_case(
                    algorithm, _flat_factory(factory), workload, schedule,
                    proposals, trace_mode="lean",
                )
                assert flat_record == ref_record, (
                    f"flat-delivery record diverged from the reference "
                    f"pipeline: {algorithm} on {workload} (n={n}, t={t})"
                )
                checked += 1
    return checked


@pytest.mark.smoke
def test_compiled_kernel_matches_reference(benchmark):
    checked = benchmark.pedantic(_assert_equivalent, rounds=1, iterations=1)
    assert checked == len(SYSTEMS) * 2 * len(DEFAULT_SWEEP_ALGORITHMS)


def _per_case_seconds(
    arm, schedules, repeats: int,
    algorithms: tuple = DEFAULT_SWEEP_ALGORITHMS,
) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        for workload, schedule in schedules:
            for algorithm in algorithms:
                arm(algorithm, workload, schedule)
    cases = repeats * len(schedules) * len(algorithms)
    return (time.perf_counter() - start) / cases


def speedup_measurements() -> list[dict]:
    """Measured per-case wall-clock for every arm, per system.

    The reference arm is measured only where it is affordable
    (``SYSTEMS``); the large-n rows compare the view pipeline against
    the flat-delivery arm, which *is* the PR-4 kernel's per-case cost
    model.  Compile memos are warmed before timing — in a sweep the
    plan is compiled once per schedule and shared by every algorithm.
    """
    measurements = []
    for n, t in SYSTEMS + LARGE_SYSTEMS:
        proposals = list(range(n))
        schedules = _bench_schedules(n, t)

        def reference_arm(algorithm, workload, schedule):
            _reference_case(algorithm, workload, schedule, proposals)

        def flat_arm(algorithm, workload, schedule):
            run_case(algorithm, _flat_factory(get_factory(algorithm)),
                     workload, schedule, proposals, trace_mode="lean")

        def full_arm(algorithm, workload, schedule):
            run_case(algorithm, get_factory(algorithm), workload,
                     schedule, proposals, trace_mode="full")

        def lean_arm(algorithm, workload, schedule):
            run_case(algorithm, get_factory(algorithm), workload,
                     schedule, proposals, trace_mode="lean")

        for workload, schedule in schedules:  # warm the compile memos
            lean_arm("att2", workload, schedule)
        repeats = 3 if n < 20 else (2 if n < 80 else 1)
        with_reference = (n, t) in SYSTEMS
        reference = (
            _per_case_seconds(reference_arm, schedules, repeats)
            if with_reference else None
        )
        flat = _per_case_seconds(flat_arm, schedules, repeats)
        full = _per_case_seconds(full_arm, schedules, repeats)
        lean = _per_case_seconds(lean_arm, schedules, repeats)
        measurements.append({
            "n": n,
            "t": t,
            "reference_ms": (
                round(reference * 1e3, 3) if reference is not None else None
            ),
            "flat_ms": round(flat * 1e3, 3),
            "full_ms": round(full * 1e3, 3),
            "lean_ms": round(lean * 1e3, 3),
            "reference_speedup": (
                round(reference / lean, 2) if reference is not None else None
            ),
            "flat_speedup": round(flat / lean, 2),
        })
    return measurements


def _persist_json(measurements: list[dict]) -> None:
    data = {
        "version": 1,
        "seed": SEED,
        "algorithms": list(DEFAULT_SWEEP_ALGORITHMS),
        "workloads": ["failure_free", "random_es"],
        "units": "ms_per_case",
        "systems": measurements,
    }
    with open(BENCH_JSON, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


@pytest.mark.smoke
def test_compiled_kernel_speedup(benchmark):
    measurements = benchmark.pedantic(
        speedup_measurements, rounds=1, iterations=1
    )
    _persist_json(measurements)

    def fmt(value, suffix=""):
        return "-" if value is None else f"{value:.2f}{suffix}"

    rows = [
        (
            m["n"], m["t"],
            fmt(m["reference_ms"]), fmt(m["flat_ms"]),
            fmt(m["full_ms"]), fmt(m["lean_ms"]),
            fmt(m["reference_speedup"], "x"), fmt(m["flat_speedup"], "x"),
        )
        for m in measurements
    ]
    emit(
        format_table(
            ["n", "t", "reference ms/case", "flat ms/case",
             "view-full ms/case", "view-lean ms/case",
             "vs reference", "vs flat"],
            rows,
            title="Kernel microbench: per-case cost — pre-compile "
                  "reference, flat delivery, round-view delivery "
                  "(5 stock algorithms, ff + random ES)",
        )
    )
    emit(f"\nwrote per-system timings to {BENCH_JSON}")
    # Timing floors only where the operator opted in (nightly lane):
    # a one-shot measurement on a shared runner must not fail pushes.
    # See docs/performance.md for reference numbers on quiet hardware
    # (≈ 13x vs the reference pipeline at n = 25; ≈ 3.9–4.3x vs flat
    # delivery at n ≥ 25 — the floors leave generous headroom).
    if os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP") == "1":
        for m in measurements:
            if m["n"] >= 20 and m["reference_speedup"] is not None:
                assert m["reference_speedup"] >= 2.0, (
                    f"view-lean kernel only {m['reference_speedup']:.2f}x "
                    f"faster than the reference pipeline at n={m['n']}"
                )
            if m["n"] >= 50:
                assert m["flat_speedup"] >= 2.0, (
                    f"view-lean kernel only {m['flat_speedup']:.2f}x "
                    f"faster than flat delivery at n={m['n']}"
                )


def xxl_measurements() -> list[dict]:
    """The n >= 250 rows: per-case cost of the bitset data plane at scale.

    Measures the full sweep set (:data:`XXL_ALGORITHMS`) lean per-case
    cost at every XXL size — one timing per algorithm, so the
    ``per_algorithm_ms`` breakdown attributes each row's cost — plus
    the flat-delivery arm where it is affordable (the baseline and
    n = 250) so the flat-speedup trajectory across n stays comparable
    (same t, same algorithms, same workloads as the
    :data:`XXL_BASELINE` row).  An att2 arm with the batched Phase-1
    plane opted out isolates the plane's contribution per row.
    """
    measurements = []
    for n, t in (XXL_BASELINE,) + XXL_SYSTEMS:
        proposals = list(range(n))
        schedules = _bench_schedules(n, t)

        def flat_arm(algorithm, workload, schedule):
            run_case(algorithm, _flat_factory(get_factory(algorithm)),
                     workload, schedule, proposals, trace_mode="lean")

        def lean_arm(algorithm, workload, schedule):
            run_case(algorithm, get_factory(algorithm), workload,
                     schedule, proposals, trace_mode="lean")

        def noplane_arm(algorithm, workload, schedule):
            run_case(algorithm, _plane_opt_out_factory(algorithm),
                     workload, schedule, proposals, trace_mode="lean")

        for workload, schedule in schedules:  # warm the compile memos
            lean_arm("chandra_toueg", workload, schedule)
        with_flat = n <= max(XXL_BASELINE[0], 250)
        per_algorithm = {
            algorithm: round(
                _per_case_seconds(lean_arm, schedules, 1, (algorithm,))
                * 1e3,
                3,
            )
            for algorithm in XXL_ALGORITHMS
        }
        lean = sum(per_algorithm.values()) / len(per_algorithm) / 1e3
        flat = (
            _per_case_seconds(flat_arm, schedules, 1, XXL_ALGORITHMS)
            if with_flat else None
        )
        noplane = _per_case_seconds(noplane_arm, schedules, 1, ("att2",))
        measurements.append({
            "n": n,
            "t": t,
            "algorithms": list(XXL_ALGORITHMS),
            "flat_ms": round(flat * 1e3, 3) if flat is not None else None,
            "lean_ms": round(lean * 1e3, 3),
            "per_algorithm_ms": per_algorithm,
            "att2_noplane_ms": round(noplane * 1e3, 3),
            "plane_speedup": round(
                noplane * 1e3 / per_algorithm["att2"], 2
            ),
            "flat_speedup": (
                round(flat / lean, 2) if flat is not None else None
            ),
        })
    return measurements


def _merge_rows(key: str, rows: list[dict]) -> None:
    """Merge *rows* into ``BENCH_kernel.json`` under *key* (additive).

    The speedup test writes the base document first in a full run; a
    partial run (test selection) still produces a valid file.
    """
    try:
        with open(BENCH_JSON, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        data = {"version": 1, "seed": SEED, "units": "ms_per_case"}
    data[key] = rows
    with open(BENCH_JSON, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


# Deliberately NOT smoke-marked: ~5 min of XXL measurement belongs in
# the kernel-bench and nightly lanes (whole-file runs), not the fast
# smoke subset.
def test_kernel_xxl_scaling(benchmark):
    measurements = benchmark.pedantic(
        xxl_measurements, rounds=1, iterations=1
    )
    _merge_rows("xxl_systems", measurements)

    def fmt(value, suffix=""):
        return "-" if value is None else f"{value:.2f}{suffix}"

    rows = [
        (m["n"], m["t"], fmt(m["flat_ms"]), fmt(m["lean_ms"]),
         fmt(m["per_algorithm_ms"]["att2"]), fmt(m["att2_noplane_ms"]),
         fmt(m["plane_speedup"], "x"), fmt(m["flat_speedup"], "x"))
        for m in measurements
    ]
    emit(
        format_table(
            ["n", "t", "flat ms/case", "view-lean ms/case",
             "att2 ms/case", "att2 no-plane", "plane", "vs flat"],
            rows,
            title="Kernel XXL scaling: per-case cost, full sweep set "
                  "(bitset data plane; flat arm where affordable; "
                  "att2 plane attribution)",
        )
    )
    emit(f"\nmerged XXL rows into {BENCH_JSON}")
    # Same opt-in as the other floors: one-shot timings on a shared
    # runner must not fail pushes.  The n = 250 flat speedup must hold
    # the n = 100 baseline's ratio — the data plane's advantage grows
    # with n, so a drop below the like-for-like baseline means the
    # bitset plane regressed — plus the usual generous hard floor.
    # The plane floors guard the batched Phase-1 fold the same way.
    # Its advantage grows with n (the per-receiver fold it replaces is
    # O(n) per receiver): ~1.7-2.4x measured at n = 250, ~3-7x at
    # n = 500, ~4-5x at n = 1000.  So n = 250 gets a
    # guard-against-pessimization
    # floor and n >= 500 the usual generous 2x.
    if os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP") == "1":
        by_n = {m["n"]: m for m in measurements}
        baseline = by_n[XXL_BASELINE[0]]["flat_speedup"]
        at_250 = by_n[250]["flat_speedup"]
        assert at_250 >= 2.0, (
            f"view-lean kernel only {at_250:.2f}x faster than flat "
            f"delivery at n=250"
        )
        assert at_250 >= baseline, (
            f"flat-delivery speedup shrank with n: {at_250:.2f}x at "
            f"n=250 vs {baseline:.2f}x at the n={XXL_BASELINE[0]} "
            f"baseline"
        )
        for m in measurements:
            if m["n"] >= 250:
                floor = 2.0 if m["n"] >= 500 else 1.2
                assert m["plane_speedup"] >= floor, (
                    f"batched Phase-1 plane only "
                    f"{m['plane_speedup']:.2f}x faster than the "
                    f"opted-out fold at n={m['n']} (floor {floor}x)"
                )


def att2_focus_measurements() -> list[dict]:
    """Plane-attribution rows at the :data:`ATT2_FOCUS_SYSTEM` size.

    Times only the two A_{t+2} variants at n = 500 — the batched
    Phase-1 plane engaged (stock factories) vs opted out (class-level
    protocol cleared, everything else identical).  A few seconds of
    work, so the per-push kernel-bench lane runs it under an explicit
    timeout and a plane regression surfaces long before the nightly
    XXL floors see it.
    """
    n, t = ATT2_FOCUS_SYSTEM
    proposals = list(range(n))
    schedules = _bench_schedules(n, t)

    def lean_arm(algorithm, workload, schedule):
        run_case(algorithm, get_factory(algorithm), workload,
                 schedule, proposals, trace_mode="lean")

    def noplane_arm(algorithm, workload, schedule):
        run_case(algorithm, _plane_opt_out_factory(algorithm),
                 workload, schedule, proposals, trace_mode="lean")

    for workload, schedule in schedules:  # warm the compile memos
        lean_arm("att2", workload, schedule)
    rows = []
    for algorithm in ATT2_FOCUS_ALGORITHMS:
        plane = _per_case_seconds(lean_arm, schedules, 1, (algorithm,))
        noplane = _per_case_seconds(
            noplane_arm, schedules, 1, (algorithm,)
        )
        rows.append({
            "algorithm": algorithm,
            "n": n,
            "t": t,
            "plane_ms": round(plane * 1e3, 3),
            "noplane_ms": round(noplane * 1e3, 3),
            "plane_speedup": round(noplane / plane, 2),
        })
    return rows


# Not smoke-marked: a handful of n = 500 cases is too heavy for the
# smoke subset, but cheap enough that the kernel-bench lane gives it
# its own timeout-bounded step (see .github/workflows/ci.yml).
def test_kernel_att2_focus(benchmark):
    rows = benchmark.pedantic(
        att2_focus_measurements, rounds=1, iterations=1
    )
    _merge_rows("att2_focus", rows)
    table_rows = [
        (r["algorithm"], r["n"], r["t"], f"{r['plane_ms']:.2f}",
         f"{r['noplane_ms']:.2f}", f"{r['plane_speedup']:.2f}x")
        for r in rows
    ]
    emit(
        format_table(
            ["algorithm", "n", "t", "plane ms/case",
             "no-plane ms/case", "plane speedup"],
            table_rows,
            title="att2 focus: batched Phase-1 plane vs opted-out fold "
                  "(lean trace, ff + random ES)",
        )
    )
    emit(f"\nmerged att2 focus rows into {BENCH_JSON}")
    if os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP") == "1":
        for r in rows:
            assert r["plane_speedup"] >= 2.0, (
                f"batched Phase-1 plane only {r['plane_speedup']:.2f}x "
                f"faster than the opted-out fold for {r['algorithm']} "
                f"at n={r['n']}"
            )
