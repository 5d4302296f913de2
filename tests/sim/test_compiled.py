"""Compiled-kernel equivalence: plan structure, trace parity, lean metrics.

The compiled kernel (:mod:`repro.sim.compiled` + the rewritten
:func:`repro.sim.kernel.execute`) is only allowed to be *faster* than the
original query-at-a-time kernel — never observably different.  These
tests pin that down three ways:

* schedules of every :func:`repro.engine.grids.build_schedule` kind
  legal in the algorithm's model (losses included) across every
  registered algorithm must produce **identical full traces** on both
  kernels;
* the lean trace mode must yield identical decisions and identical
  metrics (``summarize``, consensus checks, message counts);
* the compiled plan itself must agree with the schedule's point
  queries on every grid kind, be canonical (sorted delayed pairs,
  memoized per schedule) and never leak into pickles.
"""

import pickle
from dataclasses import replace

import pytest

from repro.algorithms.base import make_automata
from repro.algorithms.registry import available_algorithms, get_factory
from repro.analysis.metrics import check_consensus, summarize
from repro.engine.grids import build_schedule, family
from repro.errors import SimulationError
from repro.model.schedule import Schedule, ScheduleBuilder
from repro.sim.bitset import interned_set, iter_bits, mask_of
from repro.sim.compiled import compile_schedule
from repro.sim.kernel import execute, execute_reference, run_algorithm
from repro.sim.random_schedules import (
    random_es_schedule,
    random_proposals,
)

SEEDS = range(25)


def _system_for(name: str) -> tuple[int, int]:
    # afp2 and amr_leader require t < n/3; everything else runs the
    # paper's standard (n, t) = (5, 2) majority configuration.
    return (7, 2) if name in ("afp2", "amr_leader") else (5, 2)


#: Every grid schedule kind legal in SCS (synchronous crash patterns)
#: and the kinds only ES admits (delays), as (kind, family params).
_SCS_KINDS = (
    ("failure_free", {}),
    ("cascade", {}),
    ("hiding_chain", {}),
    ("block", {}),
    ("killer", {"rounds_per_cycle": 2}),
    ("random_scs", {"horizon": 8}),
    ("random_serial", {"horizon": 8}),
)
_ES_KINDS = (
    ("async_prefix", {"k": 3, "crashes_after": 1}),
    ("rotating", {"async_rounds": 3}),
    ("random_es", {}),
)


def _grid_generator(kind: str, params: dict):
    spec = family(kind, kind, **params)

    def generator(n, t, seed):
        return build_schedule(spec, n, t, seed)

    generator.__name__ = kind
    return generator


def random_es_lossy(n, t, seed):
    """``random_es`` with every faulty sender's delayed message lost.

    Still ES-legal: a faulty sender's loss in an already asynchronous
    round changes neither t-resilience nor the synchrony round.  Every
    undelivered crash-round message is lost too (``loss_prob=1``).
    """
    base = random_es_schedule(n, t, seed, loss_prob=1.0)
    lost = frozenset(key for key in base.delays if key[0] in base.faulty)
    delays = {
        key: until for key, until in base.delays.items() if key not in lost
    }
    return replace(base, delays=delays, losses=lost)


def _generators_for(name: str):
    if available_algorithms()[name].model == "SCS":
        return [_grid_generator(kind, params) for kind, params in _SCS_KINDS]
    return [
        _grid_generator(kind, params)
        for kind, params in _SCS_KINDS + _ES_KINDS
    ] + [random_es_lossy]


def _assert_round_matches(schedule, plan, k, label):
    n = schedule.n
    assert plan.sender_masks[k] == mask_of(
        pid for pid in range(n) if schedule.sends_in_round(pid, k)
    ), label
    assert plan.completer_masks[k] == mask_of(
        pid for pid in range(n) if schedule.completes_round(pid, k)
    ), label
    crashed = plan.sender_masks[k] & ~plan.completer_masks[k]
    assert interned_set(crashed) == schedule.crashed_in(k), label
    for receiver in range(n):
        delayed = plan.delayed_inboxes[k][receiver]
        current = plan.current_masks[k][receiver]
        if not schedule.completes_round(receiver, k):
            # Never received, so never planned.
            assert (delayed, current) == ((), 0), label
            continue
        assert list(delayed) == sorted(delayed), label
        assert all(sent < k for sent, _sender in delayed), label
        merged = set(delayed) | {(k, s) for s in iter_bits(current)}
        assert merged == {
            (sent, sender)
            for sender, sent in schedule.deliveries_to(receiver, k)
        }, label


class TestCompiledMatchesReference:
    @pytest.mark.parametrize("name", sorted(available_algorithms()))
    def test_full_traces_identical_on_random_schedules(self, name):
        n, t = _system_for(name)
        for generator in _generators_for(name):
            for seed in SEEDS:
                schedule = generator(n, t, seed)
                proposals = random_proposals(n, seed)
                factory = get_factory(name)
                reference = execute_reference(
                    make_automata(factory, n, t, proposals), schedule
                )
                compiled = execute(
                    make_automata(factory, n, t, proposals), schedule,
                    trace="full",
                )
                assert compiled == reference, (
                    f"{name} diverged on {generator.__name__}(seed={seed})"
                )

    def test_max_rounds_and_quiescence_parity(self):
        schedule = Schedule.failure_free(5, 2, 40)
        factory = get_factory("att2")
        for kwargs in (
            {"max_rounds": 3},
            {"max_rounds": 7},
            {"stop_when_quiescent": False},
        ):
            reference = execute_reference(
                make_automata(factory, 5, 2, [1, 0, 1, 0, 1]), schedule,
                **kwargs,
            )
            compiled = execute(
                make_automata(factory, 5, 2, [1, 0, 1, 0, 1]), schedule,
                **kwargs,
            )
            assert compiled == reference

    def test_out_of_horizon_delivery_never_delivered(self):
        # Schedules built directly (bypassing the builder's validation)
        # may carry deliveries beyond the horizon; both kernels must
        # simply never deliver them.
        schedule = Schedule(
            n=3, t=1, horizon=4, delays={(0, 1, 2): 9}
        )
        factory = get_factory("att2")
        reference = execute_reference(
            make_automata(factory, 3, 1, [0, 1, 1]), schedule
        )
        compiled = execute(
            make_automata(factory, 3, 1, [0, 1, 1]), schedule, trace="full"
        )
        assert compiled == reference


class TestPhase1PlaneDispatch:
    """The batched Phase-1 plane: when it engages, and that engaging it
    never changes a trace (per-algorithm byte-identity for the batched
    kernel path)."""

    PLANE_ALGORITHMS = ("att2", "att2_optimized", "floodset_ws",
                        "adiamond_s")

    @pytest.mark.parametrize("name", PLANE_ALGORITHMS)
    def test_plane_engages_and_matches_reference(self, name):
        factory = get_factory(name)
        for seed in SEEDS[:10]:
            schedule = random_es_schedule(5, 2, seed)
            proposals = random_proposals(5, seed)
            automata = make_automata(factory, 5, 2, proposals)
            compiled = execute(automata, schedule, trace="full")
            assert all(a._plane is not None for a in automata), name
            reference = execute_reference(
                make_automata(factory, 5, 2, proposals), schedule
            )
            assert compiled == reference, f"{name} diverged on seed {seed}"

    @pytest.mark.parametrize("name", ["chandra_toueg", "hurfin_raynal"])
    def test_non_declaring_algorithms_get_no_plane(self, name):
        automata = make_automata(
            get_factory(name), 5, 2, [3, 1, 4, 1, 5]
        )
        execute(automata, Schedule.failure_free(5, 2, 12))
        assert all(
            type(a).phase1_plane_protocol is None for a in automata
        )

    def test_opted_out_run_is_byte_identical(self):
        from repro.core.att2 import ATt2

        class OptOut(ATt2):
            phase1_plane_protocol = None

        for seed in SEEDS[:10]:
            schedule = random_es_schedule(5, 2, seed)
            proposals = random_proposals(5, seed)
            batched_automata = make_automata(ATt2.factory(), 5, 2, proposals)
            batched = execute(batched_automata, schedule, trace="full")
            oracle_automata = make_automata(OptOut.factory(), 5, 2, proposals)
            oracle = execute(oracle_automata, schedule, trace="full")
            assert all(a._plane is None for a in oracle_automata)
            assert batched == oracle, f"plane changed the trace (seed {seed})"

    def test_mixed_run_disables_plane_and_stays_identical(self):
        from repro.core.att2 import ATt2

        class OptOut(ATt2):
            phase1_plane_protocol = None

        schedule = random_es_schedule(5, 2, 7)
        proposals = random_proposals(5, 7)
        mixed = [
            (OptOut if pid == 2 else ATt2)(pid, 5, 2, proposals[pid])
            for pid in range(5)
        ]
        compiled = execute(mixed, schedule, trace="full")
        assert all(a._plane is None for a in mixed)
        reference = execute_reference(
            make_automata(ATt2.factory(), 5, 2, proposals), schedule
        )
        assert compiled == reference


class TestLeanTraceMetrics:
    @pytest.mark.parametrize(
        "name", ["att2", "att2_optimized", "adiamond_s", "hurfin_raynal",
                 "chandra_toueg"]
    )
    def test_lean_and_full_metrics_identical(self, name):
        factory = get_factory(name)
        for seed in SEEDS:
            schedule = random_es_schedule(5, 2, seed, horizon=14)
            proposals = random_proposals(5, seed)
            full = run_algorithm(factory, schedule, proposals, trace="full")
            lean = run_algorithm(factory, schedule, proposals, trace="lean")
            assert dict(lean.decisions) == dict(full.decisions)
            assert lean.rounds_executed == full.rounds_executed
            assert lean.message_count() == full.message_count()
            assert summarize(lean) == summarize(full)
            assert check_consensus(
                lean, expect_termination=False
            ) == check_consensus(full, expect_termination=False)

    def test_lean_halt_rounds_match_full_trace(self):
        factory = get_factory("att2")
        schedule = Schedule.synchronous(5, 2, 12, crashes={0: (1, [1])})
        full = run_algorithm(factory, schedule, [3, 1, 4, 1, 5])
        lean = run_algorithm(
            factory, schedule, [3, 1, 4, 1, 5], trace="lean"
        )
        halted_full = {
            pid: record.round
            for record in full.rounds
            for pid in record.halted
        }
        assert dict(lean.halted_rounds) == halted_full

    def test_lean_trace_surface(self):
        factory = get_factory("att2")
        schedule = Schedule.failure_free(3, 1, 10)
        lean = run_algorithm(factory, schedule, [2, 0, 2], trace="lean")
        assert lean.n == 3 and lean.t == 1
        assert lean.deciders() == frozenset({0, 1, 2})
        assert lean.decided_values() == {lean.decision_value(0)}
        assert lean.decision_round(0) == lean.first_decision_round()
        assert lean.alive_at_end() == frozenset({0, 1, 2})
        assert lean.crash_rounds() == {}
        assert "decisions" in lean.describe()

    def test_unknown_trace_mode_rejected(self):
        factory = get_factory("att2")
        schedule = Schedule.failure_free(3, 1, 4)
        with pytest.raises(SimulationError, match="unknown trace mode"):
            run_algorithm(factory, schedule, [0, 1, 2], trace="verbose")


class TestCompiledPlan:
    def test_plan_is_memoized_per_schedule(self):
        schedule = random_es_schedule(5, 2, 7)
        assert compile_schedule(schedule) is compile_schedule(schedule)

    @pytest.mark.parametrize(
        "generator", _generators_for("att2"), ids=lambda g: g.__name__
    )
    def test_plan_matches_schedule_queries(self, generator):
        # Every grid kind (losses included) against the declarative
        # schedule's point queries, round by round.
        for n, t in ((5, 2), (7, 2)):
            for seed in SEEDS[:10]:
                schedule = generator(n, t, seed)
                plan = compile_schedule(schedule)
                label = f"{generator.__name__}(n={n}, seed={seed})"
                for k in range(1, plan.horizon + 1):
                    _assert_round_matches(schedule, plan, k, label)

    def test_compile_seeds_the_sync_from_memo(self):
        schedule = random_es_schedule(5, 2, 17, horizon=10)
        expected = Schedule(
            n=schedule.n, t=schedule.t, horizon=schedule.horizon,
            crashes=dict(schedule.crashes), delays=dict(schedule.delays),
            losses=schedule.losses,
        ).sync_from()  # computed the slow way on an uncompiled twin
        compile_schedule(schedule)
        assert schedule.__dict__.get("_sync_from_cache") == expected
        assert schedule.sync_from() == expected

    def test_caches_never_pickled(self):
        schedule = random_es_schedule(5, 2, 19)
        compile_schedule(schedule)
        schedule.digest()
        schedule.sync_from()
        clone = pickle.loads(pickle.dumps(schedule))
        assert clone == schedule
        assert "_compiled_cache" not in clone.__dict__
        assert "_digest_cache" not in clone.__dict__
        assert "_sync_from_cache" not in clone.__dict__
        # and the clone still works end to end
        factory = get_factory("att2")
        assert run_algorithm(
            factory, clone, [0, 1, 0, 1, 1], trace="lean"
        ).decisions == run_algorithm(
            factory, schedule, [0, 1, 0, 1, 1], trace="lean"
        ).decisions

    def test_delayed_delivery_map_matches_linear_scan(self):
        builder = ScheduleBuilder(5, 2, 10)
        builder.crash(0, 2, delivered_to=[1], delayed={2: 4, 3: 6})
        schedule = builder.build()
        spec = schedule.crashes[0]
        for receiver in range(5):
            expected = next(
                (d for r, d in spec.delayed if r == receiver), None
            )
            assert spec.delayed_delivery(receiver) == expected
        # survives pickling (the lazy map is rebuilt on demand)
        clone = pickle.loads(pickle.dumps(schedule))
        assert clone.crashes[0].delayed_delivery(2) == 4


class TestRecordEquivalencePerAlgorithm:
    """Acceptance: every registered algorithm's sweep records are
    byte-identical across the view kernel (both trace modes) and the
    preserved reference pipeline, over seeded random schedules."""

    @staticmethod
    def _reference_record(name, workload, schedule, proposals):
        from repro.analysis.metrics import check_agreement, check_validity
        from repro.analysis.sweep import SweepRecord

        factory = get_factory(name)
        trace = execute_reference(
            make_automata(factory, schedule.n, schedule.t, proposals),
            schedule,
        )
        first_bad = 0
        for k in range(1, schedule.horizon + 1):
            if not schedule.is_synchronous_round(k):
                first_bad = k
        return SweepRecord(
            algorithm=name,
            workload=workload,
            n=schedule.n,
            t=schedule.t,
            crashes=len(schedule.crashes),
            sync_from=first_bad + 1,
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

    @pytest.mark.parametrize("name", sorted(available_algorithms()))
    def test_lean_and_full_records_match_reference_pipeline(self, name):
        from repro.analysis.sweep import run_case

        n, t = _system_for(name)
        factory = get_factory(name)
        for generator in _generators_for(name):
            for seed in range(8):
                schedule = generator(n, t, seed)
                proposals = random_proposals(n, seed)
                expected = self._reference_record(
                    name, generator.__name__, schedule, proposals
                )
                for mode in ("full", "lean"):
                    record, _trace = run_case(
                        name, factory, generator.__name__, schedule,
                        proposals, trace_mode=mode,
                    )
                    assert record == expected, (
                        f"{name} {mode} record diverged on "
                        f"{generator.__name__}(seed={seed})"
                    )
