"""Property suite: the batched Phase-1 plane vs the per-receiver oracle.

The plane (:mod:`repro.sim.phase1_plane`) must be byte-equivalent to the
preserved :meth:`~repro.algorithms.suspicion.EstimateState.compute_view`
— the same oracle pattern as ``test_suspicion.py``, lifted to whole
rounds: for random suspicion patterns, crash sets, and per-receiver
delivery subsets, drive both implementations through the *real* kernel
wiring (a filled :class:`~repro.sim.view.SendTable`, lazy
:class:`~repro.sim.view.RoundView` views over shared
:class:`~repro.sim.view.CurrentCell` buckets, ``begin_round`` /
``end_round``) and assert every receiver's ``(est, halt)`` matches.

The cranked tier (``REPRO_PROPERTY_SAMPLES`` > 500, the nightly lane)
additionally replays full n = 250 kernel executions with the plane
engaged against opted-out runs and exports any diverging schedule as a
replayable JSON artifact under ``REPRO_PROPERTY_ARTIFACTS`` — the same
convention as ``tests/engine/test_property_safety.py``.
"""

import copy
import json
import os

import pytest

from repro.algorithms.suspicion import EstimateState, estimate_payload
from repro.sim.bitset import mask_of
from repro.sim.phase1_plane import (
    PHASE1_ESTIMATE,
    Phase1Plane,
    build_run_plane,
)
from repro.sim.view import CurrentCell, RoundView, SendTable


def _samples_from_env(default: int = 200) -> int:
    raw = os.environ.get("REPRO_PROPERTY_SAMPLES", "")
    if not raw:
        return default
    return int(raw)


SAMPLES = _samples_from_env()

#: Cranked lanes also run the n = 250 kernel-replay tier (mirrors the
#: XXL threshold of the engine property harness).
XXL_THRESHOLD = 500


def _lazy_view(k, pid, n, delivered, table):
    """A receiver's round view exactly as the kernel builds it."""
    mask = mask_of(delivered) & table.sender_mask
    return RoundView.lazy(k, pid, n, (), (), CurrentCell(table, mask), mask)


def _drive_round(plane, states, oracles, k, broadcasts, deliveries):
    """One kernel-shaped round: send phase, plane round, receive phase.

    *broadcasts* maps sender -> payload (senders absent from it crashed
    or halted before sending); *deliveries* maps receiver -> iterable of
    senders whose broadcast arrives.  Both the plane-backed states and
    the oracle copies receive identical views.
    """
    n = len(states)
    table = SendTable(n)
    for sender, payload in sorted(broadcasts.items()):
        table.record(sender, payload)
    plane.begin_round(k, table)
    for pid, delivered in sorted(deliveries.items()):
        delivered = [s for s in delivered if s in broadcasts]
        view = _lazy_view(k, pid, n, delivered, table)
        plane.compute_view(states[pid], k, view)
        oracles[pid].compute_view(
            k, _lazy_view(k, pid, n, delivered, table)
        )
    plane.end_round()


def _assert_states_match(states, oracles):
    for state, oracle in zip(states, oracles):
        assert state.est == oracle.est, state.pid
        assert type(state.est) is type(oracle.est), state.pid
        assert state.halt == oracle.halt, state.pid
        assert state._halt_mask == oracle._halt_mask, state.pid


def _fresh_pair(n, ests, halts):
    states = [
        EstimateState(pid=i, n=n, est=ests[i], halt=halts[i])
        for i in range(n)
    ]
    return states, copy.deepcopy(states)


class TestPlaneMatchesOracle:
    """The core property: whole plane rounds == per-receiver compute()."""

    @staticmethod
    def _strategy():
        from hypothesis import strategies as st

        def rounds_for(n):
            pid = st.integers(min_value=0, max_value=n - 1)
            est = st.one_of(
                st.integers(min_value=-5, max_value=5),
                st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-5, max_value=5),
                st.booleans(),
            )
            one_round = st.tuples(
                st.frozensets(pid, max_size=n),        # crashed senders
                st.frozensets(pid, max_size=n),        # decide-broadcasters
                st.lists(                               # delivered[receiver]
                    st.frozensets(pid, max_size=n),
                    min_size=n, max_size=n,
                ),
            )
            return st.tuples(
                st.just(n),
                st.lists(est, min_size=n, max_size=n),          # initial ests
                st.lists(st.frozensets(pid, max_size=n - 1),    # initial halts
                         min_size=n, max_size=n),
                st.lists(one_round, min_size=1, max_size=3),
            )

        return st.integers(min_value=2, max_value=8).flatmap(rounds_for)

    def test_plane_rounds_equal_oracle_rounds(self):
        from hypothesis import given, settings

        @settings(max_examples=250, deadline=None)
        @given(self._strategy())
        def check(case):
            n, ests, halts, rounds = case
            halts = [halt - {i} for i, halt in enumerate(halts)]
            states, oracles = _fresh_pair(n, ests, halts)
            plane = Phase1Plane(states)
            for k, (crashed, deciders, delivered) in enumerate(rounds, 1):
                broadcasts = {}
                for i in range(n):
                    if i in crashed:
                        continue
                    if i in deciders:
                        # A non-ESTIMATE broadcast sharing the round:
                        # must not enter anyone's Phase-1 fold.
                        broadcasts[i] = ("DECIDE", states[i].est)
                    else:
                        broadcasts[i] = states[i].payload(k)
                deliveries = {
                    pid: delivered[pid]
                    for pid in range(n)
                    if pid not in crashed
                }
                _drive_round(
                    plane, states, oracles, k, broadcasts, deliveries
                )
                _assert_states_match(states, oracles)

        check()

    def test_unorderable_ests_fall_back_per_receiver(self):
        # A round whose circulating ests resist one global sort (int vs
        # str) must still match the oracle, which only compares values
        # that meet inside a single inbox.
        n = 4
        ests = [3, "b", 5, "a"]
        states, oracles = _fresh_pair(n, ests, [frozenset()] * n)
        plane = Phase1Plane(states)
        broadcasts = {i: states[i].payload(1) for i in range(n)}
        # Receivers only ever see mutually orderable subsets.
        deliveries = {0: {0, 2}, 1: {1, 3}, 2: {0, 2}, 3: {1, 3}}
        _drive_round(plane, states, oracles, 1, broadcasts, deliveries)
        assert not plane._sortable
        _assert_states_match(states, oracles)

    def test_equal_but_distinct_est_objects_keep_first_minimal(self):
        # 1 vs 1.0 vs True all compare equal; the fold must keep the
        # lowest sender's *object*, exactly as the oracle's strict-<
        # first-minimal scan does.
        n = 3
        ests = [1.0, True, 1]
        states, oracles = _fresh_pair(n, ests, [frozenset()] * n)
        plane = Phase1Plane(states)
        broadcasts = {i: states[i].payload(1) for i in range(n)}
        deliveries = {i: {0, 1, 2} for i in range(n)}
        _drive_round(plane, states, oracles, 1, broadcasts, deliveries)
        _assert_states_match(states, oracles)
        # Sender 0's 1.0 is the first minimal object for every receiver.
        assert all(type(state.est) is float for state in states)

    def test_out_of_band_halt_growth_is_absorbed_at_begin_round(self):
        # The protocol allows state mutation *between* rounds; the row
        # refresh must fold it into the transpose before the round runs.
        n = 3
        states, oracles = _fresh_pair(n, [5, 3, 7], [frozenset()] * n)
        plane = Phase1Plane(states)
        broadcasts = {i: states[i].payload(1) for i in range(n)}
        deliveries = {i: {0, 1, 2} for i in range(n)}
        _drive_round(plane, states, oracles, 1, broadcasts, deliveries)
        for pair in (states, oracles):
            pair[1].halt = frozenset({0})
            pair[1]._halt_mask = 1
        broadcasts = {i: states[i].payload(2) for i in range(n)}
        _drive_round(plane, states, oracles, 2, broadcasts, deliveries)
        _assert_states_match(states, oracles)
        assert 1 in states[0].halt  # p1's out-of-band suspicion was seen


class TestRound2Stats:
    """The Figure-4 fast-path fold, plane vs local single-pass oracle."""

    @staticmethod
    def _oracle(view):
        count = 0
        tainted = False
        best = None
        for _sender, payload in view.tagged("ESTIMATE"):
            count += 1
            if payload[3]:
                tainted = True
            value = payload[2]
            if count == 1 or value < best:
                best = value
        return (count, tainted, best)

    def test_stats_match_local_fold(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        def case_for(n):
            pid = st.integers(min_value=0, max_value=n - 1)
            return st.tuples(
                st.just(n),
                st.lists(st.integers(min_value=-5, max_value=5),
                         min_size=n, max_size=n),
                st.lists(st.frozensets(pid, max_size=n - 1),
                         min_size=n, max_size=n),
                st.frozensets(pid, max_size=n),   # crashed
                st.frozensets(pid, max_size=n),   # delivered
            )

        @settings(max_examples=250, deadline=None)
        @given(st.integers(min_value=2, max_value=8).flatmap(case_for))
        def check(case):
            n, ests, halts, crashed, delivered = case
            halts = [halt - {i} for i, halt in enumerate(halts)]
            states, _ = _fresh_pair(n, ests, halts)
            plane = Phase1Plane(states)
            table = SendTable(n)
            for i in range(n):
                if i not in crashed:
                    table.record(i, states[i].payload(2))
            plane.begin_round(2, table)
            view = _lazy_view(2, 0, n, delivered - crashed, table)
            stats = plane.round2_stats(2, view)
            plane.end_round()
            assert stats == self._oracle(view)

        check()

    def test_empty_round_2_delivery(self):
        # The fast path's degenerate input: nothing delivered at all.
        states, _ = _fresh_pair(3, [1, 2, 3], [frozenset()] * 3)
        plane = Phase1Plane(states)
        table = SendTable(3)
        for i in range(3):
            table.record(i, states[i].payload(2))
        plane.begin_round(2, table)
        view = _lazy_view(2, 0, 3, (), table)
        assert plane.round2_stats(2, view) == (0, False, None)
        plane.end_round()


class TestDispatchGuards:
    """The plane must refuse to answer outside its open round."""

    def _armed(self):
        states, oracles = _fresh_pair(3, [5, 3, 7], [frozenset()] * 3)
        plane = Phase1Plane(states)
        table = SendTable(3)
        for i in range(3):
            table.record(i, states[i].payload(1))
        return plane, states, oracles, table

    def test_inactive_plane_falls_back_to_oracle(self):
        plane, states, oracles, table = self._armed()
        view = _lazy_view(1, 0, 3, {0, 1, 2}, table)
        plane.compute_view(states[0], 1, view)        # never opened
        oracles[0].compute_view(1, view)
        assert states[0].est == oracles[0].est
        assert states[0].halt == oracles[0].halt
        assert plane.round2_stats(1, view) is None

    def test_closed_round_falls_back(self):
        plane, states, oracles, table = self._armed()
        plane.begin_round(1, table)
        plane.end_round()
        view = _lazy_view(1, 0, 3, {0, 1}, table)
        plane.compute_view(states[0], 1, view)
        oracles[0].compute_view(1, view)
        assert states[0].est == oracles[0].est
        assert states[0].halt == oracles[0].halt

    def test_stale_round_number_falls_back(self):
        plane, states, oracles, table = self._armed()
        plane.begin_round(2, table)
        view = _lazy_view(1, 0, 3, {0, 1}, table)
        plane.compute_view(states[0], 1, view)        # k=1, plane at k=2
        oracles[0].compute_view(1, view)
        plane.end_round()
        assert states[0].est == oracles[0].est
        assert states[0].halt == oracles[0].halt


class TestBuildRunPlane:
    """Protocol opt-in rules for binding a run's plane."""

    def test_all_declaring_automata_get_one_shared_plane(self):
        from repro.algorithms.base import make_automata
        from repro.core.att2 import ATt2

        automata = make_automata(ATt2.factory(), 5, 2, list(range(5)))
        plane = build_run_plane(automata)
        assert plane is not None
        assert all(a._plane is plane for a in automata)
        assert plane._states == tuple(a.state for a in automata)

    def test_mixed_run_gets_no_plane(self):
        from repro.algorithms.base import make_automata
        from repro.core.att2 import ATt2

        class OptOut(ATt2):
            phase1_plane_protocol = None

        automata = list(make_automata(ATt2.factory(), 5, 2, range(5)))
        automata[3] = OptOut(3, 5, 2, 3)
        assert build_run_plane(automata) is None
        assert all(a._plane is None for a in automata)

    def test_empty_run_gets_no_plane(self):
        assert build_run_plane(()) is None

    def test_declaring_without_binding_hook_raises(self):
        from repro.algorithms.base import Automaton
        from repro.errors import AlgorithmError

        class Declares(Automaton):
            phase1_plane_protocol = PHASE1_ESTIMATE

            def payload(self, k):
                return None

            def deliver_view(self, k, view):
                pass

        automaton = Declares(0, 3, 1, 0)
        with pytest.raises(AlgorithmError):
            automaton.bind_phase1_plane(object())


def _export_divergence(schedule, proposals, label):
    from repro.sim.replay import schedule_to_data

    directory = os.environ.get(
        "REPRO_PROPERTY_ARTIFACTS", "property-failures"
    )
    try:
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"phase1-plane-{label}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "algorithm": "att2_optimized",
                    "workload": label,
                    "proposals": list(proposals),
                    "schedule": schedule_to_data(schedule),
                },
                handle, indent=2, sort_keys=True,
            )
            handle.write("\n")
    except OSError:
        return None
    return directory


@pytest.mark.parametrize("seed", range(4))
def test_plane_vs_oracle_at_sweep_scale(seed):
    """Cranked-lane tier: full n = 250 kernel runs, plane vs opt-out.

    The strongest end-to-end form of the oracle property — every round
    of a real random-ES execution, all trace fields — at a width no
    n <= 8 hypothesis case can reach.  Failing schedules export as
    replayable artifacts, like the engine safety harness's.
    """
    if SAMPLES <= XXL_THRESHOLD:
        pytest.skip(
            "n=250 plane-vs-oracle cases run only in cranked lanes "
            f"(REPRO_PROPERTY_SAMPLES > {XXL_THRESHOLD})"
        )
    from repro.algorithms.base import make_automata
    from repro.core.att2_optimized import ATt2Optimized
    from repro.sim.kernel import execute
    from repro.sim.random_schedules import (
        random_es_schedule,
        random_proposals,
    )

    class OptOut(ATt2Optimized):
        phase1_plane_protocol = None

    n, t = 250, 32
    schedule = random_es_schedule(n, t, seed, horizon=12)
    proposals = random_proposals(n, seed)
    batched = execute(
        make_automata(ATt2Optimized.factory(), n, t, proposals),
        schedule, trace="full",
    )
    oracle = execute(
        make_automata(OptOut.factory(), n, t, proposals),
        schedule, trace="full",
    )
    if batched != oracle:
        exported = _export_divergence(schedule, proposals, f"seed{seed}")
        pytest.fail(
            f"plane diverged from oracle on random_es(seed={seed}); "
            + (
                f"schedule exported to {exported}/"
                if exported
                else "schedule export FAILED — regenerate from the seed"
            )
        )
