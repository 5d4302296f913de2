"""Edge-case tests for A_{t+2}: factory plumbing, stale messages, wide t."""

import pytest

from repro import ATt2, ChandraTouegES, HurfinRaynalES, Schedule
from repro.algorithms.suspicion import estimate_payload
from repro.core.att2_optimized import ATt2Optimized
from repro.model.messages import Message
from repro.model.schedule import ScheduleBuilder
from repro.sim.kernel import run_algorithm
from repro.sim.view import RoundView
from tests.conftest import run_and_check


class TestFactoryPlumbing:
    def test_factory_name_mentions_class(self):
        assert "ATt2" in ATt2.factory().__name__

    def test_factory_binds_underlying(self):
        factory = ATt2.factory(HurfinRaynalES)
        automaton = factory(0, 5, 2, 1)
        assert automaton._underlying_factory is HurfinRaynalES

    def test_default_underlying_is_chandra_toueg(self):
        automaton = ATt2(0, 5, 2, 1)
        assert automaton._underlying_factory is ChandraTouegES

    def test_underlying_not_built_on_fast_path(self):
        from repro.algorithms.base import make_automata
        from repro.sim.kernel import execute

        automata = make_automata(ATt2.factory(), 3, 1, [1, 2, 3])
        execute(automata, Schedule.failure_free(3, 1, 10))
        for automaton in automata:
            assert automaton._underlying is None


class TestStaleMessages:
    def test_delayed_estimates_do_not_unsettle_phase_two(self):
        # Round-1 estimates crawling into round t+2 must be ignored by the
        # NEWESTIMATE logic (they carry a different tag and round).
        builder = ScheduleBuilder(3, 1, 12)
        builder.delay(0, 1, 1, 3)  # arrives exactly in round t+2
        trace = run_and_check(ATt2.factory(), builder.build(), [0, 1, 1])
        assert len(trace.decided_values()) == 1

    def test_delayed_new_estimates_do_not_reach_c(self):
        # NEWESTIMATE delayed past t+2 lands in C's rounds; A must filter
        # it out (sent_round <= offset) rather than feed it to C.
        builder = ScheduleBuilder(3, 1, 20)
        for k in (1, 2):
            builder.delay(0, 1, k, 3)
            builder.delay(0, 2, k, 3)
        builder.delay(1, 2, 3, 6)  # p1's NEWESTIMATE crawls into C rounds
        trace = run_and_check(ATt2.factory(), builder.build(), [0, 1, 1])
        assert len(trace.decided_values()) == 1


class TestWideResilience:
    @pytest.mark.parametrize("n,t", [(7, 1), (7, 3), (11, 5)])
    def test_t_extremes_still_t_plus_2(self, n, t):
        schedule = Schedule.failure_free(n, t, t + 5)
        trace = run_and_check(ATt2.factory(), schedule, list(range(n)))
        assert trace.global_decision_round() == t + 2

    def test_all_but_one_proposals_equal(self):
        schedule = Schedule.failure_free(5, 2, 10)
        trace = run_and_check(ATt2.factory(), schedule, [9, 9, 9, 9, 0])
        assert trace.decided_values() == {0}

    def test_unanimous_proposals(self):
        schedule = Schedule.failure_free(5, 2, 10)
        trace = run_and_check(ATt2.factory(), schedule, [7, 7, 7, 7, 7])
        assert trace.decided_values() == {7}
        assert trace.global_decision_round() == 4  # still no early exit


class TestHaltBookkeeping:
    def test_halt_sets_grow_monotonically(self):
        schedule = Schedule.synchronous(
            5, 2, 12, crashes={4: (1, []), 3: (2, [])}
        )
        trace = run_algorithm(ATt2.factory(), schedule, [3, 1, 4, 1, 5])
        for pid in range(3):
            previous = frozenset()
            for k in (1, 2, 3):
                payload = trace.record(k).sent[pid]
                assert payload[0] == "ESTIMATE"
                halt = payload[3]
                assert previous <= halt
                previous = halt

    def test_msg_set_senders_excludes_halt_stale_and_foreign(self):
        automaton = ATt2(0, 5, 2, 7)
        automaton.state.halt = frozenset({3})
        messages = (
            Message(2, 0, 0, estimate_payload(2, 7, frozenset())),
            Message(2, 1, 0, estimate_payload(2, 1, frozenset({0}))),
            Message(2, 3, 0, estimate_payload(2, 0, frozenset())),  # in Halt
            Message(1, 4, 0, estimate_payload(1, 2, frozenset())),  # stale
            Message(2, 2, 0, ("NEWESTIMATE", 2, 5)),                # foreign
        )
        senders = automaton.state.msg_set_senders(2, messages)
        # Halt exclusion reads the *current* Halt; a sender suspecting
        # p0 still counts until compute() actually adds it.
        assert senders == frozenset({0, 1})

    def test_msg_set_senders_empty_inbox(self):
        automaton = ATt2(0, 5, 2, 7)
        assert automaton.state.msg_set_senders(1, ()) == frozenset()

    def test_crashed_processes_accumulate_in_halt(self):
        schedule = Schedule.synchronous(
            5, 2, 12, crashes={4: (1, []), 3: (2, [])}
        )
        trace = run_algorithm(ATt2.factory(), schedule, [3, 1, 4, 1, 5])
        final_halt = trace.record(3).sent[0][3]
        assert final_halt == frozenset({3, 4})


def _round2_view(pid, n, items):
    """A round-2 view over ``(sender, est, halt)`` ESTIMATE items."""
    return RoundView.from_messages(
        2, pid, n,
        tuple(
            Message(2, sender, pid, estimate_payload(2, est, frozenset(halt)))
            for sender, est, halt in items
        ),
    )


class TestFailureFreeFastPathEdges:
    """Direct edges of Figure 4's round-2 check (no kernel in the loop)."""

    def _automaton(self, pid=0, n=5, t=2, proposal=9):
        return ATt2Optimized(pid, n, t, proposal)

    def test_empty_round_2_delivery_does_not_decide(self):
        automaton = self._automaton()
        view = _round2_view(0, 5, ())
        assert automaton._failure_free_fast_path(2, view) is False
        assert not automaton.decided
        assert automaton.vc == 9  # untouched: no circulating estimate

    def test_partial_hearing_with_clean_halts_prepositions_vc(self):
        # 3 of 5 heard, all Halt payloads empty: no decision, but vc
        # adopts the (unique) circulating minimum for the fallback.
        automaton = self._automaton()
        view = _round2_view(
            0, 5, ((0, 9, ()), (1, 4, ()), (3, 6, ()))
        )
        assert automaton._failure_free_fast_path(2, view) is False
        assert not automaton.decided
        assert automaton.vc == 4

    def test_partial_hearing_with_nonempty_halt_bails_untouched(self):
        # A suspicion visible in *any* received payload disables the
        # optimization outright — vc must not move even though smaller
        # estimates circulate.
        automaton = self._automaton()
        view = _round2_view(
            0, 5, ((0, 9, ()), (1, 4, (2,)), (3, 6, ()))
        )
        assert automaton._failure_free_fast_path(2, view) is False
        assert not automaton.decided
        assert automaton.vc == 9

    def test_complete_hearing_with_nonempty_halt_bails(self):
        # Even n clean-looking estimates do not decide if one of them
        # carries a suspicion.
        automaton = self._automaton()
        view = _round2_view(
            0, 5,
            ((0, 9, ()), (1, 4, ()), (2, 5, (0,)), (3, 6, ()), (4, 7, ())),
        )
        assert automaton._failure_free_fast_path(2, view) is False
        assert not automaton.decided
        assert automaton.vc == 9

    def test_complete_clean_hearing_decides_minimum(self):
        automaton = self._automaton()
        view = _round2_view(
            0, 5,
            ((0, 9, ()), (1, 4, ()), (2, 5, ()), (3, 6, ()), (4, 7, ())),
        )
        assert automaton._failure_free_fast_path(2, view) is True
        assert automaton.decided
        assert automaton.decision == 4

    def test_plane_backed_fast_path_matches_local_scan(self):
        # The same edges through the batched plane's round2_stats.  The
        # plane's protocol contract says payloads ARE state.payload(k),
        # so each case's sender states carry the est/Halt the payloads
        # show.
        from repro.sim.phase1_plane import Phase1Plane
        from repro.sim.view import SendTable

        cases = (
            ((), False, 9),                                    # empty
            (((0, 9, ()), (1, 4, ()), (3, 6, ())), False, 4),  # partial
            (((0, 9, ()), (1, 4, (2,)), (3, 6, ())), False, 9),  # tainted
        )
        for items, want_decided, want_vc in cases:
            local = self._automaton()
            batched = self._automaton()
            others = [ATt2Optimized(pid, 5, 2, 9) for pid in range(1, 5)]
            by_pid = [batched] + others
            for sender, est, halt in items:
                by_pid[sender].state.est = est
                by_pid[sender].state.halt = frozenset(halt)
                by_pid[sender].state._halt_mask = sum(
                    1 << p for p in halt
                )
            plane = Phase1Plane([a.state for a in by_pid])
            batched.bind_phase1_plane(plane)
            table = SendTable(5)
            for sender, _est, _halt in items:
                table.record(sender, by_pid[sender].state.payload(2))
            plane.begin_round(2, table)
            view = _round2_view(0, 5, items)
            assert (
                batched._failure_free_fast_path(2, view)
                == local._failure_free_fast_path(2, view)
                == want_decided
            )
            plane.end_round()
            assert batched.decided == local.decided == want_decided
            assert batched.vc == local.vc == want_vc
