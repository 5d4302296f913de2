"""Tests for the shared ConsensusAutomaton wrapper (DECIDE plumbing)."""

import pytest

from repro.algorithms.common import ConsensusAutomaton, decide_payload
from repro.errors import AlgorithmError
from repro.model.messages import Message
from repro.model.schedule import Schedule
from repro.sim.kernel import execute


class DecideAtRound(ConsensusAutomaton):
    """Decides its proposal at a fixed round; otherwise sends heartbeats."""

    decide_round = 2

    def round_payload(self, k):
        return ("BEAT", k)

    def round_deliver_view(self, k, view):
        if k == self.decide_round:
            self._decide(self.proposal, k)


class NeverDecides(ConsensusAutomaton):
    def round_payload(self, k):
        return ("BEAT", k)

    def round_deliver_view(self, k, view):
        pass


def decide_message(k, sender, receiver, value):
    return Message(sent_round=k, sender=sender, receiver=receiver,
                   payload=decide_payload(value))


class TestDecideFlow:
    def test_announce_then_halt(self):
        schedule = Schedule.failure_free(2, 1, 6)
        automata = [DecideAtRound(p, 2, 1, "v") for p in range(2)]
        trace = execute(automata, schedule)
        # Decide at round 2, broadcast DECIDE in round 3, halt at round 3.
        assert trace.decisions == {0: ("v", 2), 1: ("v", 2)}
        assert trace.record(3).sent[0] == decide_payload("v")
        assert trace.record(3).halted == frozenset({0, 1})
        assert trace.rounds_executed == 3

    def test_decide_message_adopted_and_relayed(self):
        schedule = Schedule.failure_free(2, 1, 6)
        decider = DecideAtRound(0, 2, 1, "w")
        follower = NeverDecides(1, 2, 1, "x")
        trace = execute([decider, follower], schedule)
        # Follower adopts the decision from p0's round-3 DECIDE...
        assert trace.decision_value(1) == "w"
        assert trace.decision_round(1) == 3
        # ... relays it in round 4, then halts.
        assert trace.record(4).sent[1] == decide_payload("w")
        assert trace.record(4).halted == frozenset({1})

    def test_delayed_decide_still_adopted(self):
        from repro.model.schedule import ScheduleBuilder

        builder = ScheduleBuilder(2, 1, 8)
        builder.delay(0, 1, 3, 6)  # p0's DECIDE (sent round 3) arrives at 6
        schedule = builder.build()
        decider = DecideAtRound(0, 2, 1, "w")
        follower = NeverDecides(1, 2, 1, "x")
        trace = execute([decider, follower], schedule)
        assert trace.decision_round(1) == 6

    def test_no_announce_mode_halts_immediately(self):
        class Quiet(DecideAtRound):
            announce_decision = False

        schedule = Schedule.failure_free(2, 1, 6)
        automata = [Quiet(p, 2, 1, "v") for p in range(2)]
        trace = execute(automata, schedule)
        assert trace.record(2).halted == frozenset({0, 1})
        assert trace.rounds_executed == 2

    def test_conflicting_decides_in_one_round_raise(self):
        follower = NeverDecides(0, 3, 1, "x")
        with pytest.raises(AlgorithmError, match="decided"):
            follower.deliver(
                5,
                (
                    decide_message(5, 1, 0, "a"),
                    decide_message(5, 2, 0, "b"),
                ),
            )

    def test_decide_messages_after_deciding_are_ignored(self):
        # Once decided, the wrapper halts on the next delivery without
        # re-examining messages (the invocation has returned).
        follower = NeverDecides(0, 3, 1, "x")
        follower.deliver(5, (decide_message(5, 1, 0, "a"),))
        follower.deliver(6, (decide_message(6, 2, 0, "b"),))
        assert follower.decision == "a"
        assert follower.halted

    def test_redundant_equal_decide_is_fine(self):
        follower = NeverDecides(0, 3, 1, "x")
        follower.deliver(
            5,
            (
                decide_message(5, 1, 0, "a"),
                decide_message(5, 2, 0, "a"),
            ),
        )
        assert follower.decision == "a"
