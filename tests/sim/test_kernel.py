"""Tests for the execution kernel: delivery, crashes, halting, determinism."""

import pytest

from repro.algorithms.base import Automaton
from repro.errors import SimulationError
from repro.model.messages import DUMMY
from repro.model.schedule import Schedule, ScheduleBuilder
from repro.sim.kernel import execute
from repro.types import Payload, Round


class Recorder(Automaton):
    """Broadcasts its pid each round; records everything it receives."""

    def __init__(self, pid, n, t, proposal):
        super().__init__(pid, n, t, proposal)
        self.inbox_log: dict[Round, tuple] = {}

    def payload(self, k: Round) -> Payload:
        return ("PING", self.pid, k)

    def deliver_view(self, k, view):
        self.inbox_log[k] = view.messages


class SilentThenHalt(Automaton):
    """Sends nothing (kernel substitutes DUMMY) and halts after round 2."""

    def payload(self, k):
        return None

    def deliver_view(self, k, view):
        if k == 2:
            self._decide(self.proposal, k)
            self._halt()


def make(cls, schedule, proposals=None):
    n = schedule.n
    proposals = proposals or list(range(n))
    return [cls(pid, n, schedule.t, proposals[pid]) for pid in range(n)]


class TestDelivery:
    def test_all_to_all_failure_free(self):
        schedule = Schedule.failure_free(3, 1, 2)
        automata = make(Recorder, schedule)
        execute(automata, schedule)
        for automaton in automata:
            senders = [m.sender for m in automaton.inbox_log[1]]
            assert senders == [0, 1, 2]

    def test_dummy_substituted_for_none(self):
        schedule = Schedule.failure_free(2, 1, 1)
        automata = [
            SilentThenHalt(0, 2, 1, "a"),
            Recorder(1, 2, 1, "b"),
        ]
        execute(automata, schedule)
        payloads = {m.sender: m.payload for m in automata[1].inbox_log[1]}
        assert payloads[0] == DUMMY

    def test_crashed_process_does_not_deliver(self):
        schedule = Schedule.synchronous(3, 1, 3, crashes={0: (2, [1])})
        automata = make(Recorder, schedule)
        trace = execute(automata, schedule)
        # p0 sends in round 2 (to p1 only), completes round 1 only.
        assert 1 in automata[0].inbox_log
        assert 2 not in automata[0].inbox_log
        senders_p1 = [m.sender for m in automata[1].inbox_log[2]]
        senders_p2 = [m.sender for m in automata[2].inbox_log[2]]
        assert 0 in senders_p1
        assert 0 not in senders_p2
        assert trace.record(2).crashed == frozenset({0})

    def test_delayed_message_arrives_later_with_original_round(self):
        builder = ScheduleBuilder(3, 1, 4)
        builder.delay(0, 1, 1, 3)
        schedule = builder.build()
        automata = make(Recorder, schedule)
        execute(automata, schedule)
        round_one = [m.sender for m in automata[1].inbox_log[1]]
        assert 0 not in round_one
        arrivals = [
            (m.sender, m.sent_round) for m in automata[1].inbox_log[3]
        ]
        assert (0, 1) in arrivals

    def test_halted_process_neither_sends_nor_receives(self):
        schedule = Schedule.failure_free(2, 1, 4)
        automata = [
            SilentThenHalt(0, 2, 1, "a"),
            Recorder(1, 2, 1, "b"),
        ]
        trace = execute(automata, schedule)
        assert trace.record(2).halted == frozenset({0})
        senders_r3 = [m.sender for m in automata[1].inbox_log.get(3, ())]
        assert 0 not in senders_r3

    def test_lost_message_never_arrives(self):
        builder = ScheduleBuilder(3, 1, 4)
        builder.crash(0, 4)
        builder.lose(0, 1, 1)
        schedule = builder.build()
        automata = make(Recorder, schedule)
        execute(automata, schedule)
        for k, inbox in automata[1].inbox_log.items():
            assert not any(
                m.sender == 0 and m.sent_round == 1 for m in inbox
            )


class TestTraceRecording:
    def test_decisions_recorded_with_round(self):
        schedule = Schedule.failure_free(2, 1, 4)
        automata = [SilentThenHalt(p, 2, 1, f"v{p}") for p in range(2)]
        trace = execute(automata, schedule)
        assert trace.decisions == {0: ("v0", 2), 1: ("v1", 2)}
        assert trace.global_decision_round() == 2

    def test_quiescence_stops_early(self):
        schedule = Schedule.failure_free(2, 1, 50)
        automata = [SilentThenHalt(p, 2, 1, p) for p in range(2)]
        trace = execute(automata, schedule)
        assert trace.rounds_executed == 2

    def test_quiescence_on_all_crashed(self):
        schedule = Schedule.synchronous(
            2, 1, 50, crashes={0: (1, []), 1: (2, [])}
        )
        # Two crashes exceed t, but the kernel is model-agnostic.
        automata = make(Recorder, schedule)
        trace = execute(automata, schedule)
        assert trace.rounds_executed == 2

    def test_max_rounds_caps_run(self):
        schedule = Schedule.failure_free(2, 1, 50)
        automata = make(Recorder, schedule)
        trace = execute(automata, schedule, max_rounds=5)
        assert trace.rounds_executed == 5

    def test_proposals_captured(self):
        schedule = Schedule.failure_free(3, 1, 1)
        automata = make(Recorder, schedule, proposals=[7, 8, 9])
        trace = execute(automata, schedule)
        assert trace.proposals == (7, 8, 9)


class TestKernelValidation:
    def test_wrong_automata_count(self):
        schedule = Schedule.failure_free(3, 1, 2)
        automata = make(Recorder, schedule)[:2]
        with pytest.raises(SimulationError, match="3 processes"):
            execute(automata, schedule)

    def test_mismatched_pid(self):
        schedule = Schedule.failure_free(2, 1, 2)
        automata = [Recorder(1, 2, 1, 0), Recorder(0, 2, 1, 1)]
        with pytest.raises(SimulationError, match="reports pid"):
            execute(automata, schedule)


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        from repro import ATt2
        from repro.sim.kernel import run_algorithm

        schedule = Schedule.synchronous(
            5, 2, 12, crashes={0: (1, [1]), 4: (3, [2, 3])}
        )
        a = run_algorithm(ATt2.factory(), schedule, [3, 1, 4, 1, 5])
        b = run_algorithm(ATt2.factory(), schedule, [3, 1, 4, 1, 5])
        assert a.decisions == b.decisions
        for pid in range(5):
            assert a.view(pid, 12) == b.view(pid, 12)


class TestDepartedReceiverBuffering:
    """Messages to processes that left the computation are never buffered.

    Regression test for the ``pending`` message-buffer leak: the send
    phase used to enqueue messages for receivers that had already crashed
    or halted (or whose delayed delivery landed after the receiver's
    crash round); they sat in the buffer until their delivery round —
    for the whole run, if it ended first — without ever being delivered.
    """

    def _counting_kernel(self, monkeypatch):
        import repro.sim.kernel as kernel

        created = []
        real_message = kernel.Message

        def counting_message(**kwargs):
            created.append(kwargs)
            return real_message(**kwargs)

        monkeypatch.setattr(kernel, "Message", counting_message)
        return created

    def test_no_messages_created_for_crashed_receiver(self, monkeypatch):
        from repro import HurfinRaynalES
        from repro.sim.kernel import run_algorithm

        created = self._counting_kernel(monkeypatch)
        schedule = Schedule.synchronous(4, 2, 8, crashes={3: (1, [])})
        trace = run_algorithm(HurfinRaynalES, schedule, [0, 1, 2, 3])
        # p3 crashes in round 1 and never completes a receive phase, so
        # not a single message addressed to it should be materialized.
        assert not [m for m in created if m["receiver"] == 3]
        # The purge is unobservable to the algorithms: the run still
        # reaches a correct global decision.
        assert len(trace.decided_values()) == 1

    def test_no_messages_created_for_halted_receiver(self, monkeypatch):
        created = self._counting_kernel(monkeypatch)
        schedule = Schedule.failure_free(3, 1, 6)
        automata = [
            SilentThenHalt(0, 3, 1, 0),
            Recorder(1, 3, 1, 1),
            Recorder(2, 3, 1, 2),
        ]
        execute(automata, schedule, stop_when_quiescent=False)
        # p0 halts at the end of round 2; rounds 3+ must not buffer
        # messages addressed to it.
        late_to_halted = [
            m for m in created
            if m["receiver"] == 0 and m["sent_round"] > 2
        ]
        assert not late_to_halted

    def test_delayed_delivery_past_crash_round_is_not_buffered(
        self, monkeypatch
    ):
        from repro import ATt2
        from repro.sim.kernel import run_algorithm

        created = self._counting_kernel(monkeypatch)
        builder = ScheduleBuilder(4, 1, 8)
        builder.crash(3, 4, delivered_to=[0, 1, 2])
        builder.delay(0, 3, 2, 6)  # lands two rounds after p3 crashed
        trace = run_algorithm(
            ATt2.factory(), builder.build(), [0, 1, 2, 3]
        )
        # The direct round-2 deliveries to p3 are legitimate (it is alive
        # until round 4); only the delayed 0 -> 3 message, which would
        # land after the crash, must never be materialized.
        assert not [
            m for m in created
            if m["receiver"] == 3 and m["sent_round"] == 2
            and m["sender"] == 0
        ]
        assert len(trace.decided_values()) == 1
