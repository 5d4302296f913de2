"""Round-view delivery: bucket structure, sharing, and the legacy shim.

The RoundView contract the ported algorithms rely on: current-round
items pre-partitioned by tag in canonical order, delayed triples
separate, DECIDE payloads collected across both in message order, and
lazily materialized flat messages identical to what the old kernel
delivered.  Plus the two compatibility guarantees: an automaton that
only implements the legacy ``deliver`` runs unchanged through the
base-class shim, and the kernel's bucket sharing never mixes
receivers with different deliveries.
"""

import pytest

from repro.algorithms.base import Automaton, make_automata
from repro.algorithms.common import ConsensusAutomaton, decide_payload
from repro.algorithms.registry import get_factory
from repro.model.messages import Message
from repro.model.schedule import Schedule, ScheduleBuilder
from repro.sim.compiled import compile_schedule
from repro.sim.kernel import execute, execute_reference
from repro.sim.random_schedules import random_es_schedule
from repro.sim import view as view_module
from repro.sim.view import RoundView, all_pids


def entry(sent_round, sender, payload):
    return (sent_round, sender, payload)


def view_of(*entries, round=2, receiver=0, n=4):
    return RoundView.from_entries(round, receiver, n, entries)


class TestBucketStructure:
    def test_current_and_delayed_split(self):
        view = view_of(
            entry(1, 2, ("A", 1)),
            entry(2, 0, ("A", 2)),
            entry(2, 1, ("B", 3)),
        )
        assert view.delayed == ((1, 2, ("A", 1)),)
        assert view.current == ((0, ("A", 2)), (1, ("B", 3)))
        assert view.size == 3

    def test_tag_partition(self):
        view = view_of(
            entry(2, 0, ("A", 2)),
            entry(2, 1, ("B", 3)),
            entry(2, 2, ("A", 9)),
        )
        assert view.tagged("A") == ((0, ("A", 2)), (2, ("A", 9)))
        assert view.tagged("B") == ((1, ("B", 3)),)
        assert view.tagged("MISSING") == ()

    def test_non_tuple_payload_tags_as_itself(self):
        view = view_of(entry(2, 1, 42))
        assert view.tagged(42) == ((1, 42),)

    def test_sender_sets(self):
        view = view_of(
            entry(1, 3, ("OLD",)),  # delayed: not a current sender
            entry(2, 0, ("A",)),
            entry(2, 2, ("A",)),
        )
        assert view.current_senders == frozenset({0, 2})
        assert view.absent == frozenset({1, 3})
        assert view.all_pids == frozenset(range(4))

    def test_decides_collected_in_canonical_order(self):
        view = view_of(
            entry(1, 1, decide_payload(7)),
            entry(2, 0, ("A",)),
            entry(2, 2, decide_payload(9)),
        )
        assert view.decides == (decide_payload(7), decide_payload(9))

    def test_bare_decide_string_is_not_a_decide(self):
        # is_decide requires a tuple payload; a scalar "DECIDE" payload
        # tags as itself but must not enter the decide protocol.
        view = view_of(entry(2, 1, "DECIDE"))
        assert view.decides == ()
        assert view.tagged("DECIDE") == ((1, "DECIDE"),)

    def test_messages_materialize_canonically(self):
        view = view_of(
            entry(1, 2, ("OLD",)),
            entry(2, 0, ("A",)),
            entry(2, 1, ("B",)),
            receiver=3,
        )
        messages = view.messages
        assert messages == (
            Message(sent_round=1, sender=2, receiver=3, payload=("OLD",)),
            Message(sent_round=2, sender=0, receiver=3, payload=("A",)),
            Message(sent_round=2, sender=1, receiver=3, payload=("B",)),
        )
        assert view.messages is messages  # cached

    def test_from_messages_round_trips(self):
        messages = (
            Message(sent_round=1, sender=2, receiver=0, payload=("OLD",)),
            Message(sent_round=2, sender=1, receiver=0, payload=("A", 5)),
        )
        view = RoundView.from_messages(2, 0, 3, messages)
        assert view.messages == messages
        assert view.delayed == ((1, 2, ("OLD",)),)
        assert view.tagged("A") == ((1, ("A", 5)),)

    def test_all_pids_interned(self):
        assert all_pids(7) is all_pids(7)
        assert all_pids(7) == frozenset(range(7))


class TestShifted:
    def test_shift_drops_and_rebases(self):
        view = view_of(
            entry(3, 0, ("OLD", 1)),   # sent during C's negative rounds
            entry(5, 1, ("MID", 2)),
            entry(6, 2, ("CUR", 3)),
            round=6,
        )
        shifted = view.shifted(4)
        assert shifted.round == 2
        assert shifted.delayed == ((1, 1, ("MID", 2)),)
        assert shifted.current == view.current
        assert shifted.current_senders == view.current_senders

    def test_shift_refuses_decides(self):
        view = view_of(entry(6, 1, decide_payload(0)), round=6)
        with pytest.raises(ValueError, match="DECIDE"):
            view.shifted(4)


class Recorder(Automaton):
    """Records each round's flat inbox (``view.messages``)."""

    def __init__(self, pid, n, t, proposal):
        super().__init__(pid, n, t, proposal)
        self.seen = []

    def payload(self, k):
        return ("REC", k, self.pid)

    def deliver_view(self, k, view):
        self.seen.append((k, view.messages))
        if k >= 3:
            self._decide(self.proposal, k)
            self._halt()


class TestLegacyShim:
    """The flat-tuple ``deliver`` bridge into the one ``deliver_view`` hook."""

    def test_unported_automaton_gets_canonical_flat_inboxes(self):
        builder = ScheduleBuilder(3, 1, horizon=5)
        builder.delay(sender=2, receiver=0, k=1, until=2)
        schedule = builder.build()
        automata = make_automata(Recorder, 3, 1, [0, 1, 2])
        reference = execute_reference(
            make_automata(Recorder, 3, 1, [0, 1, 2]), schedule
        )
        trace = execute(automata, schedule, trace="full")
        assert trace == reference
        k, inbox = automata[0].seen[1]  # round 2 at the delayed receiver
        assert k == 2
        assert [m.sent_round for m in inbox] == [1, 2, 2, 2]
        assert all(m.receiver == 0 for m in inbox)

    def test_hookless_subclasses_cannot_be_instantiated(self):
        # deliver_view and round_deliver_view are abstract: a subclass
        # missing its receive hook fails at construction, not mid-run.
        class NoHooks(Automaton):
            def payload(self, k):
                return None

        class Hookless(ConsensusAutomaton):
            def round_payload(self, k):
                return None

        for cls in (NoHooks, Hookless):
            with pytest.raises(TypeError, match="abstract"):
                cls(0, 3, 1, 0)

    def test_view_only_automaton_runs_and_bridges(self):
        # The documented contract: implementing only the fast hook is
        # enough — the kernel drives it directly, and direct
        # deliver() calls bridge through from_messages.
        class ViewOnly(Automaton):
            def __init__(self, pid, n, t, proposal):
                super().__init__(pid, n, t, proposal)
                self.tagged_counts = []

            def payload(self, k):
                return ("VO", k)

            def deliver_view(self, k, view):
                self.tagged_counts.append(len(view.tagged("VO")))
                if k >= 2:
                    self._decide(self.proposal, k)
                    self._halt()

        schedule = Schedule.failure_free(3, 1, 4)
        trace = execute(
            make_automata(ViewOnly, 3, 1, [0, 1, 2]), schedule,
            trace="full",
        )
        assert trace.decided_values() == {0, 1, 2}
        direct = ViewOnly(0, 3, 1, 5)
        direct.deliver(
            1, (Message(sent_round=1, sender=1, receiver=0,
                        payload=("VO", 1)),)
        )
        assert direct.tagged_counts == [1]

    def test_consensus_deliver_view_override_bridges_from_deliver(self):
        # The symmetric takeover: a subclass overriding only
        # deliver_view defines the behavior of direct deliver()
        # calls too — they must land in the override, not the protocol.
        class ViewTakeover(ConsensusAutomaton):
            announce_decision = False

            def __init__(self, pid, n, t, proposal):
                super().__init__(pid, n, t, proposal)
                self.rounds_seen = []

            def round_payload(self, k):
                return ("VT", k)

            def round_deliver_view(self, k, view):  # pragma: no cover
                raise AssertionError("deliver_view override bypasses hooks")

            def deliver_view(self, k, view):
                self.rounds_seen.append((k, len(view.current)))

        automaton = ViewTakeover(0, 3, 1, 9)
        automaton.deliver(
            2, (Message(sent_round=2, sender=1, receiver=0,
                        payload=("VT", 2)),)
        )
        assert automaton.rounds_seen == [(2, 1)]


class _ViewRecorder(Automaton):
    """Keeps each round's kernel-built view; the last pid halts after
    round 1."""

    def __init__(self, pid, n, t, proposal):
        super().__init__(pid, n, t, proposal)
        self.views = {}

    def payload(self, k):
        return ("VR", k)

    def deliver_view(self, k, view):
        # Materialize inside the round: the send table the lazy buckets
        # build from is reset once the round ends.
        view.current
        self.views[k] = view
        if self.pid == self.n - 1:
            self._halt()


class TestPlanSharingGroups:
    def test_groups_partition_by_plan_equality(self):
        schedule = random_es_schedule(6, 2, seed=11, horizon=10)
        plan = compile_schedule(schedule)
        for k in range(1, plan.horizon + 1):
            for receiver in range(plan.n):
                drep = plan.delayed_groups[k][receiver]
                assert drep <= receiver
                assert (
                    plan.delayed_inboxes[k][drep]
                    == plan.delayed_inboxes[k][receiver]
                )

    def test_failure_free_round_builds_one_current_bucket_set(
        self, monkeypatch
    ):
        schedule = Schedule.failure_free(5, 2, 3)
        plan = compile_schedule(schedule)
        for k in range(1, plan.horizon + 1):
            assert set(plan.delayed_groups[k]) == {0}
        builds = []
        real_build = view_module.build_current_buckets

        def counting_build(mask, table):
            builds.append(mask)
            return real_build(mask, table)

        monkeypatch.setattr(
            view_module, "build_current_buckets", counting_build
        )
        automata = [_ViewRecorder(pid, 5, 2, 0) for pid in range(5)]
        execute(automata, schedule, trace="lean")
        # Round 1: all five hear all five; rounds 2-3: p4 has halted and
        # the rest hear the four live broadcasters.  One build per round.
        assert builds == [0b11111, 0b01111, 0b01111]
        for k in (1, 2, 3):
            views = [a.views[k] for a in automata if k in a.views]
            assert len(views) == (5 if k == 1 else 4)
            assert all(v.current is views[0].current for v in views)

    def test_receivers_differing_only_in_a_halted_sender_share(self):
        # Round 2: p3 halted in round 1; p2's messages to p0 and p1 are
        # delayed, and so is p3's (unsent) one to p1.  The compiled masks
        # of p0 and p1 differ only in p3, so both arrive as {p0, p1} —
        # fewer than the round's broadcasters — and share one bucket set.
        schedule = Schedule(
            n=4, t=1, horizon=3,
            delays={(2, 0, 2): 3, (2, 1, 2): 3, (3, 1, 2): 3},
        )
        plan = compile_schedule(schedule)
        masks = plan.current_masks[2]
        assert masks[0] ^ masks[1] == 1 << 3
        automata = [_ViewRecorder(pid, 4, 1, 0) for pid in range(4)]
        execute(automata, schedule, trace="lean")
        view_a, view_b = automata[0].views[2], automata[1].views[2]
        assert view_a.current is view_b.current
        assert view_a.current == ((0, ("VR", 2)), (1, ("VR", 2)))


class TestViewKernelEquivalence:
    @pytest.mark.parametrize("name", ["att2", "chandra_toueg", "floodset_ws"])
    def test_view_and_flat_delivery_agree(self, name):
        # Forcing every automaton through flat delivery (materialized
        # message tuples, structure re-derived per receiver by
        # RoundView.from_messages) must not change a single record: the
        # view is a faster representation, never a different one.  The
        # same wrapper is the kernel microbench's "flat" arm, so this
        # test pins the arm's semantics too.
        from types import MethodType

        def flat_deliver_view(self, k, view):
            type(self).deliver_view(
                self, k,
                RoundView.from_messages(k, self.pid, self.n, view.messages),
            )

        factory = get_factory(name)
        n, t = 5, 2
        for seed in range(6):
            schedule = random_es_schedule(n, t, seed, horizon=12)
            ported = execute(
                make_automata(factory, n, t, list(range(n))), schedule,
                trace="full",
            )
            flat_automata = make_automata(factory, n, t, list(range(n)))
            for automaton in flat_automata:
                automaton.deliver_view = MethodType(
                    flat_deliver_view, automaton
                )
            flat = execute(flat_automata, schedule, trace="full")
            assert ported == flat
