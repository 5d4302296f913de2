"""Common behaviour shared by all consensus automata.

:class:`ConsensusAutomaton` layers the universal decide/announce/halt
protocol over :class:`~repro.algorithms.base.Automaton`:

* any received ``("DECIDE", v)`` message — current-round or delayed —
  makes the process decide v;
* in the round after deciding, the process broadcasts ``("DECIDE", v)``
  once (if :attr:`announce_decision` is set) and then *returns* (halts).

This matches the paper's Phase-2 convention for A_{t+2} ("in round t+3,
p_i sends a DECIDE message with the decision value to other processes and
returns") and the standard decision-flooding of the rotating-coordinator
baselines.  Algorithms implement :meth:`round_payload` and
:meth:`round_deliver_view` and never deal with DECIDE plumbing themselves.

The protocol runs on :class:`~repro.sim.view.RoundView`\\ s: the
view's precomputed ``decides`` tuple replaces the full-inbox DECIDE scan,
and the algorithm hook receives the structured view.  A direct
``deliver(k, messages)`` call (the reference kernel, tests) goes through
the base-class bridge and lands in exactly the same code path.
"""

from __future__ import annotations

from abc import abstractmethod

from repro.algorithms.base import Automaton
from repro.model.messages import Message
from repro.sim.view import RoundView
from repro.types import Payload, Round, Value

DECIDE = "DECIDE"


def decide_payload(value: Value) -> Payload:
    return (DECIDE, value)


def is_decide(message: Message) -> bool:
    payload = message.payload
    return isinstance(payload, tuple) and bool(payload) and payload[0] == DECIDE


class ConsensusAutomaton(Automaton):
    """Base class handling DECIDE flooding and post-decision halting.

    Attributes:
        announce_decision: if True (default), broadcast one DECIDE message
            in the round after deciding, then halt.  If False, halt
            immediately after deciding (used by FloodSet, where all correct
            processes decide simultaneously and announcements are
            redundant).
        relay_decision: if True (default), a process that *adopted* its
            decision from a received DECIDE message re-broadcasts it once
            before halting.  Relaying shortens decision latency when the
            original announcement is delayed to some receivers; setting
            this to False isolates that effect (the ablation in
            benchmarks/bench_ablation.py).
    """

    announce_decision: bool = True
    relay_decision: bool = True

    # -- kernel-facing wrappers ---------------------------------------------

    def payload(self, k: Round) -> Payload | None:
        if self.decided:
            return decide_payload(self.decision)
        return self.round_payload(k)

    def deliver_view(self, k: Round, view: RoundView) -> None:
        """The universal decide/announce/halt protocol, on a view."""
        if self.decided:
            # The DECIDE broadcast for this round went out in the send
            # phase; the invocation now returns.
            self._halt()
            return
        adopted = False
        for payload in view.decides:
            self._decide(payload[1], k)
            adopted = True
        if self.decided:
            if not self.announce_decision or (
                adopted and not self.relay_decision
            ):
                self._halt()
            return
        self.round_deliver_view(k, view)
        if self.decided and not self.announce_decision:
            self._halt()

    # -- algorithm-specific hooks ---------------------------------------------

    @abstractmethod
    def round_payload(self, k: Round) -> Payload | None:
        """Payload for round *k*; called only while undecided."""

    @abstractmethod
    def round_deliver_view(self, k: Round, view: RoundView) -> None:
        """Receive phase for round *k*; called only while undecided.

        *view* still carries any DECIDE messages (already acted on);
        implementations normally consume only their own tag buckets.
        """
