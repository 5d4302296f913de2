"""Shared helpers for model validators."""

from __future__ import annotations

from repro.model.schedule import Schedule
from repro.types import ProcessId, Round


def same_round_senders(
    schedule: Schedule, receiver: ProcessId, k: Round
) -> frozenset[ProcessId]:
    """Senders whose round-k message reaches *receiver* within round k.

    Includes the receiver itself (self-delivery is immediate).  This is
    the set whose complement the receiver *suspects* in round k.
    """
    late = schedule.late_senders(k).get(receiver, 0)
    return frozenset(
        sender
        for sender in schedule.processes
        if schedule.sends_in_round(sender, k) and not late >> sender & 1
    )


def suspected_by(
    schedule: Schedule, receiver: ProcessId, k: Round
) -> frozenset[ProcessId]:
    """Processes *receiver* suspects in round k: no round-k message arrived.

    Matches the paper's definition: p_i suspects p_j in round k iff p_i
    does not receive the round-k message from p_j in round k.  This is also
    the simulated failure-detector output of Section 4.
    """
    received_from = same_round_senders(schedule, receiver, k)
    return frozenset(schedule.processes) - received_from
