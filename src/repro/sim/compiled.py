"""Compiled adversary schedules: the kernel's pre-resolved execution plan.

A declarative :class:`~repro.model.schedule.Schedule` answers point
queries — ``sends_in_round``, ``completes_round``, ``delivery_round`` —
each a method call over dict-backed crash/delay/loss tables.  The
execution kernel used to issue O(n²) such calls *per round*, which is
exactly the bookkeeping that made large-n sweeps impractical.

:func:`compile_schedule` performs that resolution **once per schedule**
and freezes the answers into a :class:`CompiledSchedule`.  Every process
set in the plan is an int bitmask (bit ``i`` stands for process ``i``,
see :mod:`repro.sim.bitset`):

* ``sender_masks[k]`` — the processes that send in round k (still up at
  the start of the round);
* ``completer_masks[k]`` — the processes that survive the whole of
  round k.  The round's crash set is ``sender_masks[k] &
  ~completer_masks[k]``, materialized only for full-trace records;
* ``current_masks[k][receiver]`` / ``delayed_inboxes[k][receiver]`` —
  the delivery plan, split by message age: the senders whose round-k
  message arrives in round k, and the canonically ordered earlier-round
  ``(sent_round, sender)`` pairs landing in round k.  The per-message
  age test is resolved at compile time, and messages to receivers that
  leave the computation before the delivery round are already filtered
  out, so the kernel never buffers anything it would later drop;
* ``delayed_groups[k][receiver]`` — the lowest receiver id with an
  identical delayed round-k plan.  Payload availability is global (a
  sender either broadcast in a round or did not), so receivers in one
  group see identical delayed buckets and the kernel builds them once
  per group.  The current-round half needs no such key: a mask is its
  own group key.

The plan captures everything the *schedule* contributes to a run; only
the dynamic part — which processes have halted, and what payloads the
automata produce — remains for the kernel's hot loop, whose per-round
cost drops from O(n²) schedule method calls to a few mask operations
and plain tuple indexing.

Compilation reads which messages miss their round from
:meth:`~repro.model.schedule.Schedule.late_senders`; only those go
through ``delivery_round``.  The plan is memoized on the schedule
instance (a grid running A algorithms against one schedule compiles
once) and stripped from pickles, so process-pool workers receive lean
schedules and recompile locally.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.schedule import Schedule
from repro.sim.bitset import iter_bits, mask_of
from repro.types import ProcessId, Round

__all__ = ["CompiledSchedule", "compile_schedule"]


@dataclass(frozen=True)
class CompiledSchedule:
    """A schedule's pre-resolved, per-round execution plan.

    All per-round sequences are indexed directly by the 1-based round
    number (index 0 is an unused placeholder), matching the kernel's
    loop variable.  Process sets are int bitmasks throughout.

    Attributes:
        schedule: the schedule this plan was compiled from.
        n: number of processes.
        horizon: the compiled round horizon (``schedule.horizon``).
        sender_masks: per round, the processes that send.
        completer_masks: per round, the processes that complete the
            round's receive phase per the schedule (dynamic halting is
            the kernel's concern).
        current_masks: per round and receiver, the senders whose round-k
            message arrives in round k.  ANDed with the round's
            broadcaster mask it is the receiver's arrived-sender mask,
            and the key under which the kernel shares one current-round
            bucket set.
        delayed_inboxes: per round and receiver, the earlier-round
            ``(sent_round, sender)`` pairs delivered to that receiver
            in that round, in canonical order.
        delayed_groups: per round and receiver, the lowest receiver id
            whose ``delayed_inboxes`` round plan is identical — the key
            under which the kernel shares one delayed bucket set.
    """

    schedule: Schedule
    n: int
    horizon: Round
    sender_masks: tuple[int, ...]
    completer_masks: tuple[int, ...]
    current_masks: tuple[tuple[int, ...], ...]
    delayed_inboxes: tuple[
        tuple[tuple[tuple[Round, ProcessId], ...], ...], ...
    ]
    delayed_groups: tuple[tuple[ProcessId, ...], ...]


def _compile(schedule: Schedule) -> CompiledSchedule:
    n = schedule.n
    horizon = schedule.horizon
    crash_round = [schedule.crash_round(pid) for pid in range(n)]
    never = horizon + 1
    crash_at = [never if r is None else r for r in crash_round]

    sender_masks: list[int] = [0]
    completer_masks: list[int] = [0]
    current_masks: list[tuple[int, ...]] = [()]
    # (delivery round, receiver) -> earlier-round (sent_round, sender)
    # pairs; current-round deliveries go straight into the masks.
    delayed: dict[tuple[Round, ProcessId], list] = {}

    # Crash rounds bucketed once, as masks: a round without an entry
    # crashes nobody, so its completers are its senders.
    crashes_in: dict[Round, int] = {}
    for pid in range(n):
        k = crash_at[pid]
        if k <= horizon:
            crashes_in[k] = crashes_in.get(k, 0) | 1 << pid

    # Live at the start of round 1: everyone whose crash round is >= 1
    # (i.e. everyone — crash rounds are 1-based — unless a degenerate
    # schedule crashes a process before the run starts).
    live_mask = mask_of(pid for pid in range(n) if crash_at[pid] >= 1)

    delivery_round = schedule.delivery_round
    for k in range(1, horizon + 1):
        senders = live_mask
        sender_masks.append(senders)
        live_mask &= ~crashes_in.get(k, 0)
        completer_masks.append(live_mask)
        # A completer hears every sender of the round except its late
        # ones (rows without late senders share the round's mask); a
        # receiver that does not complete the round hears none.
        row = [senders if live_mask >> pid & 1 else 0 for pid in range(n)]
        for receiver, late_mask in schedule.late_senders(k).items():
            row[receiver] &= ~late_mask
            for sender in iter_bits(late_mask):
                delivery = delivery_round(sender, receiver, k)
                if delivery is None or delivery > horizon:
                    continue
                if crash_at[receiver] <= delivery:
                    # The receiver leaves the computation before the
                    # delivery round; the message can never be received.
                    continue
                delayed.setdefault((delivery, receiver), []).append(
                    (k, sender)
                )
        current_masks.append(tuple(row))

    delayed_inboxes: list[tuple] = [()]
    delayed_groups: list[tuple] = [()]
    for k in range(1, horizon + 1):
        round_delayed = []
        round_dgroups = []
        dgroup_reps: dict[tuple, ProcessId] = {}
        for receiver in range(n):
            pairs = tuple(sorted(delayed.get((k, receiver), ())))
            round_delayed.append(pairs)
            round_dgroups.append(dgroup_reps.setdefault(pairs, receiver))
        delayed_inboxes.append(tuple(round_delayed))
        delayed_groups.append(tuple(round_dgroups))

    return CompiledSchedule(
        schedule=schedule,
        n=n,
        horizon=horizon,
        sender_masks=tuple(sender_masks),
        completer_masks=tuple(completer_masks),
        current_masks=tuple(current_masks),
        delayed_inboxes=tuple(delayed_inboxes),
        delayed_groups=tuple(delayed_groups),
    )


def compile_schedule(schedule: Schedule) -> CompiledSchedule:
    """The compiled execution plan for *schedule* (memoized per instance).

    Schedules are immutable, so the plan is cached on the instance the
    same way as :meth:`~repro.model.schedule.Schedule.digest` — shared
    across every algorithm a grid runs against the schedule, and never
    pickled (workers recompile on first use).
    """
    cached = schedule.__dict__.get("_compiled_cache")
    if cached is not None:
        return cached
    plan = _compile(schedule)
    object.__setattr__(schedule, "_compiled_cache", plan)
    return plan
