"""The deterministic round-based execution kernel.

:func:`execute` runs one automaton per process against an adversary
:class:`~repro.model.schedule.Schedule` and returns the run's trace — a
complete :class:`~repro.sim.trace.Trace` (``trace="full"``) or a
decision-level :class:`~repro.sim.trace.LeanTrace` (``trace="lean"``).

Round structure (paper, Section 1.2): each round k has a send phase — every
non-crashed, non-halted process broadcasts one payload, timestamped k — and
a receive phase — every process that completes the round receives the
round-k messages the schedule delivers in round k, plus any earlier-round
messages whose delayed delivery lands in round k.  A process that crashes
in round k sends to the schedule-chosen subset and never executes the
receive phase.

Execution runs on a compiled plan (:mod:`repro.sim.compiled`): the
schedule's send/completion/delivery structure is resolved once per
schedule into int bitmasks, so the per-round hot loop is mask
arithmetic and tuple indexing — no
``sends_in_round``/``delivery_round``/``completes_round`` calls.  The
halted set is a mask too: a round's active senders and receivers are
one ``& ~halted_mask`` each.  Delivery goes through
:class:`~repro.sim.view.RoundView`: the kernel builds each receiver's
structured inbox (current-round items bucketed by tag, delayed messages
separate, present-sender set) straight from the plan — shared across
receivers with the same arrived-sender mask or delayed plan — and
drives the automata through
:meth:`~repro.algorithms.base.Automaton.deliver_view`, the one receive
hook.  Both trace modes run the same loop; ``trace="full"`` only adds
the per-round :class:`~repro.sim.trace.RoundRecord` bookkeeping.  The
original query-at-a-time loop is preserved verbatim as
:func:`execute_reference`; the equivalence tests and the kernel
microbenchmark hold the two byte-identical on full traces.

The kernel is *model-agnostic*: it executes any schedule.  Whether the
schedule obeys SCS or ES is checked separately by the validators in
:mod:`repro.model.scs` and :mod:`repro.model.es`.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.algorithms.base import AlgorithmFactory, Automaton
from repro.errors import SimulationError
from repro.model.messages import DUMMY, Message, sort_delivery
from repro.model.schedule import Schedule
from repro.sim.bitset import interned_set, iter_bits
from repro.sim.compiled import CompiledSchedule, compile_schedule
from repro.sim.phase1_plane import build_run_plane
from repro.sim.trace import AnyTrace, LeanTrace, RoundRecord, Trace
from repro.sim.view import (
    CurrentCell,
    RoundView,
    SendTable,
    build_delayed_buckets,
)
from repro.types import Payload, ProcessId, Round, Value

#: The supported ``trace=`` modes, in documentation order.
TRACE_MODES = ("full", "lean")

#: Payload-grid sentinel: "this process did not send in this round".
#: (``None`` cannot serve — the kernel substitutes DUMMY for it, and no
#: payload may legitimately be the sentinel itself.)
_NOT_SENT = object()


def _round_view_factory(
    k: Round,
    n: int,
    plan: CompiledSchedule,
    table: SendTable,
    payloads: Sequence[Sequence[Payload]],
    shared_current: dict[int, CurrentCell],
    shared_delayed: dict[ProcessId, tuple],
) -> Callable[[ProcessId], RoundView]:
    """One round's view builder, sharing buckets across receivers.

    Returns ``view_for(pid)``.  ``shared_current``/``shared_delayed``
    are the run's preallocated bucket maps; the caller clears them
    between rounds instead of allocating fresh dicts.

    Current-round buckets are *lazy* and keyed by the receiver's
    arrived-sender mask (the compiled plan mask ANDed with the round's
    broadcaster mask): buckets are a pure function of that mask and the
    send table, so every receiver with the same mask shares one
    :class:`CurrentCell`, and views carry only the mask.  A receiver
    whose round never touches ``current``/``by_tag``/``decides`` — the
    batched Phase-1 plane path — skips the build entirely.  Delayed
    buckets are shared by ``plan.delayed_groups``.
    """
    delayed_plan = plan.delayed_inboxes[k]
    cmasks = plan.current_masks[k]
    dgroups = plan.delayed_groups[k]
    sender_mask = table.sender_mask

    def view_for(pid: ProcessId) -> RoundView:
        cmask = cmasks[pid] & sender_mask
        cell = shared_current.get(cmask)
        if cell is None:
            cell = shared_current[cmask] = CurrentCell(table, cmask)
        rep = dgroups[pid]
        dly = shared_delayed.get(rep)
        if dly is None:
            dly = shared_delayed[rep] = build_delayed_buckets(
                delayed_plan[pid], payloads, _NOT_SENT
            )
        return RoundView.lazy(k, pid, n, dly[0], dly[1], cell, cmask)

    return view_for


def _check_run(automata: Sequence[Automaton], schedule: Schedule) -> None:
    n = schedule.n
    if len(automata) != n:
        raise SimulationError(
            f"schedule is for {n} processes, got {len(automata)} automata"
        )
    for pid, automaton in enumerate(automata):
        if automaton.pid != pid:
            raise SimulationError(
                f"automaton at index {pid} reports pid {automaton.pid}"
            )


def _bounded_horizon(schedule: Schedule, max_rounds: Round | None) -> Round:
    horizon = schedule.horizon
    if max_rounds is not None:
        horizon = min(horizon, max_rounds)
    return horizon


def execute(
    automata: Sequence[Automaton],
    schedule: Schedule,
    *,
    max_rounds: Round | None = None,
    stop_when_quiescent: bool = True,
    trace: str = "full",
) -> AnyTrace:
    """Execute one run and return its trace.

    Args:
        automata: one automaton per process, index = process id.
        schedule: the adversary schedule; its ``horizon`` bounds the run.
        max_rounds: optional tighter bound on the number of rounds.
        stop_when_quiescent: stop early once every process has crashed or
            halted (the run's outcome can no longer change).
        trace: ``"full"`` records every round into a
            :class:`~repro.sim.trace.Trace`; ``"lean"`` skips per-round
            records and returns a :class:`~repro.sim.trace.LeanTrace`
            carrying only what the metrics layer consumes.  Both modes
            drive the automata identically, so decisions and metrics
            never depend on the choice.

    Returns:
        The run's trace.  The kernel never raises on non-termination —
        a run that fails to decide simply ends at the horizon with missing
        decisions, which the analysis layer reports.
    """
    _check_run(automata, schedule)
    if trace not in TRACE_MODES:
        raise SimulationError(
            f"unknown trace mode {trace!r}; known: " + ", ".join(TRACE_MODES)
        )
    plan = compile_schedule(schedule)
    horizon = _bounded_horizon(schedule, max_rounds)
    proposals = tuple(a.proposal for a in automata)
    # The run-level batched-delivery plane (None unless every automaton
    # declares the protocol — see repro.sim.phase1_plane).  The plane is
    # active only between begin_round/end_round below, so automata
    # driven outside this kernel (execute_reference, direct deliver
    # calls) always take their per-automaton path.
    plane = build_run_plane(automata)
    full = trace == "full"
    n = schedule.n
    halted_mask = 0
    halted_rounds: dict[ProcessId, Round] = {}
    decided_at: dict[ProcessId, tuple[Value, Round]] = {}
    # payloads[pid][k] is what pid broadcast in round k (or _NOT_SENT).
    payloads = [[_NOT_SENT] * (horizon + 1) for _ in range(n)]
    message_count = 0
    rounds_executed = 0
    records: list[RoundRecord] = []
    # Preallocated per-run buffers, reset (not reallocated) per round.
    table = SendTable(n)
    shared_current: dict[int, CurrentCell] = {}
    shared_delayed: dict[ProcessId, tuple] = {}

    for k in range(1, horizon + 1):
        rounds_executed = k

        # --- send phase ---------------------------------------------------
        table.reset()
        record_send = table.record
        for pid in iter_bits(plan.sender_masks[k] & ~halted_mask):
            payload = automata[pid].payload(k)
            if payload is None:
                payload = DUMMY
            else:
                hash(payload)  # fail fast on unhashable payloads
            payloads[pid][k] = payload
            record_send(pid, payload)

        # --- receive phase --------------------------------------------------
        # Message objects are materialized only for full-trace records:
        # automata consume the shared buckets directly, so the
        # per-round delivery cost is one bucket build per distinct
        # arrived-sender mask plus the automaton logic itself.
        delivered: dict[ProcessId, tuple[Message, ...]] = {}
        decided_this_round: dict[ProcessId, Value] = {}
        halted_now = 0
        shared_current.clear()
        shared_delayed.clear()
        view_for = _round_view_factory(
            k, n, plan, table, payloads, shared_current, shared_delayed
        )
        if plane is not None:
            # Post-send, pre-receive: the plane's refreshed rows are
            # exactly the Halt sets this round's payloads carry, and
            # the filled table is the round's broadcast universe.
            plane.begin_round(k, table)
        for pid in iter_bits(plan.completer_masks[k] & ~halted_mask):
            view = view_for(pid)
            if full:
                delivered[pid] = view.messages
            automaton = automata[pid]
            automaton.deliver_view(k, view)
            message_count += view.size
            if automaton.decided and pid not in decided_at:
                decided_at[pid] = (automaton.decision, k)
                decided_this_round[pid] = automaton.decision
            if automaton.halted:
                halted_rounds[pid] = k
                halted_now |= 1 << pid
        halted_mask |= halted_now
        if plane is not None:
            plane.end_round()

        if full:
            records.append(
                RoundRecord(
                    round=k,
                    sent={
                        pid: None if row[k] is _NOT_SENT else row[k]
                        for pid, row in enumerate(payloads)
                    },
                    delivered=delivered,
                    decided=decided_this_round,
                    crashed=interned_set(
                        plan.sender_masks[k] & ~plan.completer_masks[k]
                    ),
                    halted=interned_set(halted_now),
                )
            )

        if stop_when_quiescent and not (
            plan.completer_masks[k] & ~halted_mask
        ):
            break

    if full:
        return Trace(
            schedule=schedule,
            proposals=proposals,
            rounds=tuple(records),
            decisions=decided_at,
        )
    return LeanTrace(
        schedule=schedule,
        proposals=proposals,
        rounds_executed=rounds_executed,
        decisions=decided_at,
        halted_rounds=halted_rounds,
        messages=message_count,
    )


def execute_reference(
    automata: Sequence[Automaton],
    schedule: Schedule,
    *,
    max_rounds: Round | None = None,
    stop_when_quiescent: bool = True,
) -> Trace:
    """The original query-at-a-time kernel, kept as the oracle.

    Semantically identical to ``execute(..., trace="full")`` but issues
    O(n²) schedule method calls per round; the equivalence test suite
    (``tests/sim/test_compiled.py``) and the ``kernel-bench`` CI lane
    assert the compiled kernel's traces match this one exactly.
    """
    _check_run(automata, schedule)
    n = schedule.n
    horizon = _bounded_horizon(schedule, max_rounds)

    proposals = tuple(a.proposal for a in automata)
    halted: set[ProcessId] = set()
    decided_at: dict[ProcessId, tuple[Value, Round]] = {}
    # Messages awaiting delivery: (receiver, delivery_round) -> list.
    pending: dict[tuple[ProcessId, Round], list[Message]] = {}
    records: list[RoundRecord] = []

    for k in range(1, horizon + 1):
        sent: dict[ProcessId, object | None] = {}
        delivered: dict[ProcessId, tuple[Message, ...]] = {}
        decided_this_round: dict[ProcessId, Value] = {}
        halted_this_round: set[ProcessId] = set()

        # --- send phase ---------------------------------------------------
        for pid in range(n):
            if pid in halted or not schedule.sends_in_round(pid, k):
                sent[pid] = None
                continue
            payload = automata[pid].payload(k)
            if payload is None:
                payload = DUMMY
            sent[pid] = payload
            for receiver in range(n):
                delivery = schedule.delivery_round(pid, receiver, k)
                if delivery is None:
                    continue
                if receiver in halted or not schedule.completes_round(
                    receiver, delivery
                ):
                    # The receiver leaves the computation before the
                    # delivery round, so the message can never be received;
                    # buffering it would leak until the end of the run.
                    continue
                # The reference kernel is the equivalence oracle and is
                # kept on the original, obviously-correct idioms on
                # purpose — it must share no shortcuts with the fast
                # path it checks.
                message = Message(  # repro: noqa[BIT002]
                    sent_round=k, sender=pid, receiver=receiver,
                    payload=payload,
                )
                pending.setdefault((receiver, delivery), []).append(message)

        # --- receive phase --------------------------------------------------
        for pid in range(n):
            if pid in halted or not schedule.completes_round(pid, k):
                pending.pop((pid, k), None)
                continue
            inbox = sort_delivery(pending.pop((pid, k), []))
            automaton = automata[pid]
            automaton.deliver(k, inbox)
            delivered[pid] = inbox
            if automaton.decided and pid not in decided_at:
                decided_at[pid] = (automaton.decision, k)
                decided_this_round[pid] = automaton.decision
            if automaton.halted:
                halted_this_round.add(pid)

        halted.update(halted_this_round)
        if halted_this_round:
            # Purge messages already buffered for processes that halted
            # this round; they would otherwise sit in ``pending`` until
            # their delivery round only to be dropped there.
            for key in [
                key for key in pending if key[0] in halted_this_round
            ]:
                del pending[key]
        records.append(
            RoundRecord(
                round=k,
                sent=sent,
                delivered=delivered,
                decided=decided_this_round,
                crashed=schedule.crashed_in(k),
                # Oracle idiom, uninterned on purpose (see above).
                halted=frozenset(halted_this_round),  # repro: noqa[BIT001]
            )
        )

        if stop_when_quiescent:
            still_running = [
                pid
                for pid in range(n)
                if pid not in halted and schedule.completes_round(pid, k)
            ]
            if not still_running:
                break

    return Trace(
        schedule=schedule,
        proposals=proposals,
        rounds=tuple(records),
        decisions=decided_at,
    )


def run_algorithm(
    factory: AlgorithmFactory,
    schedule: Schedule,
    proposals: Sequence[Value],
    *,
    max_rounds: Round | None = None,
    trace: str = "full",
) -> AnyTrace:
    """Convenience wrapper: build automata from *factory* and execute.

    Equivalent to ``execute(make_automata(factory, n, t, proposals),
    schedule)``; exists because nearly every test, bench and example starts
    a run this way.  ``trace`` selects the trace mode (see :func:`execute`).
    """
    from repro.algorithms.base import make_automata

    automata = make_automata(factory, schedule.n, schedule.t, proposals)
    return execute(automata, schedule, max_rounds=max_rounds, trace=trace)
