"""The run-level Phase-1 suspicion plane: batched ``compute()`` rounds.

The paper's Phase-1 update (Figure 2's ``compute()``, shared by A_{t+2}
and FloodSetWS through :class:`~repro.algorithms.suspicion.
EstimateState`) is the last O(n²)-per-round *automaton-state* loop in
the system: every receiver independently re-scans all n round-k
``(sender, payload)`` ESTIMATE items to find who arrived, who suspects
it, and the minimum circulating estimate.  At n = 1000 that scan —
n receivers × n items × t+1 rounds — dominates every att2 sweep row
(see the ``xxl_systems`` breakdown in ``BENCH_kernel.json``).

:class:`Phase1Plane` computes the same round for *every live receiver
at once*, against the same state rows, with three structural moves:

* **Send-table-driven round setup.**  Every Phase-1 broadcast of a
  round already sits in the kernel's :class:`~repro.sim.view.SendTable`
  when the receive phase opens, so :meth:`Phase1Plane.begin_round`
  derives the round's *entire* fold input once, globally: the
  ESTIMATE-broadcaster bitmask and one est-sorted ``(est, sender_bit)``
  order.  A receiver's arrived-ESTIMATE set is then a single word op —
  ``est_mask & view.current_mask`` — because each sender broadcasts
  exactly one payload per round; no per-receiver (or even per-group)
  bucket, scan, or sort exists on this path at all.  Combined with the
  lazy :class:`~repro.sim.view.RoundView` buckets, a Phase-1 round
  never materializes current-round item tuples for any receiver.
* **An incrementally-maintained bit-transpose of the Halt matrix.**
  ``suspecting-me`` for receiver i is "which arrived senders carry i in
  their round-k Halt payload".  Payload Halt sets equal the senders'
  state rows at send time, so the plane keeps ``transpose[i]`` = the
  mask of processes whose Halt row contains i, and the per-receiver
  query collapses to ``arrived & transpose[i]`` — one word op instead
  of n frozenset membership tests.  Halt rows are monotone and change
  rarely; :meth:`Phase1Plane.begin_round` re-transposes **only the rows
  that changed** since the previous round (O(n) mask compares plus one
  word op per new suspicion, ever).
* **First-hit min-est fold.**  With the round's ``(est, sender_bit)``
  entries pre-sorted (tuple order: est first, ascending sender bit on
  ties — exactly the strict-``<`` first-minimal fold's tie-break), each
  receiver's new estimate is the first entry whose sender is delivered
  and outside its updated Halt mask — usually the very first entry —
  instead of an O(n) re-scan.  Rounds whose est values are mutually
  unorderable (the sort raises ``TypeError``) mark themselves unsorted
  and every receiver falls back to the exact per-receiver scan, which
  only compares values that actually meet in one inbox.

The plane is **opt-in and run-scoped**.  Automata declare the protocol
via :attr:`~repro.algorithms.base.Automaton.phase1_plane_protocol`;
:func:`build_run_plane` builds and binds one plane per execution only
when *every* automaton in the run speaks it (a mixed run falls back to
the untouched per-automaton ``deliver_view`` path — automata that do
not declare the protocol never see a plane).  The kernel drives
:meth:`Phase1Plane.begin_round` / :meth:`Phase1Plane.end_round` once
per round around the receive phase; between the two, bound automata
route their Phase-1 state updates through
:meth:`Phase1Plane.compute_view`, which falls back to the exact
per-receiver :meth:`~repro.algorithms.suspicion.EstimateState.
compute_view` whenever the plane is not mid-round (direct ``deliver``
calls, ``execute_reference``, post-run pokes) — so every entry point
computes the identical update and the byte-identity suite can hold the
batched kernel to ``execute_reference`` across trace modes.

Protocol contract (what declaring ``PHASE1_ESTIMATE`` promises): the
automaton owns an :class:`~repro.algorithms.suspicion.EstimateState`
at ``self.state`` for the run's lifetime, its Phase-1 broadcasts are
``state.payload(k)`` (or non-ESTIMATE payloads, e.g. DECIDE), and all
Phase-1 state changes go through ``compute_view``.  The
:meth:`begin_round` row refresh makes the plane robust to out-of-band
halt-row changes *between* rounds (it diffs against the live states),
but mid-round mutation outside the plane would desynchronize the
transpose — exactly the invariant the property suite in
``tests/algorithms/test_phase1_plane.py`` drives against the preserved
per-receiver oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.sim.bitset import full_mask, interned_set
from repro.types import Round, Value

if TYPE_CHECKING:  # runtime stays decoupled from the algorithm layer
    from repro.algorithms.base import Automaton
    from repro.algorithms.suspicion import EstimateState
    from repro.sim.view import RoundView, SendTable

__all__ = ["PHASE1_ESTIMATE", "Phase1Plane", "build_run_plane"]

#: The one plane protocol this module implements (see the module
#: docstring for the contract an automaton accepts by declaring it).
PHASE1_ESTIMATE = "phase1/estimate"

#: The ESTIMATE payload tag (mirrors ``repro.algorithms.suspicion.
#: ESTIMATE``; defined here so the plane's hot loop never imports the
#: algorithm layer — same idiom as ``view._DECIDE``).
_ESTIMATE = "ESTIMATE"


class Phase1Plane:
    """One run's shared Phase-1 state plane (see the module docstring).

    Holds every process's ``(est, halt_mask)`` row by reference to the
    automata's own :class:`~repro.algorithms.suspicion.EstimateState`
    objects — the plane writes the same public state the per-receiver
    path would, so Phase 2 and the Figure-4 fast path read estimates
    and Halt sets exactly as before.
    """

    __slots__ = (
        "n", "_states", "_full", "_rows", "_transpose", "_nonempty_rows",
        "_est_mask", "_order", "_sortable", "_round", "_active",
    )

    def __init__(self, states: Sequence["EstimateState"]) -> None:
        self.n = len(states)
        self._states = tuple(states)
        self._full = full_mask(self.n)
        # Last-seen halt rows, refreshed per round; transpose[i] is the
        # mask of processes whose (last-seen) Halt row contains i, and
        # _nonempty_rows the mask of processes with a non-empty row.
        self._rows = [state._halt_mask for state in self._states]
        transpose = [0] * self.n
        nonempty = 0
        for j, row in enumerate(self._rows):
            if row:
                nonempty |= 1 << j
            bit = 1 << j
            while row:
                low = row & -row
                transpose[low.bit_length() - 1] |= bit
                row ^= low
        self._transpose = transpose
        self._nonempty_rows = nonempty
        # Round-scoped fold inputs, rebuilt by begin_round.
        self._est_mask = 0
        self._order: list[tuple[Value, int]] = []
        self._sortable = True
        self._round: Round = 0
        self._active = False

    # -- kernel-facing round protocol -------------------------------------

    def begin_round(self, k: Round, table: "SendTable") -> None:
        """Open round *k*'s receive phase (kernel, once per round).

        Re-transposes exactly the Halt rows that changed since the last
        refresh, then derives the round's global fold inputs from the
        filled send *table*: the ESTIMATE-broadcaster mask and the
        est-sorted ``(est, sender_bit)`` order.  Runs *after* the send
        phase, so the refreshed rows are the rows the round-k ESTIMATE
        payloads carry — which is what makes ``arrived &
        transpose[pid]`` equal the per-receiver ``pid in payload[3]``
        scan.
        """
        rows = self._rows
        transpose = self._transpose
        for j, state in enumerate(self._states):
            mask = state._halt_mask
            added = mask & ~rows[j]
            if added:
                bit = 1 << j
                if not rows[j]:
                    self._nonempty_rows |= bit
                while added:
                    low = added & -added
                    transpose[low.bit_length() - 1] |= bit
                    added ^= low
                rows[j] = mask
        # The round's ESTIMATE broadcasters and their ests, in one walk
        # of the send table.  Built in ascending sender order, so the
        # tuple sort's tie-break (equal ests compare on the int bit)
        # ranks equal-est senders ascending — the first entry a
        # receiver's eligibility mask hits is exactly the value object
        # its strict-< first-minimal fold would keep.
        items = table.items
        entries: list[tuple[Value, int]] = []
        est_mask = 0
        mask = table.sender_mask
        if table.single_tag == _ESTIMATE:
            est_mask = mask
            while mask:
                low = mask & -mask
                item = items[low.bit_length() - 1]
                assert item is not None
                entries.append((item[1][2], low))
                mask ^= low
        elif mask:
            tags = table.tags
            while mask:
                low = mask & -mask
                sender = low.bit_length() - 1
                if tags[sender] == _ESTIMATE:
                    est_mask |= low
                    item = items[sender]
                    assert item is not None
                    entries.append((item[1][2], low))
                mask ^= low
        try:
            entries.sort()
            self._sortable = True
        except TypeError:
            # Mutually unorderable ests this round: receivers fall back
            # to the per-receiver scan, which only ever compares values
            # delivered into one inbox.
            self._sortable = False
        self._est_mask = est_mask
        self._order = entries
        self._round = k
        self._active = True

    def end_round(self) -> None:
        """Close the receive phase (kernel, once per round).

        Outside an open round the plane refuses to answer — state
        updates fall back to the per-receiver path, so automata driven
        directly (tests, replay, the reference kernel) behave exactly
        as unbound ones.
        """
        self._active = False

    # -- automaton-facing state updates ------------------------------------

    def compute_view(
        self, state: "EstimateState", k: Round, view: "RoundView"
    ) -> None:
        """The paper's ``compute()`` for *state*, batched.

        Byte-equivalent to ``state.compute_view(k, view)`` — the
        per-receiver cost is a handful of word ops plus the first-hit
        walk of the round's est-sorted order.  Falls back to the
        per-receiver scan when the plane is not mid-round *k* or the
        round's ests resisted the global sort.
        """
        if not self._active or k != self._round or not self._sortable:
            state.compute_view(k, view)
            return
        arrived = self._est_mask & view.current_mask
        pid = state.pid
        halt_mask = state._halt_mask
        additions = (
            (self._full & ~arrived & ~(1 << pid))   # suspected now
            | (arrived & self._transpose[pid])      # suspecting me
        ) & ~halt_mask
        if additions:
            halt_mask |= additions
            state._halt_mask = halt_mask
            state.halt = interned_set(halt_mask)
        eligible = arrived & ~halt_mask
        if eligible:
            for est, bit in self._order:
                if eligible & bit:
                    state.est = est
                    return

    def round2_stats(
        self, k: Round, view: "RoundView"
    ) -> "tuple[int, bool, Value] | None":
        """The Figure-4 failure-free fast path's fold, batched.

        Returns ``(count, any_halt_nonempty, min_est)`` over the view's
        current-round ESTIMATE items — count and taint are word ops on
        the round's global masks, ``min_est`` the first-hit walk of the
        est order (``None`` only when ``count`` is 0, no halt exclusion:
        the fast path folds over *all* arrived ESTIMATE items).
        Returns ``None`` when the plane is not mid-round *k* or the
        round's ests resisted the global sort (callers fall back to
        their local scan).
        """
        if not self._active or k != self._round or not self._sortable:
            return None
        arrived = self._est_mask & view.current_mask
        count = arrived.bit_count()
        if not count:
            return (0, False, None)
        tainted = bool(arrived & self._nonempty_rows)
        best: Value = None
        for est, bit in self._order:
            if arrived & bit:
                best = est
                break
        return (count, tainted, best)


def build_run_plane(
    automata: Sequence["Automaton"],
) -> Phase1Plane | None:
    """Build and bind one plane for *automata*, or ``None``.

    The batched dispatch engages only when **every** automaton in the
    run declares the (one) known protocol — a mixed run keeps
    the untouched per-automaton delivery path.  On success the plane is
    bound into each automaton via
    :meth:`~repro.algorithms.base.Automaton.bind_phase1_plane` and
    returned for the kernel's per-round ``begin_round``/``end_round``
    dispatch.
    """
    if not automata:
        return None
    for automaton in automata:
        if type(automaton).phase1_plane_protocol != PHASE1_ESTIMATE:
            return None
    plane = Phase1Plane(tuple(a.state for a in automata))  # type: ignore[attr-defined]
    for automaton in automata:
        automaton.bind_phase1_plane(plane)
    return plane
