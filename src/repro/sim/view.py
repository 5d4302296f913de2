"""Round views: the structured inbox the kernel hands each automaton.

Before this layer, the kernel delivered a flat, canonically sorted tuple
of :class:`~repro.model.messages.Message` objects, and every automaton
re-derived the same structure from it each round: filter to the current
round, dispatch on the payload tag, collect the sender set for
suspicion, scan for DECIDE messages.  Across ~10 algorithms that was
3–7 passes over every inbox — and at n = 100 an inbox is 100 messages,
delivered to 100 receivers, every round.

A :class:`RoundView` is that structure computed *once*, straight from
the compiled plan (:mod:`repro.sim.compiled`), before the automaton
runs:

* ``current`` — the round-k ``(sender, payload)`` items, ascending by
  sender (the canonical delivery order restricted to one round);
* ``tagged(tag)`` — the current-round items pre-partitioned by payload
  tag;
* ``delayed`` — earlier-round ``(sent_round, sender, payload)`` triples
  whose delayed delivery lands in this round;
* ``current_mask`` / ``absent_mask`` — the present/absent sender sets as
  int bitmasks (the suspicion machinery's working representation), with
  ``current_senders`` / ``absent`` lazily materializing the interned
  frozensets for set-consuming call sites;
* ``decides`` — every DECIDE payload in the delivery, in canonical
  message order, so the universal decide-adoption protocol is one tuple
  iteration instead of a full-inbox scan.

Message objects are materialized lazily (:attr:`RoundView.messages`):
an automaton ported onto :meth:`~repro.algorithms.base.Automaton.
deliver_view` that only touches the structured accessors never pays for
them, which is where most of the large-n delivery speedup comes from.
Receivers share buckets per round, with the two halves keyed
independently: current-round buckets by the receiver's arrived-sender
mask (buckets are a pure function of that mask and the round's sends),
delayed ones by ``CompiledSchedule.delayed_groups``.  A sparse delayed
delivery therefore only desynchronizes the small delayed bucket, and
the expensive current-round partitioning is still paid once per round
in the common all-to-all case.  The partitioning itself starts from a
:class:`SendTable` the kernel fills during the send phase, so payload
tags are classified once per broadcast, not once per receiver.

The current-round partitioning is itself lazy on the kernel path
(:class:`CurrentCell`, :meth:`RoundView.lazy`): a kernel-built view
carries only the arrived-sender *mask* (one ``&`` of the compiled
plan's per-receiver mask against the send table's broadcaster mask) and
a per-mask cell that materializes the ``(sender, payload)`` buckets on
first structured access.  A receiver whose round consumes only masks —
the batched Phase-1 suspicion plane (:mod:`repro.sim.phase1_plane`) is
the flagship — never builds its bucket set at all, which is what breaks
the O(n · plan-size) per-round floor on schedules whose per-receiver
delivery plans are all distinct (random ES runs at n ≥ 500).  The
DECIDE scan stays O(1) on bucket-free rounds: the send table already
knows whether *any* broadcast this round was a DECIDE, so
:attr:`RoundView.decides` materializes buckets only in announcement
rounds (plus whatever delayed DECIDEs the eager delayed bucket carries).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.model.messages import Message, fast_message
from repro.sim.bitset import full_mask, interned_set, iter_bits
from repro.types import Payload, ProcessId, Round

__all__ = [
    "CurrentCell", "RoundView", "SendTable", "all_pids",
    "build_current_buckets", "build_delayed_buckets",
]

#: The universal decide tag (mirrors ``repro.algorithms.common.DECIDE``;
#: defined here so the view layer never imports the algorithm layer).
_DECIDE = "DECIDE"


def _is_decide_payload(payload: Payload) -> bool:
    """Payload-level ``is_decide`` (tuple-tagged DECIDE, same predicate
    as ``repro.algorithms.common.is_decide``).  Every bucket builder
    must classify decides identically — the byte-identical-across-paths
    invariant hinges on this being the one definition.
    (``SendTable.record`` keeps an inlined copy fused into its tag
    classification; the view tests pin the two against each other.)
    """
    return (
        isinstance(payload, tuple) and bool(payload) and payload[0] == _DECIDE
    )


_ALL_PIDS_CACHE: dict[int, frozenset[int]] = {}


def all_pids(n: int) -> frozenset[ProcessId]:
    """The interned ``frozenset(range(n))`` — suspicion updates build
    absent-sender sets against it every round, so it is cached per n."""
    cached = _ALL_PIDS_CACHE.get(n)
    if cached is None:
        # This IS an interning table: one materialization per n for the
        # process lifetime, never evicted (unlike bitset's capped cache).
        cached = _ALL_PIDS_CACHE[n] = frozenset(range(n))  # repro: noqa[BIT001]
    return cached


class RoundView:
    """One receiver's structured round-k delivery.

    Attributes:
        round: the 1-based round the delivery belongs to.
        receiver: the receiving process id.
        n: system size.
        delayed: earlier-round deliveries landing this round, as
            ``(sent_round, sender, payload)`` triples in canonical order.
        current: round-``round`` deliveries as ``(sender, payload)``
            pairs, ascending by sender.
        by_tag: the ``current`` items partitioned by payload tag (first
            tuple element, or the payload itself for non-tuple payloads).
        decides: every DECIDE payload in the whole delivery (delayed and
            current), in canonical message order.
        current_mask: the senders of ``current`` as an int bitmask (bit
            ``i`` set iff process ``i``'s round-k message arrived) — the
            working representation; :attr:`current_senders` /
            :attr:`absent` materialize the interned frozensets lazily.

    The bucket attributes may be shared between views of different
    receivers with identical deliveries; views are read-only.

    On the kernel path (:meth:`lazy`) the current-round buckets are not
    built up front: the view carries the arrived-sender mask plus the
    round's :class:`CurrentCell` for that mask, and ``current`` /
    ``by_tag`` / ``decides`` materialize (shared, once) on first access.  Every
    accessor returns exactly what the eager constructor would have been
    handed, so callers cannot observe which constructor built the view.
    """

    __slots__ = (
        "round", "receiver", "n", "delayed", "current_mask", "_current",
        "_by_tag", "_decides", "_cell", "_delayed_decides", "_messages",
        "_current_senders", "_absent",
    )

    def __init__(
        self,
        round: Round,
        receiver: ProcessId,
        n: int,
        delayed: tuple[tuple[Round, ProcessId, Payload], ...],
        current: tuple[tuple[ProcessId, Payload], ...],
        by_tag: dict,
        decides: tuple[Payload, ...],
        current_mask: int,
    ):
        self.round = round
        self.receiver = receiver
        self.n = n
        self.delayed = delayed
        self.current_mask = current_mask
        self._current = current
        self._by_tag = by_tag
        self._decides = decides
        self._cell = None
        self._delayed_decides = ()
        self._messages = None
        self._current_senders = None
        self._absent = None

    @classmethod
    def lazy(
        cls,
        round: Round,
        receiver: ProcessId,
        n: int,
        delayed: tuple[tuple[Round, ProcessId, Payload], ...],
        delayed_decides: tuple[Payload, ...],
        cell: "CurrentCell",
        current_mask: int,
    ) -> "RoundView":
        """A kernel-path view whose current buckets build on demand.

        *current_mask* must equal the cell's mask (the compiled plan
        mask ANDed with the round's broadcaster mask) — the kernel
        computes it in O(1) so mask-only consumers never trigger the
        build.
        """
        view = cls.__new__(cls)
        view.round = round
        view.receiver = receiver
        view.n = n
        view.delayed = delayed
        view.current_mask = current_mask
        view._current = None
        view._by_tag = None
        view._decides = None
        view._cell = cell
        view._delayed_decides = delayed_decides
        view._messages = None
        view._current_senders = None
        view._absent = None
        return view

    def _materialize(self) -> None:
        """Pull the shared buckets out of the cell (lazy views)."""
        current, by_tag, decides, _mask = self._cell.built()
        self._current = current
        self._by_tag = by_tag
        # Canonical delivery order: delayed messages sort ahead of
        # current-round ones, exactly as the eager construction
        # concatenates them.
        self._decides = self._delayed_decides + decides

    # -- structured accessors ------------------------------------------------

    @property
    def current(self) -> tuple[tuple[ProcessId, Payload], ...]:
        current = self._current
        if current is None:
            self._materialize()
            current = self._current
        return current

    @property
    def by_tag(self) -> dict:
        by_tag = self._by_tag
        if by_tag is None:
            self._materialize()
            by_tag = self._by_tag
        return by_tag

    @property
    def decides(self) -> tuple[Payload, ...]:
        decides = self._decides
        if decides is None:
            if self._cell.table.has_decides:
                self._materialize()
                decides = self._decides
            else:
                # No broadcast this round was a DECIDE, so the whole
                # delivery's decides are the delayed ones — resolved
                # without building the current buckets.
                decides = self._decides = self._delayed_decides
        return decides

    def tagged(self, tag: object) -> tuple[tuple[ProcessId, Payload], ...]:
        """Current-round ``(sender, payload)`` items carrying *tag*."""
        by_tag = self._by_tag
        if by_tag is None:
            self._materialize()
            by_tag = self._by_tag
        return by_tag.get(tag, ())

    @property
    def all_pids(self) -> frozenset[ProcessId]:
        return all_pids(self.n)

    @property
    def current_senders(self) -> frozenset[ProcessId]:
        """The senders of ``current`` as an interned frozenset.

        Materialized lazily from :attr:`current_mask` — mask-consuming
        call sites never pay for the set object.
        """
        senders = self._current_senders
        if senders is None:
            senders = self._current_senders = interned_set(self.current_mask)
        return senders

    @property
    def absent_mask(self) -> int:
        """:attr:`absent` as a bitmask — the complement of
        :attr:`current_mask` within the n-process universe."""
        return full_mask(self.n) & ~self.current_mask

    @property
    def absent(self) -> frozenset[ProcessId]:
        """Processes from which no current-round message arrived.

        Includes the receiver itself when its own message is missing;
        suspicion call sites subtract their own pid, matching the
        paper's "a process never suspects itself".
        """
        absent = self._absent
        if absent is None:
            absent = self._absent = interned_set(self.absent_mask)
        return absent

    @property
    def size(self) -> int:
        """Number of messages delivered this round (all ages)."""
        current = self._current
        if current is None:
            # Lazy (kernel-built) views carry at most one current-round
            # message per sender, so the popcount IS the count — no need
            # to build the buckets.  Eager hand-built views may carry
            # duplicate senders; their tuple length is authoritative.
            return len(self.delayed) + self.current_mask.bit_count()
        return len(self.delayed) + len(current)

    @property
    def messages(self) -> tuple[Message, ...]:
        """The flat inbox, in canonical delivery order.

        Materialized on first access (and cached): delayed messages first
        — they sort ahead on ``sent_round`` — then current-round messages
        ascending by sender.  Full-trace kernel runs record it in each
        round's :class:`~repro.sim.trace.RoundRecord`.
        """
        messages = self._messages
        if messages is None:
            k = self.round
            receiver = self.receiver
            messages = self._messages = tuple(
                [
                    fast_message(sent_round, sender, receiver, payload)
                    for sent_round, sender, payload in self.delayed
                ]
                + [
                    fast_message(k, sender, receiver, payload)
                    for sender, payload in self.current
                ]
            )
        return messages

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_entries(
        cls,
        round: Round,
        receiver: ProcessId,
        n: int,
        entries: Iterable[tuple[Round, ProcessId, Payload]],
    ) -> "RoundView":
        """Build a view from ``(sent_round, sender, payload)`` triples.

        *entries* must already be in canonical delivery order (ascending
        ``(sent_round, sender)``) — the compiled plan's inboxes are.
        """
        delayed: list = []
        current: list = []
        by_tag: dict = {}
        decides: list = []
        sender_mask = 0
        for sent_round, sender, payload in entries:
            if isinstance(payload, tuple) and payload:
                tag = payload[0]
                if _is_decide_payload(payload):
                    decides.append(payload)
            else:
                tag = payload
            if sent_round == round:
                sender_mask |= 1 << sender
                item = (sender, payload)
                current.append(item)
                bucket = by_tag.get(tag)
                if bucket is None:
                    by_tag[tag] = [item]
                else:
                    bucket.append(item)
            else:
                delayed.append((sent_round, sender, payload))
        return cls(
            round, receiver, n,
            tuple(delayed), tuple(current),
            {tag: tuple(items) for tag, items in by_tag.items()},
            tuple(decides), sender_mask,
        )

    @classmethod
    def from_messages(
        cls,
        round: Round,
        receiver: ProcessId,
        n: int,
        messages: Sequence[Message],
    ) -> "RoundView":
        """Build a view from an already-materialized flat inbox.

        The :meth:`~repro.algorithms.base.Automaton.deliver` bridge:
        flat-tuple calls (the reference kernel, tests) reach
        ``deliver_view`` implementations through this constructor.
        Message order is preserved — for kernel-built inboxes that is
        the canonical order; hand-built test inboxes keep whatever order
        the test chose, exactly as the flat ``deliver`` path did.
        """
        view = cls.from_entries(
            round, receiver, n,
            ((m.sent_round, m.sender, m.payload) for m in messages),
        )
        view._messages = tuple(messages)
        return view

    def shifted(self, offset: Round) -> "RoundView":
        """This delivery re-timestamped *offset* rounds earlier.

        Used to drive a nested automaton that started ``offset`` rounds
        late (A_{t+2}'s underlying consensus module): current items stay
        current, delayed items sent at or before round *offset* are
        dropped (they predate the nested automaton), the remainder shift
        by *offset*.  Requires a delivery with no DECIDE messages — the
        decide-adoption protocol consumes those before any nested
        automaton runs.
        """
        if self.decides:
            raise ValueError(
                "cannot shift a delivery containing DECIDE messages"
            )
        return RoundView(
            self.round - offset, self.receiver, self.n,
            tuple(
                (sent_round - offset, sender, payload)
                for sent_round, sender, payload in self.delayed
                if sent_round > offset
            ),
            self.current, self.by_tag, (), self.current_mask,
        )

    def __repr__(self) -> str:
        return (
            f"RoundView(r{self.round} ->p{self.receiver}: "
            f"{len(self.current)} current, {len(self.delayed)} delayed)"
        )


class CurrentCell:
    """One arrived-sender mask's lazily-built shared buckets.

    The kernel creates one cell per distinct arrived-sender mask per
    round and hands it to every :meth:`RoundView.lazy` view with that
    mask; the first structured access on *any* of them runs
    :func:`build_current_buckets` and the result is shared by the rest.
    Buckets are a pure function of the mask and the round's
    :class:`SendTable`, so the sharing is exact — in a failure-free
    round every receiver hears every broadcaster and the round builds
    one bucket set.  Rounds whose receivers consume only masks (the
    batched Phase-1 plane) never trigger the build at all.
    """

    __slots__ = ("table", "mask", "_built")

    def __init__(self, table: "SendTable", mask: int) -> None:
        self.table = table
        self.mask = mask
        self._built: tuple | None = None

    def built(self) -> tuple:
        """The cell's ``(current, by_tag, decides, mask)``, built once."""
        built = self._built
        if built is None:
            built = self._built = build_current_buckets(self.mask, self.table)
        return built


class SendTable:
    """One round's broadcast payloads, structured for bucket building.

    Filled by the kernel *during* the send phase (no extra pass): for
    every process that actually broadcast, the interned ``(sender,
    payload)`` item and the payload tag; plus three round-level facts
    the bucket builders use for their fast paths — the broadcaster
    bitmask, whether the whole round carries a single tag, and whether
    any broadcast is a DECIDE announcement.  All of it is a pure
    function of the round's sends, so every receiver shares one table.

    The table is a preallocated per-run buffer: the kernel allocates one
    per execution and calls :meth:`reset` between rounds, which clears
    only the slots the previous round touched (walking the sender mask),
    so a sparse round costs O(broadcasters), not O(n).
    """

    __slots__ = (
        "items", "tags", "is_decide", "sender_mask", "single_tag",
        "has_decides",
    )

    def __init__(self, n: int):
        self.items: list = [None] * n      # (sender, payload) or None
        self.tags: list = [None] * n       # payload tag, for senders
        self.is_decide: list = [False] * n
        self.sender_mask = 0                # broadcasters as a bitmask
        self.single_tag = None              # the round's tag, if unique
        self.has_decides = False

    def record(self, sender: ProcessId, payload: Payload) -> None:
        """Note that *sender* broadcast *payload* this round."""
        first = not self.sender_mask
        self.items[sender] = (sender, payload)
        self.sender_mask |= 1 << sender
        if isinstance(payload, tuple) and payload:
            tag = payload[0]
            if tag == _DECIDE:
                self.is_decide[sender] = True
                self.has_decides = True
        else:
            tag = payload
        self.tags[sender] = tag
        if first:
            self.single_tag = tag
        elif tag != self.single_tag:
            self.single_tag = None

    def reset(self) -> None:
        """Clear for the next round, touching only last round's slots."""
        items = self.items
        tags = self.tags
        is_decide = self.is_decide
        for sender in iter_bits(self.sender_mask):
            items[sender] = None
            tags[sender] = None
            is_decide[sender] = False
        self.sender_mask = 0
        self.single_tag = None
        self.has_decides = False


def build_current_buckets(mask: int, table: SendTable) -> tuple:
    """One arrived-sender mask's buckets: ``(current, by_tag, decides,
    current_mask)``.

    *mask* is a receiver's arrived-sender mask: its compiled
    current-round sender mask ANDed with the table's broadcaster mask,
    so every bit names a filled slot.  The sender set travels on as a
    bitmask — the :class:`RoundView` interns the frozenset only on
    demand.  The common round shape — every broadcast carries the same
    tag, none of them a DECIDE — collapses to a single copy of the
    table's items; mixed rounds (coordinator phases, decide
    announcements) take the general partitioning path.
    """
    if not mask:
        return ((), {}, (), 0)
    items = table.items
    current = tuple([items[sender] for sender in iter_bits(mask)])
    single_tag = table.single_tag
    if single_tag is not None and not table.has_decides:
        return (current, {single_tag: current}, (), mask)
    tags = table.tags
    is_decide = table.is_decide
    by_tag: dict = {}
    decides: list = []
    for item in current:
        sender = item[0]
        if is_decide[sender]:
            decides.append(item[1])
        tag = tags[sender]
        bucket = by_tag.get(tag)
        if bucket is None:
            by_tag[tag] = [item]
        else:
            bucket.append(item)
    return (
        current,
        {tag: tuple(bucket) for tag, bucket in by_tag.items()},
        tuple(decides),
        mask,
    )


def build_delayed_buckets(
    delayed_plan: Sequence[tuple[Round, ProcessId]],
    payloads: Sequence[Sequence[Payload]],
    not_sent: object,
) -> tuple:
    """One delayed-group's shared buckets: ``(delayed, decides)``.

    *payloads* is the kernel's ``payloads[sender][sent_round]`` grid
    with *not_sent* marking senders that never broadcast in the
    message's round (halted before it).
    """
    if not delayed_plan:
        return ((), ())
    delayed: list = []
    decides: list = []
    for sent_round, sender in delayed_plan:
        payload = payloads[sender][sent_round]
        if payload is not_sent:
            continue
        delayed.append((sent_round, sender, payload))
        if _is_decide_payload(payload):
            decides.append(payload)
    return tuple(delayed), tuple(decides)
