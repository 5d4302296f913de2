"""The batch execution engine: case runners over pluggable backends.

:func:`run_batch` is the main entry point: it takes a declarative
:class:`~repro.engine.grids.GridSpec` (or an already-expanded case list),
executes every case on an execution backend
(:mod:`repro.engine.executors`) and aggregates the streamed
:class:`~repro.analysis.sweep.SweepRecord` stream into a
:class:`~repro.engine.results.BatchResult`.

Determinism contract: executions of the same grid produce *identical*
record sequences regardless of backend or pool size.  Three properties
make this hold:

* case expansion is a pure function of the spec (seeds derived by SHA-256,
  never by global RNG state);
* each case runs on the deterministic kernel, so its record is a function
  of the case alone;
* executors yield ``(case index, record)`` pairs in arbitrary order and
  the runner re-sorts by index, erasing scheduling order.  Each record
  also carries its index (``SweepRecord.case_index``), so shard outputs
  can be recombined canonically by
  :meth:`~repro.engine.results.BatchResult.merge` in any arrival order.

Backends are selected with ``executor=`` — :class:`SerialExecutor`,
:class:`ProcessExecutor` or :class:`ThreadExecutor` (or anything else
satisfying the :class:`~repro.engine.executors.Executor` protocol).

Passing a :class:`~repro.engine.cache.ResultCache` as ``cache=`` splits
the cases into hits and misses up front: hits are answered from disk
(re-stamped with the requesting case's label and index), only misses
reach the executor, and freshly-computed records are stored back.
Because cached records are byte-identical to recomputed ones, a warm
cache changes nothing but wall-clock time.

Workers resolve automaton factories from the algorithm registry by name,
so cases stay picklable.  Cases carrying an explicit in-process ``factory``
(the legacy ``analysis.sweep`` path) make :class:`ProcessExecutor` fall
back to serial execution and are never cached (see
:meth:`~repro.engine.cache.ResultCache.case_key`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.analysis.sweep import SweepRecord
from repro.engine.cases import Case
from repro.engine.executors import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    execute_case,
    resolve_executor,
    resolve_workers,
)
from repro.engine.grids import GridError, GridSpec, ShardSpec, expand_grid
from repro.engine.results import BatchResult

if TYPE_CHECKING:
    from repro.engine.cache import ResultCache
    from repro.engine.sink import RecordSink

__all__ = [
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "execute_case",
    "resolve_executor",
    "resolve_workers",
    "run_batch",
    "run_cases",
    "stream_batch",
]

OnRecord = Callable[[int, SweepRecord], None]


def _check_unique_indices(cases: Sequence[Case]) -> None:
    """Reject duplicate case indices before anything executes.

    Duplicate indices would make the canonical record order ambiguous and
    silently corrupt merge keys; the docstring contract has always
    required uniqueness, so violating it is a :class:`GridError`.
    """
    counts = Counter(case.index for case in cases)
    duplicates = sorted(index for index, count in counts.items() if count > 1)
    if duplicates:
        raise GridError(
            f"duplicate case indices {duplicates}: case indices must be "
            f"unique — they define the canonical record order"
        )


def run_cases(
    cases: Iterable[Case],
    *,
    executor: Executor | None = None,
    on_record: OnRecord | None = None,
    cache: "ResultCache | None" = None,
    trace: str | None = None,
    sink: "RecordSink | None" = None,
    collect: bool = True,
) -> list[SweepRecord]:
    """Execute *cases* and return their records in canonical case order.

    Args:
        cases: expanded cases; their ``index`` fields define the output
            order (they need not be contiguous, but must be unique —
            duplicates raise :class:`GridError`).
        executor: execution backend (default :class:`SerialExecutor`).
        on_record: optional streaming callback, invoked as each record
            arrives — cache hits first (in case order), then executed
            misses in the executor's completion order, which under a pool
            is nondeterministic.  Only the returned list is canonical.
        cache: optional :class:`~repro.engine.cache.ResultCache`; hits
            skip the executor entirely, misses are executed and stored
            back.
        trace: optional kernel trace-mode override stamped onto every
            case (``"full"`` or ``"lean"``; ``None`` keeps each case's
            own mode).  Records — and therefore exports and cache
            entries — are byte-identical across modes; the flag only
            selects how much the kernel materializes along the way.
        sink: optional :class:`~repro.engine.sink.RecordSink`; every
            record is appended as it arrives (same ordering caveat as
            ``on_record``).  The caller owns the sink's lifecycle.
        collect: when false, records are *not* accumulated (the return
            value is an empty list) — combined with ``sink`` this bounds
            the driver's memory by one record instead of the batch; the
            canonical order is restored when the spool is read back.
    """
    backend = executor if executor is not None else SerialExecutor()
    cases = list(cases)  # tolerate one-shot iterators: we iterate twice
    if trace is not None:
        cases = [
            case if case.trace == trace else replace(case, trace=trace)
            for case in cases
        ]
    _check_unique_indices(cases)

    indexed: list[tuple[int, SweepRecord]] = []

    def emit(index: int, record: SweepRecord) -> None:
        if collect:
            indexed.append((index, record))
        if on_record is not None:
            on_record(index, record)
        if sink is not None:
            sink.append(record)

    pending: Sequence[Case] = cases
    key_by_index: dict[int, str | None] = {}
    duplicate_of: dict[int, list[Case]] = {}
    if cache is not None:
        # Partition into hits, misses, and in-flight duplicates: several
        # cases sharing one content key (same algorithm/schedule/proposals
        # under different labels) execute a single representative, whose
        # record serves the rest re-stamped — each distinct computation
        # pays the kernel at most once per batch.
        pending = []
        seen_keys: dict[str, int] = {}
        for case in cases:
            key = cache.case_key(case)
            if key is not None and key in seen_keys:
                duplicate_of.setdefault(seen_keys[key], []).append(case)
                continue
            record = cache.lookup(case, key)
            if record is None:
                if key is not None:
                    seen_keys[key] = case.index
                key_by_index[case.index] = key
                pending.append(case)
            else:
                emit(case.index, record)

    by_index = {case.index: case for case in pending}

    def handle(pair: tuple[int, SweepRecord]) -> None:
        index, record = pair
        if cache is not None:
            cache.store(by_index[index], record, key_by_index[index])
        emit(index, record)
        for duplicate in duplicate_of.get(index, ()):
            cache.deduped += 1
            stamped = replace(
                record,
                workload=duplicate.workload,
                case_index=duplicate.index,
            )
            emit(duplicate.index, stamped)

    for pair in backend.map_cases(pending):
        handle(pair)
    indexed.sort(key=lambda pair: pair[0])
    return [record for _index, record in indexed]


def run_batch(
    grid: GridSpec | Iterable[Case],
    *,
    executor: Executor | None = None,
    shard: ShardSpec | None = None,
    on_record: OnRecord | None = None,
    cache: "ResultCache | None" = None,
    trace: str | None = None,
) -> BatchResult:
    """Expand (if needed) and execute a grid, returning the aggregate result.

    ``shard`` selects one deterministic slice of the expanded case list
    (see :class:`~repro.engine.grids.ShardSpec`); the per-shard
    :class:`~repro.engine.results.BatchResult` exports recombine with
    :meth:`~repro.engine.results.BatchResult.merge` into exactly the
    whole-grid result, regardless of backend or merge order.  ``trace``
    overrides every case's kernel trace mode (see :func:`run_cases`);
    the result is byte-identical across modes.
    """
    if isinstance(grid, GridSpec):
        cases: Sequence[Case] = expand_grid(grid)
    else:
        cases = list(grid)
    if shard is not None:
        cases = shard.select(cases)
    return BatchResult(
        records=tuple(
            run_cases(cases, executor=executor,
                      on_record=on_record, cache=cache, trace=trace)
        )
    )


def stream_batch(
    grid: GridSpec | Iterable[Case],
    *,
    sink: "RecordSink",
    executor: Executor | None = None,
    shard: ShardSpec | None = None,
    on_record: OnRecord | None = None,
    cache: "ResultCache | None" = None,
    trace: str | None = None,
) -> int:
    """Execute a grid streaming every record to *sink*; returns the count.

    The bounded-memory counterpart of :func:`run_batch`: the driver never
    holds more than the record in flight — everything lands in the sink
    (typically a :class:`~repro.engine.sink.JsonlRecordSink` spool) as it
    completes.  Rebuilding the canonical
    :class:`~repro.engine.results.BatchResult` from the spool
    (:meth:`BatchResult.load_spool
    <repro.engine.results.BatchResult.load_spool>`) yields byte-identical
    exports to the in-memory path — the engine's determinism contract
    does not care where the records waited.  The caller owns the sink's
    lifecycle (close it to guarantee the tail is flushed).
    """
    if isinstance(grid, GridSpec):
        cases: Sequence[Case] = expand_grid(grid)
    else:
        cases = list(grid)
    if shard is not None:
        cases = shard.select(cases)
    count = 0

    def counting(index: int, record: SweepRecord) -> None:
        nonlocal count
        count += 1
        if on_record is not None:
            on_record(index, record)

    run_cases(
        cases,
        executor=executor,
        on_record=counting,
        cache=cache,
        trace=trace,
        sink=sink,
        collect=False,
    )
    return count
