"""Worker execution backends for the sweep orchestrator.

A *worker backend* knows how to run one shard of a grid on one
:class:`~repro.engine.orchestrator.workers.WorkerSpec` and hand the
shard's :class:`~repro.engine.results.BatchResult` back to the driver:

.. code-block:: python

    class WorkerBackend(Protocol):
        async def run_shard(worker, shard, attempt) -> BatchResult: ...
        async def warm(worker) -> None: ...          # optional cache warm
        async def probe(worker) -> bool: ...         # heartbeat liveness

Two implementations ship here, behind the same interface:

* :class:`LocalWorkerBackend` — each attempt is one
  ``python -m repro sweep --shard I/N --json <file>`` subprocess; the
  shard export is read back from the file.  This is both the production
  single-machine fan-out (workers = processes) and the substrate the
  failure-path tests inject faults into.
* :class:`SSHWorkerBackend` — the same shard command wrapped in
  ``ssh`` against the worker's checkout; the export streams back over
  stdout, so one connection per attempt suffices.

Every attempt is **idempotent** by the engine's determinism contract: a
shard re-run after a crash produces byte-identical records, so the
driver may retry and reassign freely.  A shared ``--cache`` directory
makes re-runs cheap too — whatever cases the dead attempt finished are
warm hits for its successor.

Shard exports are accepted whenever the output parses as a valid batch
export, regardless of the worker's exit status: ``repro sweep`` exits 1
on *safety violations*, which are genuine results, not infrastructure
failures.  Missing or truncated output (a worker killed mid-write) is a
:class:`ShardFailure`, which the driver turns into a retry.
"""

from __future__ import annotations

import asyncio
import os
import shlex
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Protocol

from repro.engine.grids import ShardSpec
from repro.engine.results import BatchResult
from repro.engine.orchestrator.workers import OrchestratorError, WorkerSpec


class ShardFailure(OrchestratorError):
    """One shard attempt failed (bad exit, missing/invalid export, kill)."""


class WorkerBackend(Protocol):
    """The orchestrator's worker-execution interface."""

    async def run_shard(
        self, worker: WorkerSpec, shard: ShardSpec, attempt: int
    ) -> BatchResult: ...

    async def warm(self, worker: WorkerSpec) -> None: ...

    async def probe(self, worker: WorkerSpec) -> bool: ...


def _child_env() -> dict:
    """The orchestrator's environment with this repro import path pinned.

    Local shard subprocesses must resolve the same ``repro`` package the
    orchestrator runs, whatever the caller's working directory; the
    package's parent directory is prepended to ``PYTHONPATH``.
    """
    env = dict(os.environ)
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            src + (os.pathsep + existing if existing else "")
        )
    return env


def sweep_argv(
    grid_args: tuple[str, ...],
    shard: ShardSpec,
    json_path: str,
    *,
    backend: str = "serial",
    trace: str = "lean",
    cache: str = "",
) -> list[str]:
    """The ``repro sweep`` argument vector one shard attempt runs.

    ``grid_args`` is the grid-selecting prefix (``--grid PATH`` or
    ``--profile NAME [--seed N]``) passed through verbatim, so workers
    expand exactly the grid the orchestrator planned — the byte-identity
    of the merged export rests on every worker agreeing on the
    expansion.
    """
    argv = [
        "-m", "repro", "sweep",
        *grid_args,
        "--shard", f"{shard.index}/{shard.count}",
        "--backend", backend,
        "--trace", trace,
        "--json", json_path,
    ]
    if cache:
        argv += ["--cache", cache]
    return argv


async def _run_process(
    argv: list[str],
    *,
    env: Mapping | None = None,
    kill: bool = False,
) -> tuple[int, bytes, bytes]:
    """Run *argv*, returning ``(returncode, stdout, stderr)``.

    The subprocess is killed — deterministically, not at GC — when the
    surrounding task is cancelled (driver timeout or a heartbeat-dead
    worker).  ``kill`` is the fault-injection hook: the process is
    SIGKILLed right after spawn, simulating a worker dying mid-shard.
    """
    proc = await asyncio.create_subprocess_exec(
        *argv,
        stdout=asyncio.subprocess.PIPE,
        stderr=asyncio.subprocess.PIPE,
        env=dict(env) if env is not None else None,
    )
    if kill:
        proc.kill()
    try:
        stdout, stderr = await proc.communicate()
    except asyncio.CancelledError:
        if proc.returncode is None:
            proc.kill()
            await proc.wait()
        raise
    return proc.returncode, stdout, stderr


def _tail(blob: bytes, limit: int = 400) -> str:
    text = blob.decode("utf-8", errors="replace").strip()
    return text[-limit:] if len(text) > limit else text


@dataclass
class LocalWorkerBackend:
    """Shard attempts as local ``repro sweep`` subprocesses.

    Attributes:
        grid_args: grid-selecting CLI prefix forwarded to every worker
            (see :func:`sweep_argv`).
        workdir: directory shard exports are written into (one file per
            attempt, so a killed attempt can never corrupt its
            successor's output).
        cache: optional shared result-cache directory forwarded as
            ``--cache`` — retried shards warm-hit everything a dead
            predecessor finished.
        trace: kernel trace mode for workers (records are byte-identical
            either way).
        worker_backend: execution backend *inside* each worker process
            (default serial: with one worker process per machine slot,
            the orchestrator already owns the parallelism).
        chaos_kill: fault-injection knob — shard indices whose *first*
            attempt is SIGKILLed right after spawn and always fails
            (used by tests and the CI lane's forced-retry check;
            harmless in production).
    """

    grid_args: tuple[str, ...]
    workdir: str | os.PathLike
    cache: str = ""
    trace: str = "lean"
    worker_backend: str = "serial"
    chaos_kill: frozenset[int] = frozenset()
    _env: dict = field(default_factory=_child_env, repr=False)

    def _attempt_path(
        self, worker: WorkerSpec, shard: ShardSpec, attempt: int
    ) -> Path:
        return Path(self.workdir) / (
            f"shard{shard.index:04d}-of{shard.count}"
            f"-attempt{attempt}-{worker.name}.json"
        )

    async def run_shard(
        self, worker: WorkerSpec, shard: ShardSpec, attempt: int
    ) -> BatchResult:
        out = self._attempt_path(worker, shard, attempt)
        out.parent.mkdir(parents=True, exist_ok=True)
        argv = [worker.python or sys.executable] + sweep_argv(
            self.grid_args,
            shard,
            str(out),
            backend=self.worker_backend,
            trace=self.trace,
            cache=self.cache,
        )
        if shard.index in self.chaos_kill and attempt == 1:
            # Injected fault, failing by construction: the worker dies
            # right after spawn and this attempt's export is never read.
            returncode, _stdout, _stderr = await _run_process(
                argv, env=self._env, kill=True
            )
            raise ShardFailure(
                f"shard {shard.index}/{shard.count} on {worker.name}: "
                f"chaos-killed (exit {returncode})"
            )
        returncode, _stdout, stderr = await _run_process(argv, env=self._env)
        try:
            return BatchResult.load(str(out))
        except (OSError, ValueError, TypeError, KeyError) as exc:
            raise ShardFailure(
                f"shard {shard.index}/{shard.count} on {worker.name}: "
                f"no usable export (exit {returncode}; {exc}); "
                f"stderr: {_tail(stderr) or '<empty>'}"
            )

    async def warm(self, worker: WorkerSpec) -> None:
        """Local workers share the cache directory — warming is free."""
        return None

    async def probe(self, worker: WorkerSpec) -> bool:
        """The local machine is, by construction, reachable."""
        return True


@dataclass
class SSHWorkerBackend(LocalWorkerBackend):
    """Shard attempts over SSH, same interface and knobs as local.

    One connection per attempt: the remote command runs the shard with
    its export going to a file under the worker's checkout, then
    streams the file back over stdout (human-readable sweep output goes
    to stderr).  ``ssh_options`` defaults to ``BatchMode=yes`` so a
    worker with broken auth fails fast instead of prompting.
    """

    ssh_options: tuple[str, ...] = ("-oBatchMode=yes",)
    probe_timeout: float = 10.0

    def _remote_command(
        self, worker: WorkerSpec, shard: ShardSpec, attempt: int
    ) -> str:
        remote_out = (
            f"{worker.repo}/.orchestrate-shard{shard.index}"
            f"-attempt{attempt}.json"
        )
        argv = [worker.python or "python3"] + sweep_argv(
            self.grid_args,
            shard,
            remote_out,
            backend=self.worker_backend,
            trace=self.trace,
            cache=self.cache,
        )
        run = " ".join(shlex.quote(part) for part in argv)
        return (
            f"cd {shlex.quote(worker.repo)} && "
            f"PYTHONPATH=src {run} 1>&2 && "
            f"cat {shlex.quote(remote_out)} && "
            f"rm -f {shlex.quote(remote_out)}"
        )

    async def run_shard(
        self, worker: WorkerSpec, shard: ShardSpec, attempt: int
    ) -> BatchResult:
        if not worker.is_remote:
            return await super().run_shard(worker, shard, attempt)
        argv = [
            "ssh", *self.ssh_options, worker.host,
            self._remote_command(worker, shard, attempt),
        ]
        returncode, stdout, stderr = await _run_process(argv)
        if returncode != 0 or not stdout.strip():
            raise ShardFailure(
                f"shard {shard.index}/{shard.count} on {worker.name}: "
                f"ssh exit {returncode}; stderr: {_tail(stderr) or '<empty>'}"
            )
        import json

        try:
            return BatchResult.from_data(json.loads(stdout))
        except (ValueError, TypeError, KeyError) as exc:
            raise ShardFailure(
                f"shard {shard.index}/{shard.count} on {worker.name}: "
                f"unparseable export over ssh ({exc})"
            )

    async def warm(self, worker: WorkerSpec) -> None:
        """Ship the local cache directory to the worker (tar over ssh).

        Best-effort pre-start warm: a worker that already holds the
        entries just overwrites them with identical bytes (the cache is
        content-addressed), and a failed warm costs only recomputation.
        """
        if not worker.is_remote or not self.cache:
            return None
        remote_cache = f"{worker.repo}/.orchestrate-cache"
        argv = [
            "sh", "-c",
            f"tar -C {shlex.quote(self.cache)} -cf - . | "
            f"ssh {' '.join(self.ssh_options)} {shlex.quote(worker.host)} "
            f"'mkdir -p {shlex.quote(remote_cache)} && "
            f"tar -C {shlex.quote(remote_cache)} -xf -'",
        ]
        returncode, _stdout, stderr = await _run_process(argv)
        if returncode != 0:
            raise ShardFailure(
                f"cache warm for {worker.name} failed "
                f"(exit {returncode}): {_tail(stderr)}"
            )

    async def probe(self, worker: WorkerSpec) -> bool:
        """Heartbeat: can the worker still answer a trivial command?"""
        if not worker.is_remote:
            return True
        try:
            returncode, _stdout, _stderr = await asyncio.wait_for(
                _run_process(
                    ["ssh", *self.ssh_options, worker.host, "true"]
                ),
                self.probe_timeout,
            )
        except (asyncio.TimeoutError, OSError):
            return False
        return returncode == 0


def build_backend(
    workers: list[WorkerSpec],
    *,
    grid_args: tuple[str, ...],
    workdir: str | os.PathLike,
    cache: str = "",
    trace: str = "lean",
    worker_backend: str = "serial",
    chaos_kill: frozenset[int] = frozenset(),
) -> WorkerBackend:
    """The right backend for a worker inventory.

    All-local inventories get the plain subprocess backend; any remote
    worker upgrades the whole inventory to the SSH backend, which
    transparently runs its local members as subprocesses — one backend
    object either way, so the driver never routes.
    """
    cls = (
        SSHWorkerBackend
        if any(worker.is_remote for worker in workers)
        else LocalWorkerBackend
    )
    return cls(
        grid_args=grid_args,
        workdir=workdir,
        cache=cache,
        trace=trace,
        worker_backend=worker_backend,
        chaos_kill=chaos_kill,
    )
