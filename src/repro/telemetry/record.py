"""The recorder core: structured events, spans and metric snapshots.

One module-level switch decides whether the stack records anything.  By
default the installed recorder is a :class:`NullRecorder` whose every
method is a constant-time no-op (``span`` returns one shared, stateless
singleton), so instrumented hot seams cost a dict lookup and a method call
when telemetry is off — nothing allocates, nothing touches the filesystem.

:func:`configure` installs a real :class:`Recorder` that appends JSONL
records to a per-process sink under ``<run_dir>/telemetry/``::

    <run_dir>/telemetry/
        events-<host>-<pid>.jsonl     # this process (default sink name)
        worker-<id>.jsonl             # a cluster worker daemon's sink

Sinks are single-writer append-only files — the same no-cross-host-races
design as the cluster's result shards — and hold three record types:

* ``{"type": "event", "ts", "name", "level", ...fields}`` — leveled
  structured log lines (events at/above the ``echo`` level are also
  rendered to stderr);
* ``{"type": "span", "name", "span", "parent", "start", "ts", "wall_s",
  "cpu_s", ...fields}`` — one record per closed span, with thread-local
  parent linkage so nested stages reconstruct into a tree;
* ``{"type": "metrics", "ts", "counters", "gauges", "timers"}`` —
  cumulative :class:`~repro.telemetry.metrics.Metrics` snapshots (the last
  one per sink wins on merge; see
  :func:`repro.telemetry.metrics.merge_snapshots`).

Span ids are ``<pid-hex>-<counter>`` — deterministic, RNG-free (REP001) and
unique within a run because sinks are per-process.  A forked child starts
with the no-op recorder, so it never writes to its parent's sink.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import sys
import threading
import time
from contextlib import contextmanager
from typing import IO, Iterator, Optional

from repro.telemetry.metrics import Metrics

__all__ = [
    "TELEMETRY_DIRNAME",
    "LEVELS",
    "NullRecorder",
    "Recorder",
    "Span",
    "configure",
    "disable",
    "enabled",
    "get_recorder",
    "recording",
]

#: Subdirectory of a run directory holding the JSONL telemetry sinks.
TELEMETRY_DIRNAME = "telemetry"

#: Event severities, log4j-ordered.  Unknown level names rank as "info".
LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}


def _severity(level: str) -> int:
    return LEVELS.get(level, LEVELS["info"])


class _NullSpan:
    """The shared no-op span: enter/exit/note do nothing, allocate nothing."""

    __slots__ = ()

    span_id = None
    parent_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def note(self, **fields) -> None:
        return None


class NullRecorder:
    """The disabled-path recorder: every operation is a constant no-op."""

    enabled = False
    metrics: Optional[Metrics] = None

    _SPAN = _NullSpan()

    def event(self, name: str, level: str = "info", **fields) -> None:
        return None

    def count(self, name: str, value: float = 1) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, seconds: float) -> None:
        return None

    def span(self, name: str, **fields) -> _NullSpan:
        return self._SPAN

    def flush_metrics(self) -> None:
        return None

    def close(self) -> None:
        return None


class Span:
    """One timed stage: a context manager that records itself on exit.

    Wall time comes from ``perf_counter`` and CPU time from ``thread_time``
    (the span's own thread, so a heartbeat thread running beside a worker
    item does not pollute the item's CPU accounting).  ``note(**fields)``
    attaches result fields (cell counts, losses) discovered mid-span.
    """

    __slots__ = (
        "_recorder", "name", "fields", "span_id", "parent_id",
        "_start_ts", "_wall0", "_cpu0",
    )

    def __init__(self, recorder: "Recorder", name: str, fields: dict):
        self._recorder = recorder
        self.name = name
        self.fields = fields
        self.span_id = recorder._next_span_id()
        self.parent_id: Optional[str] = None
        self._start_ts = 0.0
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def note(self, **fields) -> None:
        self.fields.update(fields)

    def __enter__(self) -> "Span":
        stack = self._recorder._span_stack()
        self.parent_id = stack[-1].span_id if stack else None
        stack.append(self)
        self._start_ts = time.time()
        self._wall0 = time.perf_counter()
        self._cpu0 = time.thread_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall = time.perf_counter() - self._wall0
        cpu = time.thread_time() - self._cpu0
        stack = self._recorder._span_stack()
        if stack and stack[-1] is self:
            stack.pop()
        record = {
            "type": "span",
            "name": self.name,
            "span": self.span_id,
            "parent": self.parent_id,
            "start": self._start_ts,
            "ts": time.time(),
            "wall_s": wall,
            "cpu_s": cpu,
        }
        if exc_type is not None:
            record["ok"] = False
            record["exc"] = exc_type.__name__
        record.update(self.fields)
        self._recorder._record_span(record, wall)
        return False


class Recorder:
    """A live recorder appending to one JSONL sink (plus a stderr echo).

    Parameters
    ----------
    run_dir:
        The run directory; the sink lives under ``<run_dir>/telemetry/``.
    name:
        Sink basename (without extension).  Defaults to
        ``events-<host>-<pid>``; cluster workers pass ``worker-<id>`` so
        their telemetry shard is named like their result shard.
    level:
        Minimum event severity written to the sink (spans and metric
        snapshots are always written — they are the point).
    echo:
        Minimum event severity also rendered to stderr; ``None`` disables
        the echo entirely.
    """

    enabled = True

    def __init__(
        self,
        run_dir: str,
        name: Optional[str] = None,
        level: str = "info",
        echo: Optional[str] = "warning",
    ):
        self.run_dir = os.path.abspath(run_dir)
        self.sink_dir = os.path.join(self.run_dir, TELEMETRY_DIRNAME)
        self.name = name or f"events-{socket.gethostname()}-{os.getpid()}"
        self.path = os.path.join(self.sink_dir, self.name + ".jsonl")
        self.level = level
        self.echo = echo
        self.metrics = Metrics()
        self._level_value = _severity(level)
        self._echo_value = _severity(echo) if echo is not None else None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._handle: Optional[IO[str]] = None
        self._span_counter = itertools.count(1)
        self._pid = os.getpid()

    # -- plumbing -------------------------------------------------------------

    def _next_span_id(self) -> str:
        return f"{self._pid:x}-{next(self._span_counter)}"

    def _span_stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _write(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            if self._handle is None:
                os.makedirs(self.sink_dir, exist_ok=True)
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line + "\n")
            self._handle.flush()  # tail-able mid-run

    # -- the recording API ----------------------------------------------------

    def event(self, name: str, level: str = "info", **fields) -> None:
        """Append one structured event (and maybe echo it to stderr)."""
        value = _severity(level)
        if value < self._level_value:
            return
        record = {"type": "event", "ts": time.time(), "name": name, "level": level}
        record.update(fields)
        self._write(record)
        if self._echo_value is not None and value >= self._echo_value:
            rendered = " ".join(f"{k}={v}" for k, v in fields.items())
            print(
                f"[repro:{level}] {name}" + (f" {rendered}" if rendered else ""),
                file=sys.stderr,
            )

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.metrics.count(name, value)

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.metrics.gauge(name, value)

    def observe(self, name: str, seconds: float) -> None:
        with self._lock:
            self.metrics.observe(name, seconds)

    def span(self, name: str, **fields) -> Span:
        """A context manager recording one timed stage on exit."""
        return Span(self, name, fields)

    def _record_span(self, record: dict, wall: float) -> None:
        self._write(record)
        with self._lock:
            self.metrics.observe("span." + record["name"], wall)

    def flush_metrics(self) -> None:
        """Append a cumulative metrics snapshot (idempotent when empty)."""
        with self._lock:
            if self.metrics.is_empty():
                return
            snapshot = self.metrics.snapshot()
        record = {"type": "metrics", "ts": time.time()}
        record.update(snapshot)
        self._write(record)

    def close(self) -> None:
        """Flush a final metrics snapshot and close the sink."""
        self.flush_metrics()
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


_NULL = NullRecorder()
_RECORDER = _NULL
_SWITCH_LOCK = threading.Lock()


def get_recorder():
    """The installed recorder (a :class:`NullRecorder` unless configured)."""
    return _RECORDER


def enabled() -> bool:
    """True when a real recorder is installed."""
    return _RECORDER.enabled


def configure(
    run_dir: str,
    name: Optional[str] = None,
    level: str = "info",
    echo: Optional[str] = "warning",
) -> Recorder:
    """Install (and return) a live recorder sinking under ``run_dir``.

    Replaces — and closes — any previously installed recorder; there is one
    recorder per process, matching the one-sink-per-process file layout.
    """
    global _RECORDER
    recorder = Recorder(run_dir, name=name, level=level, echo=echo)
    with _SWITCH_LOCK:
        previous, _RECORDER = _RECORDER, recorder
    previous.close()
    return recorder


def disable() -> None:
    """Close any live recorder and restore the no-op default."""
    global _RECORDER
    with _SWITCH_LOCK:
        previous, _RECORDER = _RECORDER, _NULL
    previous.close()


def _forget_parent_recorder() -> None:
    """In a forked child: record nothing until the child configures its own.

    The inherited recorder's sink, counters and span-id prefix are the
    parent's.  It is dropped without being closed, since closing would
    flush the parent's counters into the parent's sink.  The switch lock is
    new too: another parent thread may have held it at the fork.
    """
    global _RECORDER, _SWITCH_LOCK
    _RECORDER = _NULL
    _SWITCH_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_parent_recorder)


@contextmanager
def recording(
    run_dir: str,
    name: Optional[str] = None,
    level: str = "info",
    echo: Optional[str] = "warning",
) -> Iterator[Recorder]:
    """Scoped :func:`configure`: restores the previous recorder on exit."""
    global _RECORDER
    recorder = Recorder(run_dir, name=name, level=level, echo=echo)
    with _SWITCH_LOCK:
        previous, _RECORDER = _RECORDER, recorder
    try:
        yield recorder
    finally:
        with _SWITCH_LOCK:
            _RECORDER = previous
        recorder.close()
