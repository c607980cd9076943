"""Model state serialization and result-record persistence.

Models expose ``state_dict`` / ``load_state_dict`` (see
:class:`repro.nn.module.Module`); these helpers persist such dictionaries to
``.npz`` archives so trained models can be shared between the examples,
benchmarks and evaluation scripts.

The JSONL helpers back the sweep-execution engine's result store
(:mod:`repro.runtime.store`): one JSON record per line, append-only, so an
interrupted sweep leaves at worst one truncated trailing line — which
:func:`read_jsonl` skips — and every completed cell remains resumable.
:func:`array_digest` provides the stable content hashes the engine derives
its cache keys and per-job seeds from.

Lines may optionally carry a **checksum footer**: a tab, a ``#sha256:``
marker and the first :data:`CHECKSUM_HEX_CHARS` hex characters of the SHA-256
of the JSON text (``{...}\\t#sha256:d2a84f4b8b65``).  Canonical JSON never
contains a raw tab (tabs inside strings serialize as ``\\t`` escapes), so the
footer is unambiguous and per-line self-describing — one file may mix
checksummed and plain lines, and readers need no mode flag.
:func:`parse_jsonl_line` classifies every line as ``ok``, **torn** (a
truncated write: the JSON does not parse) or **corrupt** (the JSON parses
but its checksum does not match — a flipped bit, not an interrupted writer);
the tolerant readers skip-and-count both classes separately
(``io.torn_lines`` / ``io.corrupt_lines``).  With ``checksum=False`` (the
default) :func:`append_jsonl` writes byte-identical output to the historical
format.

The atomic-write helpers back the distributed sweep subsystem
(:mod:`repro.cluster`): every shared file a cluster run directory publishes
(queue items, the pickled context, the manifest, repaired result logs) is
written to a temporary sibling and moved into place with :func:`os.replace`,
so concurrent readers on other hosts only ever observe absent or complete
files, never partial ones.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

__all__ = [
    "save_state_dict",
    "load_state_dict",
    "array_digest",
    "append_jsonl",
    "read_jsonl",
    "read_jsonl_stats",
    "jsonl_line",
    "parse_jsonl_line",
    "JsonlStats",
    "CHECKSUM_SEP",
    "CHECKSUM_HEX_CHARS",
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
]

#: Separator between a line's JSON text and its checksum footer.  The tab
#: cannot occur inside canonical JSON, so splitting on the *last* occurrence
#: is exact.
CHECKSUM_SEP = "\t#sha256:"

#: Hex characters of the SHA-256 digest kept in the footer — 48 bits, ample
#: for detecting corruption (the footer guards integrity, not authenticity).
CHECKSUM_HEX_CHARS = 12


def save_state_dict(state: Dict[str, np.ndarray], path: str) -> None:
    """Save a ``{name: array}`` state dictionary as a compressed ``.npz`` file."""
    directory = os.path.dirname(os.path.abspath(path))
    if directory:
        os.makedirs(directory, exist_ok=True)
    np.savez_compressed(path, **{k: np.asarray(v) for k, v in state.items()})


def load_state_dict(path: str) -> Dict[str, np.ndarray]:
    """Load a state dictionary previously written by :func:`save_state_dict`."""
    with np.load(path) as archive:
        return {key: archive[key] for key in archive.files}


def array_digest(*arrays: np.ndarray) -> str:
    """Stable hex digest of one or more arrays (dtype, shape and contents).

    The digest is invariant to memory layout (arrays are serialized in C
    order) but sensitive to dtype and shape, so ``uint8`` codes and their
    ``int64`` copy hash differently — the property cache keys need.
    """
    hasher = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        hasher.update(str(array.dtype).encode())
        hasher.update(repr(array.shape).encode())
        hasher.update(array.tobytes())
    return hasher.hexdigest()


def _line_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:CHECKSUM_HEX_CHARS]


def jsonl_line(record: dict, checksum: bool = False) -> str:
    """One newline-terminated JSONL line for ``record``.

    With ``checksum=True`` the canonical JSON text is suffixed with its
    :data:`CHECKSUM_SEP` footer; with ``False`` the line is byte-identical to
    the historical format.
    """
    text = json.dumps(record, sort_keys=True)
    if checksum:
        text += CHECKSUM_SEP + _line_digest(text)
    return text + "\n"


def parse_jsonl_line(line: str):
    """Classify one JSONL line: ``(record_or_None, status)``.

    ``status`` is ``"empty"`` (blank line), ``"ok"`` (an intact record),
    ``"torn"`` (the JSON does not parse — the truncated residue of an
    interrupted writer) or ``"corrupt"`` (the JSON parses but the line's
    checksum footer disagrees — a flipped bit, or a record altered after it
    was written).  Lines without a footer can never be ``corrupt``; they
    carry no checksum to disagree with.
    """
    line = line.strip()
    if not line:
        return None, "empty"
    text, digest = line, None
    if CHECKSUM_SEP in line:
        text, digest = line.rsplit(CHECKSUM_SEP, 1)
    try:
        record = json.loads(text)
    except json.JSONDecodeError:
        return None, "torn"
    if not isinstance(record, dict):
        return None, "torn"
    if digest is not None and digest != _line_digest(text):
        return None, "corrupt"
    return record, "ok"


@dataclass
class JsonlStats:
    """Line classification counts of one tolerant JSONL read."""

    records: int = 0
    torn: int = 0
    corrupt: int = 0

    def count_skips(self) -> None:
        """Bump the ``io.torn_lines`` / ``io.corrupt_lines`` counters."""
        if self.torn or self.corrupt:
            from repro import telemetry  # local: keep repro.utils import-light

            rec = telemetry.get_recorder()
            if self.torn:
                rec.count("io.torn_lines", self.torn)
            if self.corrupt:
                rec.count("io.corrupt_lines", self.corrupt)


def append_jsonl(path: str, records: Iterable[dict], checksum: bool = False) -> None:
    """Append ``records`` to a JSONL file (one canonical JSON object per line).

    ``checksum=True`` suffixes each line with its integrity footer (see
    :func:`jsonl_line`); the default output is byte-identical to the
    historical footer-free format.

    If the file's last byte is not a newline — a previous appender died (or
    hit ENOSPC) mid-line — a newline is written first, so the torn residue
    stays confined to its own line instead of swallowing the first record
    of this batch.  The repair is counted as ``io.append_newline_repairs``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "a+b") as handle:
        if handle.tell() > 0:
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                from repro import telemetry  # local: keep imports light

                handle.write(b"\n")
                telemetry.get_recorder().count("io.append_newline_repairs")
        for record in records:
            handle.write(jsonl_line(record, checksum=checksum).encode("utf-8"))


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (tmp sibling + ``os.replace``).

    The temporary file lives in the destination directory so the final
    rename never crosses a filesystem boundary; readers observe either the
    old content, nothing, or the complete new content — the invariant the
    cluster queue's claim-by-rename protocol builds on.
    """
    path = os.path.abspath(path)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        # repro: ignore[REP008] best-effort tmp cleanup on the error path —
        # the original exception re-raises right below either way.
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Atomically write ``text`` (UTF-8) to ``path``."""
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: str, obj) -> None:
    """Atomically write one canonical JSON document to ``path``."""
    atomic_write_text(path, json.dumps(obj, sort_keys=True) + "\n")


def read_jsonl_stats(path: str) -> Tuple[List[dict], JsonlStats]:
    """Tolerantly read a JSONL file, returning records plus line statistics.

    Malformed lines are skipped rather than raised, so a result store
    survives being killed mid-append; the returned :class:`JsonlStats`
    separates **torn** lines (truncated writes) from **corrupt** ones
    (checksum-footer mismatches) so callers — chaos tests, the verify
    pass — can tell an interrupted writer from flipped bits.  The skips
    are not counted into telemetry here; call
    :meth:`JsonlStats.count_skips` to surface them.
    """
    records: List[dict] = []
    stats = JsonlStats()
    if not os.path.exists(path):
        return records, stats
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            record, status = parse_jsonl_line(line)
            if status == "ok":
                records.append(record)
                stats.records += 1
            elif status == "torn":
                stats.torn += 1
            elif status == "corrupt":
                stats.corrupt += 1
    return records, stats


def read_jsonl(path: str) -> List[dict]:
    """Read every intact record of a JSONL file.

    Malformed lines (e.g. a truncated final line left by an interrupted or
    killed writer, or a line whose checksum footer disagrees) are skipped
    rather than raised, so a result store survives being killed
    mid-append.  Skips are not silent: each bumps the ``io.torn_lines`` or
    ``io.corrupt_lines`` telemetry counter, so chaos runs can assert how
    much was torn and real runs surface quiet corruption.
    """
    records, stats = read_jsonl_stats(path)
    stats.count_skips()
    return records
