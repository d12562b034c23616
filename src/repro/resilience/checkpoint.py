"""Durable checkpoint/restore for the calling-context tree.

A checkpoint captures everything needed to answer queries after a
process crash: the CCT shard rows (path, count, gap-weight), the decode
epoch, and a **plan fingerprint** — a SHA-256 over the canonical graph
structure, anchor set, and encoding width — so recovery refuses to marry
counts from one program version to the plan of another.

File format (``ckpt-<seq>.dpck``): line-oriented records, each line

    ``<crc32 of payload, 8 hex chars> <payload JSON>``

(the codec — records, packed sections, prefix-trie path encoding — is
:mod:`repro.recordio`, shared with the ``repro.query`` segment store).

Format **version 2** (the current writer) mirrors the in-memory
:class:`~repro.service.store.ContextStore`: instead of repeating every
context path as a list of strings, the file carries

* a header (version, epoch, fingerprint, row count);
* a ``names`` section — the distinct function names, JSON-encoded,
  zlib-compressed, base64-wrapped, with an inner CRC32 over the raw
  JSON (defence in depth inside the per-line checksum);
* a ``nodes`` section — the prefix-trie topology as a flat
  ``[parent, name_id, parent, name_id, ...]`` list, compressed the same
  way (a context is the integer id of its trie leaf, so shared prefixes
  are stored once);
* ``rows`` records batching up to ``rows_per_record`` compact
  ``[pid, count, gap_weight, epoch]`` rows;
* a footer carrying the totals actually written.

Version-1 files (paths spelled out per row, no epochs) still load:
their rows are normalized with the checkpoint's own epoch. A file is
*valid* only if every line's checksum matches, the header parses, the
sections decompress and pass their inner CRCs, every pid resolves, and
the footer agrees with the observed record/row/sample totals — so a
torn write (crash mid-file, missing footer, truncated last line) or bit
rot (checksum mismatch) disqualifies the file rather than corrupting a
recovery. :meth:`CheckpointStore.load_newest` walks files newest-first
and returns the first that validates.

Durability discipline on write: serialize to ``.tmp-...`` in the same
directory, ``fsync`` the file, then ``os.replace`` onto the final name
(atomic on POSIX), then best-effort ``fsync`` the directory. A crash at
any point leaves either the complete new file or no new file — never a
half-visible one. The ``fault`` hook (chaos: crash after N records)
deliberately abandons the temp file un-renamed to model exactly that.

Metrics: ``resilience.checkpoints``, ``resilience.checkpoint_failures``,
``resilience.recoveries`` counters; ``resilience.checkpoint_us`` /
``resilience.recover_us`` latency histograms.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro import obs
from repro.errors import CheckpointError, QueryError
from repro.recordio import (
    delta_decode_path,
    delta_encode_rows,
    fsync_dir,
    pack_section,
    parse_record_line,
    record_line,
    unpack_section,
)

__all__ = [
    "CheckpointState",
    "CheckpointStore",
    "CheckpointDaemon",
    "plan_fingerprint",
]

FORMAT_VERSION = 2
#: Oldest on-disk format this reader still accepts.
OLDEST_READABLE_VERSION = 1
_PREFIX = "ckpt-"
_SUFFIX = ".dpck"
_TMP_PREFIX = ".tmp-ckpt-"


def plan_fingerprint(plan) -> str:
    """SHA-256 identity of a plan's encoding-relevant structure.

    Covers the entry node, node set, labelled edge set, anchor set, and
    integer width — the inputs that determine what a context ID means.
    Two plans with the same fingerprint decode identically, so recovered
    counts remain attributable.
    """
    graph = plan.graph
    digest = hashlib.sha256()
    digest.update(repr(graph.entry).encode())
    digest.update(b"\x00")
    for node in sorted(graph.nodes):
        digest.update(node.encode())
        digest.update(b"\x01")
    for caller, callee, label in sorted(
        (e.caller, e.callee, repr(e.label)) for e in graph.edges
    ):
        digest.update(f"{caller}\x02{callee}\x02{label}".encode())
        digest.update(b"\x03")
    for anchor in sorted(plan.encoding.anchors):
        digest.update(anchor.encode())
        digest.update(b"\x04")
    digest.update(repr(plan.encoding.width).encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class CheckpointState:
    """The recovered (or about-to-be-written) durable state.

    Rows normalize on construction to the canonical 4-tuple
    ``(path, count, gap_weight, epoch)``; legacy 3-tuple rows (no
    per-row epoch) are accepted and stamped with the checkpoint's own
    ``epoch``, so states built by pre-batch code — and rows loaded from
    version-1 files — compare equal to their round-tripped selves.
    """

    epoch: int
    fingerprint: str
    #: ``(path, count, gap_weight, epoch)`` per (context, epoch) pair.
    rows: Tuple[Tuple[Tuple[str, ...], int, int, int], ...]

    def __post_init__(self):
        if self.epoch < 0:
            raise CheckpointError(f"epoch must be >= 0, got {self.epoch}")
        normalized = tuple(
            (
                tuple(row[0]),
                int(row[1]),
                int(row[2]),
                int(row[3]) if len(row) > 3 else self.epoch,
            )
            for row in self.rows
        )
        object.__setattr__(self, "rows", normalized)

    @property
    def total_samples(self) -> int:
        return sum(row[1] for row in self.rows)


class CheckpointStore:
    """Atomic, checksummed snapshots in one directory."""

    def __init__(
        self,
        directory: str,
        *,
        retain: int = 3,
        rows_per_record: int = 512,
    ):
        if retain < 1:
            raise CheckpointError("must retain at least one checkpoint")
        if rows_per_record < 1:
            raise CheckpointError("rows_per_record must be at least 1")
        self.directory = directory
        self.retain = retain
        self.rows_per_record = rows_per_record
        self._lock = threading.Lock()
        os.makedirs(directory, exist_ok=True)

    # ------------------------------------------------------------------
    def _sequence_of(self, name: str) -> Optional[int]:
        if not (name.startswith(_PREFIX) and name.endswith(_SUFFIX)):
            return None
        try:
            return int(name[len(_PREFIX):-len(_SUFFIX)])
        except ValueError:
            return None

    def _listing(self) -> List[Tuple[int, str]]:
        out = []
        for name in os.listdir(self.directory):
            seq = self._sequence_of(name)
            if seq is not None:
                out.append((seq, os.path.join(self.directory, name)))
        return sorted(out)

    # ------------------------------------------------------------------
    def write(
        self,
        state: CheckpointState,
        fault: Optional[Callable[[int], None]] = None,
    ) -> str:
        """Durably write ``state``; returns the final checkpoint path.

        ``fault`` (chaos) is called with the running record count after
        each record is serialized; raising from it models a crash — the
        temp file is abandoned and never renamed, so readers only ever
        see previous, complete checkpoints.
        """
        start = time.perf_counter()
        with self._lock:
            listing = self._listing()
            seq = (listing[-1][0] + 1) if listing else 1
            final = os.path.join(
                self.directory, f"{_PREFIX}{seq:08d}{_SUFFIX}"
            )
            tmp = os.path.join(
                self.directory, f"{_TMP_PREFIX}{seq:08d}-{os.getpid()}"
            )
            records = 0
            try:
                with open(tmp, "w", encoding="utf-8") as fh:
                    fh.write(record_line({
                        "kind": "header",
                        "version": FORMAT_VERSION,
                        "epoch": state.epoch,
                        "fingerprint": state.fingerprint,
                        "rows": len(state.rows),
                    }))
                    records += 1
                    if fault is not None:
                        fault(records)
                    rows = list(state.rows)
                    names, nodes_flat, pids = delta_encode_rows(rows)
                    for kind, section in (
                        ("names", names), ("nodes", nodes_flat)
                    ):
                        payload = {"kind": kind}
                        payload.update(pack_section(section))
                        fh.write(record_line(payload))
                        records += 1
                        if fault is not None:
                            fault(records)
                    for lo in range(0, len(rows), self.rows_per_record):
                        chunk = rows[lo:lo + self.rows_per_record]
                        fh.write(record_line({
                            "kind": "rows",
                            "rows": [
                                [pids[lo + i], row[1], row[2], row[3]]
                                for i, row in enumerate(chunk)
                            ],
                        }))
                        records += 1
                        if fault is not None:
                            fault(records)
                    fh.write(record_line({
                        "kind": "footer",
                        "records": records + 1,
                        "rows": len(rows),
                        "samples": state.total_samples,
                    }))
                    records += 1
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, final)
            except BaseException:
                obs.counter("resilience.checkpoint_failures").inc()
                raise
            self._fsync_dir()
            self._prune(keep=self.retain)
        obs.counter("resilience.checkpoints").inc()
        obs.histogram("resilience.checkpoint_us").observe_us(
            (time.perf_counter() - start) * 1e6
        )
        return final

    def _fsync_dir(self) -> None:
        fsync_dir(self.directory)

    def _prune(self, keep: int) -> None:
        listing = self._listing()
        for _, path in listing[:-keep] if keep else listing:
            try:
                os.remove(path)
            except OSError:  # pragma: no cover - racing removals
                pass

    # ------------------------------------------------------------------
    def load_file(self, path: str) -> Optional[CheckpointState]:
        """Parse and validate one checkpoint file; None when invalid."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError):
            # Unreadable or not even text: whatever this file is, it is
            # not a checkpoint this process can trust.
            return None
        if not lines:
            return None
        header = parse_record_line(lines[0])
        if header is None or header.get("kind") != "header":
            return None
        version = header.get("version")
        if not isinstance(version, int) or not (
            OLDEST_READABLE_VERSION <= version <= FORMAT_VERSION
        ):
            return None
        compact_rows: List[Tuple[object, int, int, int]] = []  # v2
        legacy_rows: List[Tuple[Tuple[str, ...], int, int]] = []  # v1
        names: Optional[list] = None
        nodes_flat: Optional[list] = None
        footer = None
        for line in lines[1:]:
            payload = parse_record_line(line)
            if payload is None:
                return None
            if footer is not None:
                return None  # records after the footer: corrupt
            kind = payload.get("kind")
            if kind == "rows":
                try:
                    if version == 1:
                        for path_list, count, gaps in payload["rows"]:
                            legacy_rows.append(
                                (tuple(path_list), int(count), int(gaps))
                            )
                    else:
                        for pid, count, gaps, epoch in payload["rows"]:
                            compact_rows.append(
                                (pid, int(count), int(gaps), int(epoch))
                            )
                except (KeyError, TypeError, ValueError):
                    return None
            elif kind == "names" and version >= 2:
                names = unpack_section(payload)
                if not isinstance(names, list) or not all(
                    isinstance(n, str) for n in names
                ):
                    return None
            elif kind == "nodes" and version >= 2:
                nodes_flat = unpack_section(payload)
                if (
                    not isinstance(nodes_flat, list)
                    or len(nodes_flat) % 2
                    or not all(isinstance(v, int) for v in nodes_flat)
                ):
                    return None
            elif kind == "footer":
                footer = payload
            else:
                return None
        if footer is None:
            return None  # torn write: footer never made it to disk
        if version == 1:
            # Legacy rows carry no per-row epoch; CheckpointState stamps
            # them with the checkpoint's own epoch on normalization.
            rows: List[tuple] = list(legacy_rows)
        else:
            if names is None or nodes_flat is None:
                return None  # a section never made it to disk
            rows = []
            for pid, count, gaps, epoch in compact_rows:
                path = delta_decode_path(pid, nodes_flat, names)
                if path is None:
                    return None  # dangling pid: corrupt sections
                rows.append((path, count, gaps, epoch))
        if (
            footer.get("records") != len(lines)
            or footer.get("rows") != len(rows)
            or header.get("rows") != len(rows)
        ):
            return None
        state = CheckpointState(
            epoch=int(header["epoch"]),
            fingerprint=str(header["fingerprint"]),
            rows=tuple(rows),
        )
        if footer.get("samples") != state.total_samples:
            return None
        return state

    def load_newest(self) -> Optional[Tuple[str, CheckpointState]]:
        """Newest checkpoint that validates, or None if none do."""
        for _, path in reversed(self._listing()):
            state = self.load_file(path)
            if state is not None:
                return path, state
            obs.counter("resilience.checkpoint_rejected").inc()
        return None

    def checkpoints(self) -> List[str]:
        return [path for _, path in self._listing()]


class CheckpointDaemon:
    """Periodic background checkpointing (and segment flushing).

    Calls ``service.checkpoint()`` every ``interval`` seconds. When the
    service also carries a segment writer (``flush_segments`` — the
    ``repro.query`` durable store), each period additionally flushes the
    aggregation delta into a query segment, so the analytics store grows
    on the same cadence that keeps recovery fresh; after a successful
    flush the service's ``maybe_compact_segments`` hook runs, which
    compacts and ages the store every ``ServiceConfig.compact_every``
    flushes so an unbounded run's directory stays bounded. A failed
    write is counted (``resilience.checkpoint_failures`` — already
    incremented by the store — or :attr:`segment_failures` /
    :attr:`compaction_failures`) and retried next period; the daemon
    never dies of one bad write.
    """

    def __init__(self, service, interval: float):
        if interval <= 0:
            raise CheckpointError("checkpoint interval must be positive")
        self._service = service
        self._interval = interval
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.written = 0
        self.failed = 0
        self.segments_written = 0
        self.segment_failures = 0
        self.compactions = 0
        self.compaction_failures = 0

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="repro-checkpointd", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def _tick(self) -> None:
        try:
            self._service.checkpoint()
            self.written += 1
        except Exception:  # noqa: BLE001 - keep checkpointing
            self.failed += 1
        flush = getattr(self._service, "flush_segments", None)
        if flush is None:
            return
        try:
            if flush() is not None:
                self.segments_written += 1
        except QueryError:
            return  # service has no segment store configured
        except Exception:  # noqa: BLE001 - keep flushing next period
            self.segment_failures += 1
            return
        compact = getattr(self._service, "maybe_compact_segments", None)
        if compact is None:
            return
        try:
            if compact() is not None:
                self.compactions += 1
        except Exception:  # noqa: BLE001 - retried next period
            self.compaction_failures += 1

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self._tick()
