"""The on-disk record codec shared by checkpoints and the segment store.

Every durable file in the package — ``ckpt-*.dpck`` checkpoints, the
``seg-*.dpqs`` segments, the segment manifest, the compaction journal
and the retired sidecar — is built from the same pieces, so one module
owns them and the formats cannot drift apart:

* :func:`record_line` / :func:`parse_record_line` — one checksummed
  line, ``<crc32 of payload, 8 hex chars> <payload JSON>``; a torn or
  corrupt line parses to ``None``;
* :func:`pack_section` / :func:`unpack_section` — a JSON section,
  zlib-compressed and base64-wrapped, with an inner CRC32 over the raw
  JSON;
* :func:`delta_encode_rows` / :func:`delta_decode_path` — the
  prefix-trie path encoding: each trie node is a ``(parent, name_id)``
  pair (root = -1), a path is the id of its leaf node, and shared
  prefixes are stored once;
* :func:`fsync_dir` — best-effort durability of a rename.
"""

from __future__ import annotations

import base64
import json
import os
import zlib
from typing import Dict, List, Optional, Tuple

__all__ = [
    "record_line",
    "parse_record_line",
    "pack_section",
    "unpack_section",
    "delta_encode_rows",
    "delta_decode_path",
    "fsync_dir",
]


def record_line(payload: dict) -> str:
    """One checksummed line: CRC32 of the compact JSON, then the JSON."""
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return f"{zlib.crc32(body.encode()) & 0xFFFFFFFF:08x} {body}\n"


def parse_record_line(line: str) -> Optional[dict]:
    """Decode one checksummed line; None when torn or corrupt."""
    if not line.endswith("\n"):
        return None  # torn final line: the write was interrupted
    if len(line) < 10 or line[8] != " ":
        return None
    try:
        want = int(line[:8], 16)
    except ValueError:
        return None
    body = line[9:-1]
    if zlib.crc32(body.encode()) & 0xFFFFFFFF != want:
        return None
    try:
        payload = json.loads(body)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


def pack_section(obj) -> Dict[str, object]:
    """JSON → zlib → base64, with an inner CRC32 over the raw JSON."""
    raw = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return {
        "crc": zlib.crc32(raw) & 0xFFFFFFFF,
        "data": base64.b64encode(zlib.compress(raw, 6)).decode("ascii"),
    }


def unpack_section(payload: Dict[str, object]):
    """Inverse of :func:`pack_section`; None on any corruption."""
    try:
        raw = zlib.decompress(base64.b64decode(payload["data"]))
    except (KeyError, TypeError, ValueError, zlib.error):
        return None
    if zlib.crc32(raw) & 0xFFFFFFFF != payload.get("crc"):
        return None
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None


def delta_encode_rows(rows):
    """Collapse row paths into (names, flat trie nodes, per-row pids).

    The same prefix-trie delta encoding the live
    :class:`~repro.service.store.ContextStore` uses: each trie node is a
    ``(parent, name_id)`` pair (root = -1), a path is the id of its leaf
    node, and shared prefixes are stored exactly once.
    """
    names: List[str] = []
    name_ids: Dict[str, int] = {}
    nodes_flat: List[int] = []
    children: Dict[Tuple[int, int], int] = {}
    pids: List[int] = []
    for row in rows:
        node = -1
        for name in row[0]:
            nid = name_ids.get(name)
            if nid is None:
                nid = len(names)
                names.append(name)
                name_ids[name] = nid
            child = children.get((node, nid))
            if child is None:
                child = len(nodes_flat) // 2
                nodes_flat.append(node)
                nodes_flat.append(nid)
                children[(node, nid)] = child
            node = child
        pids.append(node)
    return names, nodes_flat, pids


def delta_decode_path(pid, nodes_flat, names):
    """Resolve one pid against the decoded sections; None when invalid."""
    count = len(nodes_flat) // 2
    out: List[str] = []
    node = pid
    while node != -1:
        if not isinstance(node, int) or not 0 <= node < count:
            return None
        parent = nodes_flat[2 * node]
        name_id = nodes_flat[2 * node + 1]
        if not isinstance(name_id, int) or not 0 <= name_id < len(names):
            return None
        if len(out) > count:  # a cycle cannot happen in a valid file
            return None
        out.append(names[name_id])
        node = parent
    out.reverse()
    return tuple(out)


def fsync_dir(directory: str) -> None:
    """Best-effort fsync of a directory (durability of a rename)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform dependent
        pass
    finally:
        os.close(fd)
