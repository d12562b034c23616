"""Plain-text table rendering and stamped BENCH_*.json writing.

Every benchmark artifact goes through :func:`write_bench_json`, which
stamps the result with ``schema_version``, ``commit`` and ``timestamp``
so a BENCH file is self-describing: you can always answer "which code
produced this number, and when".
"""

from __future__ import annotations

import json
import subprocess
import time
from typing import Callable, Dict, List, Sequence, Tuple, Union

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "Column",
    "bench_stamp",
    "geomean",
    "render_table",
    "sci",
    "write_bench_json",
]

Column = Tuple[str, str, Callable[[object], str]]


def sci(value: Union[int, float, None]) -> str:
    """Compact numeric formatting: integers plain, big numbers 1.2e17."""
    if value is None:
        return "-"
    value = float(value)
    if value == 0:
        return "0"
    if abs(value) >= 1e6 or abs(value) < 1e-3:
        return f"{value:.1e}"
    if value == int(value):
        return str(int(value))
    return f"{value:.2f}"


def render_table(
    rows: Sequence[dict], columns: Sequence[Column], title: str = ""
) -> str:
    """Render dict rows into an aligned text table.

    ``columns`` is a sequence of (key, header, formatter).
    """
    headers = [header for _, header, _ in columns]
    rendered: List[List[str]] = [headers]
    for row in rows:
        rendered.append(
            [fmt(row.get(key)) for key, _, fmt in columns]
        )
    widths = [
        max(len(line[i]) for line in rendered) for i in range(len(columns))
    ]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    for index, line in enumerate(rendered):
        lines.append(
            " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(line))
        )
        if index == 0:
            lines.append(sep)
    return "\n".join(lines)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (the paper's averaging for Figure 8)."""
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


#: Version of the stamped BENCH_*.json envelope. 2 added the
#: ``schema_version``/``commit``/``timestamp`` stamp itself.
BENCH_SCHEMA_VERSION = 2


def _git_commit() -> str:
    """The current commit (short), or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
        return "unknown"
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else "unknown"


def bench_stamp() -> Dict[str, object]:
    """The self-description stamp shared by every BENCH artifact."""
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "commit": _git_commit(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def write_bench_json(result: Dict[str, object], path: str) -> None:
    """Write ``result`` as a stamped, sorted, indented JSON artifact.

    The stamp never overwrites fields the benchmark set itself.
    """
    stamped = dict(bench_stamp())
    stamped.update(result)
    with open(path, "w") as fh:
        json.dump(stamped, fh, indent=2, sort_keys=True)
        fh.write("\n")
