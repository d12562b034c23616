"""Layering: the query layer does not depend on the resilience layer.

Segments, the manifest and compaction share their on-disk codec with
checkpoints through :mod:`repro.recordio`; reaching into
``repro.resilience`` for it would tie the store's formats to the
self-healing layer's module layout.
"""

import ast
import pathlib

import repro.query

QUERY_DIR = pathlib.Path(repro.query.__file__).parent


def resilience_imports(path):
    """``(line, module)`` for every import of ``repro.resilience*``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        for name in names:
            if name == "repro.resilience" or name.startswith(
                "repro.resilience."
            ):
                found.append((node.lineno, name))
    return found


def test_query_modules_import_nothing_from_resilience():
    modules = sorted(QUERY_DIR.glob("*.py"))
    assert len(modules) >= 5
    offenders = {
        path.name: hits
        for path in modules
        if (hits := resilience_imports(path))
    }
    assert offenders == {}
