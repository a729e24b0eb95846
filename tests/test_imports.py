"""Every name a package module imports is used in that module, and importing
the package or its CLI leaves out ``dataclasses``, ``inspect`` and ``click``,
which none uses."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mszip"
# nested and cli import these only so perfbench can patch them by name there
ALLOWED = {("nested.py", "encode_op"), ("nested.py", "decode_advance"),
           ("cli.py", "sequence_state")}


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported - used
                  if (path.name, name) not in ALLOWED)


# __init__.py is skipped: its imports are the package's re-exports
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("module", ["mszip", "mszip.cli"])
def test_import_leaves_dataclasses_and_inspect_out(module):
    """``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``,
    and ``click`` pulls in ``inspect``, which a fresh import would load for
    no caller."""
    code = (f"import sys; bare = set(sys.modules); import {module}; print(sorted("
            "{'dataclasses', 'inspect', 'click'} & (set(sys.modules) - bare)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)}, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
