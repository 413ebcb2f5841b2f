"""Modules of the library import no private name from one another."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "heckeskein"


def test_no_private_imports_between_modules():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                for alias in node.names:
                    if alias.name.startswith("_"):
                        offenders.append(f"{path.name}:{node.lineno} {alias.name}")
    assert offenders == []
