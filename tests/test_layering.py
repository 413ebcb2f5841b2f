"""Layering rules between the modules of the library."""

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


def test_only_hecke_reads_the_numerator_form():
    # HeckeElt's (nums, den) form stays behind hecke.py; other modules read
    # terms or use the public operations.
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "hecke.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "nums":
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
