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


def test_benchmark_tracer_installs_and_restores():
    # The benchmark's tracer wraps library names by lookup; a renamed or
    # deleted entry point would make its traced runs fail.
    import importlib.util
    import sys

    import heckeskein.cli  # noqa: F401  (loads every module the tracer wraps)

    path = SRC.parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    def snapshot():
        owners = [m for k, m in sys.modules.items() if k.split(".")[0] == "heckeskein"]
        owners += [v for m in owners for v in vars(m).values() if isinstance(v, type)]
        state = {(id(o), k): v for o in owners for k, v in list(vars(o).items())}
        state[("checks",)] = dict(sys.modules["heckeskein.cli"].CHECKS)
        return state

    before = snapshot()
    t = tracer.Tracer()
    t.install()
    try:
        assert snapshot() != before
    finally:
        t.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before if k != ("checks",))
    assert all(
        after[("checks",)][k] is v for k, v in before[("checks",)].items()
    )
