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


def test_only_the_walks_drive_the_generator_kernel():
    # In hecke.py the generator kernel _step runs only inside the word walk
    # and the trie walk, and over_lcm only inside lincomb; other routines
    # go through these.
    callers = {"_step": set(), "over_lcm": set()}

    def scan(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if owner is None and isinstance(child, ast.FunctionDef):
                inner = child.name
            if isinstance(child, ast.Name) and child.id in callers:
                callers[child.id].add(owner)
            scan(child, inner)

    path = SRC / "hecke.py"
    scan(ast.parse(path.read_text(), filename=str(path)), None)
    assert callers == {"_step": {"_step_word", "_walk"}, "over_lcm": {"lincomb"}}


def test_only_coeff_reaches_the_gcd_and_exact_division():
    # Every fraction is made canonical by coeff.normal_form, so no other
    # module takes a gcd, divides exactly or normalises a unit itself.
    banned = {"poly_gcd", "laurent_divexact", "canon_poly_part"}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "coeff.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.name.split(".")[-1] in banned:
                        offenders.append(f"{path.name}:{node.lineno} {alias.name}")
    assert offenders == []


def test_only_coeff_and_hecke_write_integer_term_maps():
    # The term map {(e_v, e_s): int} stays behind coeff and hecke's kernel:
    # other modules build polynomials from coeff's public symbols and sum
    # products with dot, so none imports the accumulation or the retired
    # reduction over (s - 1)^a (s + 1)^b, or hands IntLaurent a dict.
    banned = {"mul_into", "over_s_pm1"}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("coeff.py", "hecke.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.name.split(".")[-1] in banned:
                        offenders.append(f"{path.name}:{node.lineno} {alias.name}")
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                args = node.args + [k.value for k in node.keywords]
                if name == "IntLaurent" and any(
                    isinstance(a, (ast.Dict, ast.DictComp)) for a in args
                ):
                    offenders.append(f"{path.name}:{node.lineno} IntLaurent")
    assert offenders == []


def test_scalar_reduces_only_through_its_constructor():
    # Every Scalar operation builds Scalar(num, den), so normal_form (and
    # over_lcm, for a sum) is its only reduction; the class names none of
    # the gcd, exact division or unit routines itself.
    banned = {"_gcd_cached", "poly_gcd", "laurent_divexact", "_unit", "canon_poly_part"}
    tree = ast.parse((SRC / "coeff.py").read_text())
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Scalar"]
    offenders = []
    for node in ast.walk(cls):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if name in banned:
            offenders.append(f"coeff.py:{node.lineno} {name}")
    assert offenders == []


def test_raw_scalars_are_canonical_by_construction():
    # Scalar._raw skips the reduction, so coeff.py hands it only fractions
    # over 1 or a negation over the same denominator; every other fraction
    # is made canonical by normal_form.
    tree = ast.parse((SRC / "coeff.py").read_text())
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_raw"
    ]
    offenders = []
    for call in calls:
        den = call.args[1] if len(call.args) > 1 else None
        over_one = isinstance(den, ast.Name) and den.id == "_L_ONE"
        same_den = (
            isinstance(den, ast.Attribute) and den.attr == "den"
            and getattr(den.value, "id", None) == "self"
        )
        if not (over_one or same_den):
            offenders.append(f"coeff.py:{call.lineno}")
    assert calls and offenders == []


def test_only_cli_imports_the_representation_layer():
    # psi, trace and the layers below them reach the centre and the closure
    # without tableaux or seminormal matrices; the package's __init__ only
    # re-exports repn's names.
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("cli.py", "repn.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(a.name for a in node.names)]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "repn" for name in names):
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


def test_caches_go_through_memo_alone():
    # One memo policy: functools' cache and lru_cache appear only in
    # coeff.memo and the import it uses.
    banned = {"cache", "lru_cache"}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == "coeff.py":
            for node in tree.body:
                if isinstance(node, ast.Assign) and [
                    getattr(t, "id", None) for t in node.targets
                ] == ["memo"]:
                    allowed |= set(range(node.lineno, node.end_lineno + 1))
                if isinstance(node, ast.ImportFrom) and node.module == "functools":
                    if [a.name for a in node.names] == ["lru_cache"]:
                        allowed.add(node.lineno)
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name.split(".")[-1] for a in node.names]
            if banned & set(names) and node.lineno not in allowed:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_every_memo_table_is_bounded_and_cleared():
    from heckeskein.coeff import MEMO_SIZE
    from heckeskein.hecke import word_elt
    from heckeskein.psi import psi
    from heckeskein.repn import closure, std_tableaux
    from heckeskein.symfun import complete, elementary
    from heckeskein.trace import ev_sym, markov_ev
    from oracles import memo_clear, memo_tables

    decorated = sorted(
        node.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(d, ast.Name) and d.id == "memo" for d in node.decorator_list)
    )
    tables = memo_tables()
    assert len(decorated) == 17
    assert sorted(t.__name__ for t in tables) == decorated
    assert all(t.cache_parameters()["maxsize"] == MEMO_SIZE for t in tables)

    # touch every table, then empty them all
    psi(2, complete(2) * elementary(2))
    closure(word_elt(3, [1, -2]))
    markov_ev(word_elt(3, [1, -2]))
    std_tableaux((2, 1))
    ev_sym(complete(2))
    ev_sym(elementary(2))
    assert [t.__name__ for t in tables if not t.cache_info().currsize] == []
    memo_clear()
    assert [t.__name__ for t in tables if t.cache_info().currsize] == []


def test_memo_bound_holds_the_largest_key_space():
    # Within the bound k <= MAX_PERM_N every table but the gcd table has a
    # finite key space: strand counts or degrees, basis braids of H_k,
    # partitions of k, or pairs of them (a partition with a degree).  The
    # largest are the braid-keyed tables', one entry per basis braid of H_k;
    # they fit, so none of them evicts.  The gcd table is keyed by pairs of
    # dense coefficient tuples and drops its least recently used pairs.
    from math import factorial

    from heckeskein.coeff import MEMO_SIZE
    from heckeskein.perm import MAX_PERM_N
    from heckeskein.repn import partitions_of
    from oracles import memo_tables

    ks = range(MAX_PERM_N + 1)
    p = [len(partitions_of(k)) for k in ks]
    braids = sum(factorial(k) for k in ks)
    shapes = sum(p)
    spaces = {
        **dict.fromkeys(
            ["identity", "partitions_of", "power_sum", "elementary", "_h_trace"], len(ks)
        ),
        **dict.fromkeys(["word_of", "_class_poly", "_trace_loops"], braids),
        **dict.fromkeys(["std_tableaux", "_schur_terms", "_p_monomial"], shapes),
        "_class_character": sum(c * c for c in p),
        "_psi_p": len(ks) * shapes,  # (strands, a partition as prefix)
        "_grade_weights": len(ks),  # the span m = L - j <= k of the summed grades
        "_ev_den": len(ks),  # the degree m of D_m
        "_h_num": sum(sum(p[: m + 1]) for m in ks),  # (lambda, m) with |lambda| <= m
    }
    assert spaces.keys() | {"_gcd_cached"} == {t.__name__ for t in memo_tables()}
    largest = max(spaces.values())
    assert {t for t, size in spaces.items() if size == largest} == {
        "word_of", "_class_poly", "_trace_loops"
    }
    assert (largest, spaces["_class_character"]) == (46234, 919)
    assert MEMO_SIZE >= largest
