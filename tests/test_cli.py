import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from heckeskein import cli, perm
from heckeskein.cli import main
from heckeskein.hecke import HeckeElt
from oracles import memo_clear


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_homfly_trefoil(capsys):
    code, out, err = run(capsys, "homfly", "--strands", "2", "--word", "1 1 1")
    assert code == 0
    payload = json.loads(out)
    assert payload["writhe"] == 3
    assert payload["polynomial"]["num"] == [[2, -2, "1"], [2, 2, "1"], [4, 0, "-1"]]
    assert payload["polynomial"]["den"] == [[0, 0, "1"]]


def test_output_deterministic(capsys):
    _, first, _ = run(capsys, "closure", "--strands", "3", "--word", "1 2")
    _, second, _ = run(capsys, "closure", "--strands", "3", "--word", "1 2")
    assert first == second
    _, v1, _ = run(capsys, "verify", "murphy-linear", "--n", "3")
    _, v2, _ = run(capsys, "verify", "murphy-linear", "--n", "3")
    r1, r2 = json.loads(v1)[0], json.loads(v2)[0]
    assert r1["details"] == r2["details"]
    assert r1["status"] == r2["status"] == "pass"


def test_closure_schur_output(capsys):
    code, out, _ = run(capsys, "closure", "--strands", "2", "--word", "1")
    payload = json.loads(out)
    assert payload["basis"] == "schur"
    assert payload["terms"] == [
        {"partition": [1, 1], "coeff": {"num": [[0, -1, "-1"]], "den": [[0, 0, "1"]]}},
        {"partition": [2], "coeff": {"num": [[0, 1, "1"]], "den": [[0, 0, "1"]]}},
    ]


def test_eval_h1_is_loop_value(capsys):
    code, out, _ = run(capsys, "eval", "--elem", "h1")
    assert code == 0
    payload = json.loads(out)
    # delta = (v^-1 - v)/(s - s^-1) in canonical form
    assert payload == {
        "num": [[-1, 1, "1"], [1, 1, "-1"]],
        "den": [[0, 0, "-1"], [0, 2, "1"]],
    }


def test_psi_matches_library(capsys):
    from heckeskein.hecke import t_circle

    code, out, _ = run(capsys, "psi", "--n", "3", "--elem", "h1")
    assert code == 0
    assert json.loads(out) == t_circle(3).to_json()


def test_characters_table(capsys):
    code, out, _ = run(capsys, "characters", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert [row["lambda"] for row in payload] == [[2], [1, 1]]
    row = payload[0]
    assert row["values"]["1,2"] == {"num": [[0, 0, "1"]], "den": [[0, 0, "1"]]}
    assert row["values"]["2,1"] == {"num": [[0, 1, "1"]], "den": [[0, 0, "1"]]}


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(n, degree):
        raise ArithmeticError("inexact division")

    monkeypatch.setitem(cli.CHECKS, "mirror-h", broken)
    code, out, err = run(capsys, "verify", "mirror-h", "--n", "2")
    assert code == 3
    assert out == ""
    assert err == "internal error: inexact division\n"


def test_verify_single_pass(capsys):
    code, out, _ = run(capsys, "verify", "eh-inverse", "--degree", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["status"] == "pass"
    assert all(d["ok"] for d in payload[0]["details"])


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "all", "--n", "2", "--degree", "2")
    assert code == 0
    payload = json.loads(out)
    assert sorted(rep["theorem"] for rep in payload) == sorted(
        [
            "ah",
            "ah-mirror-inverse",
            "closure-consistency",
            "eh-inverse",
            "mirror-h",
            "murphy-commute",
            "murphy-linear",
            "murphy-series",
            "murphy-sum-central",
            "phi-distinct",
            "power",
            "row-idem",
        ]
    )
    assert all(rep["status"] == "pass" for rep in payload)


def test_phi_distinct_n6_lists_eigenvalues(capsys):
    code, out, _ = run(capsys, "verify", "phi-distinct", "--n", "6")
    assert code == 0
    payload = json.loads(out)[0]
    assert payload["status"] == "pass"
    assert len(payload["params"]["eigenvalues"]) == 11  # partitions of 6


def test_unknown_theorem_exits_2(capsys):
    code, out, err = run(capsys, "verify", "not-a-theorem")
    assert code == 2
    assert "unknown theorem" in err


def test_bad_word_token_named(capsys):
    code, out, err = run(capsys, "homfly", "--strands", "2", "--word", "1 x 1")
    assert code == 2
    assert "'x'" in err
    code, out, err = run(capsys, "homfly", "--strands", "2", "--word", "1 0")
    assert code == 2


def test_out_of_range_letter_exits_2_before_any_move(capsys):
    # these letters would cancel or be split away if they were not checked first
    for word in ("5 -5", "1 -1 4"):
        code, out, err = run(capsys, "homfly", "--strands", "3", "--word", word)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


def test_over_long_word_exits_2_before_any_move(capsys, monkeypatch):
    def expanded(*args):
        raise AssertionError("expanded a word over the bound")

    monkeypatch.setattr(cli.trace, "word_elt", expanded)
    monkeypatch.setattr(cli, "word_elt", expanded)
    # no Markov move applies to the first word, so homfly would expand it
    for word in ("1 2 " * 33, "1 -1 " * 40):
        for command in ("homfly", "closure"):
            code, out, err = run(capsys, command, "--strands", "3", "--word", word)
            assert (code, out) == (2, "")
            letters = len(word.split())
            assert err == f"error: braid word has {letters} letters, more than the bound 64\n"
    monkeypatch.undo()
    for command in ("homfly", "closure"):
        code, out, err = run(capsys, command, "--strands", "3", "--word", "1 2 " * 32)
        assert (code, err) == (0, "")


def test_bad_element_named(capsys):
    for elem, named in (
        ("h1*zap", "'zap'"),
        ("9" * 5000, "'99999999"),
        ("h" + "1" * 5000, "'h1111111"),
    ):
        code, out, err = run(capsys, "eval", "--elem", elem)
        assert code == 2
        assert "cannot parse element factor " + named in err
        assert len(err) < 200


def test_coefficients_past_the_str_digit_limit_are_printed(capsys):
    # Three 4000-digit factors multiply to a 12000-digit coefficient, past
    # the 4300 digits CPython's str(int) accepts; the output spells it out.
    code, out, err = run(capsys, "eval", "--elem", "*".join(["9" * 4000] * 3))
    assert (code, err) == (0, "")
    # (10^4000 - 1)^3 = 10^12000 - 3 10^8000 + 3 10^4000 - 1
    cube = "9" * 3999 + "7" + "0" * 3999 + "2" + "9" * 4000
    assert json.loads(out) == {"num": [[0, 0, cube]], "den": [[0, 0, "1"]]}


def test_element_degree_rejected_before_building(capsys):
    for elem in ("e5000", "p99999999", "s(" + ",".join(["1"] * 13) + ")", "0*h9"):
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", "--elem", elem)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "exceeds the bound" in err
        assert out == ""


def test_bounds_enforced(capsys):
    # one row per bound site, each one step past an end of its range
    for argv, flag, low, high, got in (
        (["verify", "murphy-linear", "--n", "99"], "--n", 1, 6, 99),
        (["verify", "murphy-linear", "--n", "0"], "--n", 1, 6, 0),
        (["verify", "murphy-linear", "--degree", "9"], "--degree", 0, 8, 9),
        (["verify", "murphy-linear", "--n", "6", "--degree", "7"], "--degree at --n 6", 0, 6, 7),
        (["homfly", "--strands", "0", "--word", "1"], "--strands", 1, 8, 0),
        (["homfly", "--strands", "9", "--word", "1"], "--strands", 1, 8, 9),
        (["closure", "--strands", "7", "--word", "1"], "--strands", 1, 6, 7),
        (["characters", "--n", "0"], "--n", 1, 6, 0),
        (["characters", "--n", "7"], "--n", 1, 6, 7),
        (["psi", "--n", "7", "--elem", "h1"], "--n", 0, 6, 7),
        (["psi", "--n", "-1", "--elem", "h1"], "--n", 0, 6, -1),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: {flag} must be between {low} and {high}, got {got}\n", argv


def test_degree_over_the_n6_bound_exits_2_before_the_library(capsys, monkeypatch):
    def reached(*args):
        raise AssertionError("reached the library past the degree bound")

    monkeypatch.setattr(cli, "cmd_verify", reached)
    monkeypatch.setattr(cli, "build_element", reached)
    monkeypatch.setattr(cli, "psi_map", reached)
    for degree in ("7", "8"):
        code, out, err = run(capsys, "verify", "all", "--n", "6", "--degree", degree)
        assert (code, out) == (2, "")
        assert err == f"error: --degree at --n 6 must be between 0 and 6, got {degree}\n"
    for elem, top in (("h7", 7), ("h8", 8), ("e4*p4", 8), ("2*s(4,3)", 7)):
        code, out, err = run(capsys, "psi", "--n", "6", "--elem", elem)
        assert (code, out) == (2, "")
        assert err == f"error: element degree {top} exceeds the bound 6 at --n 6\n"
    # the bound is only at n = 6, and degree 6 there is accepted
    monkeypatch.undo()
    calls = []
    monkeypatch.setattr(cli, "cmd_verify", lambda *args: calls.append(args) or (0, []))
    monkeypatch.setattr(cli, "psi_map", lambda n, f: calls.append(n) or HeckeElt.identity(n))
    assert run(capsys, "verify", "all", "--n", "6", "--degree", "6")[0] == 0
    assert run(capsys, "verify", "all", "--n", "5", "--degree", "8")[0] == 0
    assert run(capsys, "psi", "--n", "6", "--elem", "h6")[0] == 0
    assert run(capsys, "psi", "--n", "5", "--elem", "h8")[0] == 0
    assert calls == [("all", 6, 6), ("all", 5, 8), 6, 5]


def test_readme_range_table_matches_the_bounds():
    # the "Command line" table of README.md, row by row: flags and ranges
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| subcommand | flags | accepted range |\n")[1].split("\n\n")[0]
    rows = {}
    for line in table.splitlines()[1:]:  # below the | --- | line
        name, flags, accepted = (cell.strip() for cell in line.strip("|").split("|"))
        rows[name] = (flags, accepted)
    n, d, d6, w, k = (cli.MAX_N, cli.MAX_DEGREE, cli.MAX_DEGREE_AT_MAX_N,
                      cli.MAX_WORD, cli.MAX_PERM_N)
    assert k == perm.MAX_PERM_N
    assert rows == {
        "`verify <id>`": (
            f"`--n N` (default {cli.DEFAULT_N}), `--degree D` (default {cli.DEFAULT_DEGREE})",
            f"`1 <= N <= {n}`, `0 <= D <= {d}`; `D <= {d6}` when `N = {n}`",
        ),
        "`homfly`": (
            "`--strands K`, `--word W`",
            f"`1 <= K <= {k}` (`perm.MAX_PERM_N`); `W` at most {w} letters (`cli.MAX_WORD`)",
        ),
        "`closure`": ("`--strands K`, `--word W`", f"`1 <= K <= {n}`; `W` at most {w} letters"),
        "`characters`": ("`--n N`", f"`1 <= N <= {n}`"),
        "`psi`": (
            "`--n N`, `--elem E`",
            f"`0 <= N <= {n}`; degree of `E` at most {d}, and at most {d6} when `N = {n}`",
        ),
        "`eval`": ("`--elem E`", f"degree of `E` at most {d}"),
    }


def test_main_calls_the_module_commands(capsys, monkeypatch):
    # main looks each cmd_* up when it runs, so a rebound one (a tracer) is seen
    calls = []
    monkeypatch.setattr(cli, "cmd_homfly", lambda *args: calls.append(args) or {"x": 1})
    monkeypatch.setattr(cli, "cmd_verify", lambda *args: calls.append(args) or (1, []))
    assert run(capsys, "homfly", "--strands", "3", "--word", "1 -2") == (0, '{"x": 1}\n', "")
    assert run(capsys, "verify", "power", "--degree", "2") == (1, "[]\n", "")
    assert calls == [(3, [1, -2]), ("power", 4, 2)]


def test_every_subcommand_has_help(capsys):
    for cmd in ("verify", "homfly", "closure", "characters", "psi", "eval"):
        code, out, _ = run(capsys, cmd, "--help")
        assert code == 0
        assert out.startswith(f"usage: heckeskein {cmd} ")
        assert "--pretty" in out and "--out OUT" in out


def test_usage_error_exits_2(capsys):
    assert main(["homfly", "--strands", "2"]) == 2  # missing --word


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run(
        capsys, "homfly", "--strands", "2", "--word", "1 1 1", "--out", str(target)
    )
    assert code == 0
    assert json.loads(target.read_text()) == json.loads(out)


def test_unwritable_out_rejected_before_computing(tmp_path, capsys, monkeypatch):
    def computed(*args):
        raise AssertionError("computed before checking --out")

    monkeypatch.setattr(cli, "cmd_verify", computed)
    missing = tmp_path / "no-such-dir" / "x.json"
    for target in (missing, tmp_path):
        code, out, err = run(capsys, "verify", "all", "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write '{target}': ")
    code, _, err = run(capsys, "homfly", "--strands", "2", "--word", "1", "--out", str(missing))
    assert (code, err) == (2, f"error: cannot write '{missing}': No such file or directory\n")
    # a usage error after the probe leaves no file behind
    fresh = tmp_path / "fresh.json"
    assert run(capsys, "homfly", "--strands", "2", "--word", "0", "--out", str(fresh))[0] == 2
    assert not fresh.exists()


def test_pretty_verify(capsys):
    code, out, _ = run(capsys, "verify", "murphy-linear", "--n", "3", "--pretty")
    assert code == 0
    assert "murphy-linear: PASS" in out


# Seeded fuzz of the two CLI parsers.  Every case either succeeds or is
# rejected with exit 2 and an "error:" line; none may exit 3 or raise, and
# each finishes within FUZZ_CASE_CAP_S.  Valid elements stay at degree <= 5:
# the bound is 8, but eval --elem h8 alone took 16 s on a 2-core x86-64 host.
FUZZ_CASE_CAP_S = 1.0

_VALID_FACTORS = [
    ("h0", 0), ("h1", 1), ("h2", 2), ("h3", 3), ("h5", 5), ("e0", 0), ("e1", 1),
    ("e2", 2), ("e4", 4), ("p1", 1), ("p2", 2), ("p3", 3), ("p5", 5),
    ("s(1)", 1), ("s(2,1)", 3), ("s(1,1,1)", 3), ("s(3,2)", 5), ("s(2,2)", 4),
    ("0", 0), ("1", 0), ("-3", 0), ("12345678901234567890", 0),
]
_OVER_BOUND = [
    "h9", "e12", "p99999999", "s(9)", "s(" + ",".join(["1"] * 13) + ")",
    "9" * 5000, "h" + "1" * 5000,
]
_MALFORMED = [
    "", "h", "x1", "s()", "s(2,)", "s(1,2)", "s(0)", "p0", "h-1", "s(2, 1)",
    "1.5", "H2", "+1", "h1/h2", "(h1)", "s[2,1]", "e2e1", "ｈ1", "h1h", "é",
]


def _fuzz_element(rng):
    """(element text, expected exit code)."""
    factors, degree = [], 0
    for _ in range(rng.randint(1, 3)):
        text, deg = rng.choice(_VALID_FACTORS)
        if degree + deg <= 5:
            factors.append(text)
            degree += deg
    expect = 0
    roll = rng.random()
    if roll < 0.3:
        factors.insert(rng.randrange(len(factors) + 1), rng.choice(_OVER_BOUND))
        expect = 2
    elif roll < 0.6:
        factors.insert(rng.randrange(len(factors) + 1), rng.choice(_MALFORMED))
        expect = 2
    sep = rng.choice(["*", " * "])
    return sep.join(factors), expect


def _fuzz_word(rng, strands):
    """(braid word text, expected exit code) on the given number of strands."""
    top = strands - 1
    length = rng.randint(0, 12) if top else 0
    tokens = [str(rng.choice([-1, 1]) * rng.randint(1, top)) for _ in range(length)]
    expect = 0
    if rng.random() < 0.5:
        bad = rng.choice(["0", "x", "1.5", "9" * 5000, str(strands), str(-strands), "1,2", "--"])
        tokens.insert(rng.randrange(len(tokens) + 1), bad)
        expect = 2
    return " ".join(tokens), expect


def test_fuzz_parsers(capsys):
    rng = random.Random(8088)
    cases = []
    for _ in range(50):
        elem, expect = _fuzz_element(rng)
        cases.append((["eval", "--elem", elem], expect))
        elem, expect = _fuzz_element(rng)
        cases.append((["psi", "--n", "3", "--elem", elem], expect))
    for _ in range(50):
        for cmd in ("homfly", "closure"):
            strands = rng.randint(1, 4)
            word, expect = _fuzz_word(rng, strands)
            cases.append(([cmd, "--strands", str(strands), "--word", word], expect))
    for argv, expect in cases:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        elapsed = time.perf_counter() - start
        label = [a[:40] for a in argv]
        assert elapsed < FUZZ_CASE_CAP_S, (label, elapsed)
        assert code == expect, (label, code, err[:200])
        if code == 2:
            assert out == ""
            assert "error: " in err, (label, err[:200])


def test_cold_answers_equal_warm_answers():
    # Memo tables hand out shared containers (class polynomials, matrix
    # rows, psi images); a caller that mutated one would make a warm answer
    # differ from the same query asked with every table empty.
    rng = random.Random(13)
    queries = []
    for _ in range(12):
        n = rng.randint(3, 5)
        word = [rng.choice((-1, 1)) * rng.randint(1, n - 1) for _ in range(rng.randint(n, 2 * n))]
        queries += [(cli.cmd_homfly, (n, word)), (cli.cmd_closure, (n, word))]
    for _ in range(4):
        elem = "*".join(rng.sample(["h2", "e2", "p1", "p2", "s(2,1)", "3"], 2))
        queries.append((cli.cmd_psi, (rng.randint(2, 4), elem)))
    queries += [(cli.cmd_characters, (n,)) for n in (3, 4)]

    def answers(cold):
        out = []
        for fn, args in queries:
            if cold:
                memo_clear()
            out.append(fn(*args))
        return out

    answers(cold=False)
    assert answers(cold=False) == answers(cold=True)


# The real entry point, one interpreter per case: `python -m heckeskein`.
SRC = Path(__file__).resolve().parent.parent / "src"


def entry_point(*argv) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen(
        [sys.executable, "-m", "heckeskein", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def test_entry_point_homfly_matches_main(capsys):
    argv = ("homfly", "--strands", "3", "--word", "1 -2 1 -2")
    proc = entry_point(*argv)
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out.decode(), err.decode()) == run(capsys, *argv)
    assert proc.returncode == 0 and out.startswith(b'{"polynomial": ')


def test_entry_point_over_long_word_exits_2():
    proc = entry_point("homfly", "--strands", "8", "--word", "1 2 3 4 5 6 7 " * 10)
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out) == (2, b"")
    assert err.decode().startswith("error: braid word has 70 letters")


def test_entry_point_closed_stdout_exits_141():
    # characters --n 6 prints about 500 KB, more than a pipe holds
    with entry_point("characters", "--n", "6") as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err
