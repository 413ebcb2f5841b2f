import json
import time

from heckeskein.cli import main


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


def test_bad_element_named(capsys):
    code, out, err = run(capsys, "eval", "--elem", "h1*zap")
    assert code == 2
    assert "'zap'" in err


def test_element_degree_rejected_before_building(capsys):
    for elem in ("e5000", "p99999999", "s(" + ",".join(["1"] * 13) + ")", "0*h9"):
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", "--elem", elem)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "exceeds the bound" in err
        assert out == ""


def test_bounds_enforced(capsys):
    code, _, err = run(capsys, "verify", "murphy-linear", "--n", "99")
    assert code == 2
    assert "between" in err
    code, _, err = run(capsys, "characters", "--n", "7")
    assert code == 2


def test_usage_error_exits_2(capsys):
    assert main(["homfly", "--strands", "2"]) == 2  # missing --word


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run(
        capsys, "homfly", "--strands", "2", "--word", "1 1 1", "--out", str(target)
    )
    assert code == 0
    assert json.loads(target.read_text()) == json.loads(out)


def test_pretty_verify(capsys):
    code, out, _ = run(capsys, "verify", "murphy-linear", "--n", "3", "--pretty")
    assert code == 0
    assert "murphy-linear: PASS" in out
