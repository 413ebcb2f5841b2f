"""Command-line interface: computations and theorem verification.

Structured JSON goes to stdout (stable term ordering, so output is
deterministic for fixed inputs); diagnostics go to stderr.  Exit codes:
0 success / all checks pass, 1 verification failure, 2 usage or parse error,
3 internal error (an arithmetic, recursion or assertion failure inside the
library), 141 (128 + SIGPIPE) stdout closed by its reader before the output
was written.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from collections.abc import Iterator

from . import repn, symfun, trace
from .coeff import ZERO, Scalar, quantum_int, s_pow, v_pow, z
from .hecke import (
    HeckeElt,
    a_sym,
    b_sym,
    e_idem,
    gamma_elt,
    h_idem,
    lincomb,
    murphy_M,
    murphy_T,
    phi_s,
    power_sum_T,
    t_circle,
    word_elt,
)
from .perm import MAX_PERM_N, all_perms
from .psi import build_element, parse_factors, psi as psi_map, verify_murphy_series
from .series import TruncSeries
from .symfun import SymFunc, closed_braid_A, complete, power_sum

MAX_N = 6
MAX_DEGREE = 8
MAX_DEGREE_AT_MAX_N = 6  # of verify and psi at n = MAX_N (README "Bounds")
MAX_WORD = 64  # letters of a homfly or closure braid word
DEFAULT_N = 4
DEFAULT_DEGREE = 4


# ---------------------------------------------------------------------------
# Theorem checks.  Each takes (n, degree) bounds and is a generator: it yields
# its params dict first, then one (case, ok) pair per case.
# ---------------------------------------------------------------------------


def _check_murphy_linear(n: int, degree: int) -> Iterator:
    yield {"n": n}
    zz = z()
    for m in range(2, n + 1):
        for j in range(2, m + 1):
            ok = murphy_T(j, m) == HeckeElt.identity(m) + murphy_M(j, m).scale(zz)
            yield f"T({j}) = 1 + z M({j}) in H_{m}", ok


def _check_murphy_commute(n: int, degree: int) -> Iterator:
    yield {"n": n}
    for m in range(2, n + 1):
        ts = [murphy_T(j, m) for j in range(1, m + 1)]
        for a in range(m):
            for b in range(a + 1, m):
                case = f"T({a+1})T({b+1}) = T({b+1})T({a+1}) in H_{m}"
                yield case, ts[a] * ts[b] == ts[b] * ts[a]


def _check_murphy_sum_central(n: int, degree: int) -> Iterator:
    yield {"n": n, "degree": degree}
    zz_v = z() * v_pow(-1)
    for m in range(1, n + 1):
        tc = t_circle(m)
        yield (
            f"T^({m}) = T^({m-1}) + z v^-1 T({m})",
            tc == t_circle(m - 1).include(m) + murphy_T(m, m).scale(zz_v),
        )
        yield f"T^({m}) central in H_{m}", tc.is_central()
    for m in range(1, n + 1):
        for p in range(1, min(degree, 4) + 1):
            yield f"sum T(j)^{p} central in H_{m}", power_sum_T(p, m).is_central()


def _check_phi_distinct(n: int, degree: int) -> Iterator:
    tc = t_circle(n)
    values = [(lam, repn.central_scalar(tc, lam)) for lam in repn.partitions_of(n)]
    yield {
        "n": n,
        "eigenvalues": [
            {"partition": list(lam), "value": val.to_json()} for lam, val in values
        ],
    }
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            yield (
                f"t_{list(values[i][0])} != t_{list(values[j][0])}",
                values[i][1] != values[j][1],
            )


def _check_row_idem(n: int, degree: int) -> Iterator:
    yield {"n": n}
    ss = s_pow(1)
    neg_s_inv = -s_pow(-1)
    for m in range(1, n + 1):
        a_m = a_sym(m)
        b_m = b_sym(m)
        for i in range(1, m):
            si = word_elt(m, [i])
            yield f"a_{m} sigma_{i} = s a_{m}", a_m * si == a_m.scale(ss)
            yield f"sigma_{i} a_{m} = s a_{m}", si * a_m == a_m.scale(ss)
            yield f"b_{m} sigma_{i} = -s^-1 b_{m}", b_m * si == b_m.scale(neg_s_inv)
        yield f"a_{m}^2 = phi_s(a_{m}) a_{m}", a_m * a_m == a_m.scale(phi_s(a_m))
        if m > 1:
            yield (
                f"a_{m} = a_{m-1} gamma_{m}",
                a_m == a_sym(m - 1).include(m) * gamma_elt(m),
            )
        h_m = h_idem(m)
        e_m = e_idem(m)
        yield f"h_{m}^2 = h_{m}", h_m * h_m == h_m
        yield f"e_{m}^2 = e_{m}", e_m * e_m == e_m
        if m > 1:
            yield (
                f"s^{m-1}[{m}] h_{m} = h_{m-1} gamma_{m}",
                h_m.scale(s_pow(m - 1) * quantum_int(m))
                == h_idem(m - 1).include(m) * gamma_elt(m),
            )


def _check_eh_inverse(n: int, degree: int) -> Iterator:
    yield {"degree": degree}
    H = symfun.complete_series(degree)
    E = symfun.elementary_series(degree)
    prod = E.scale_t(Scalar.from_int(-1)) * H
    one = TruncSeries.one(SymFunc.one(), degree)
    for k in range(degree + 1):
        yield f"[t^{k}] E(-t)H(t) = [t^{k}] 1", prod.coeffs[k] == one.coeffs[k]


def _check_ah(n: int, degree: int) -> Iterator:
    yield {"degree": degree}
    for m in range(1, degree + 1):
        gen_side = closed_braid_A(m)
        oracle = repn.closure(word_elt(m, list(range(m - 1, 0, -1))))
        yield f"A_{m} = closure(sigma_{{{m-1}}}...sigma_1)", gen_side == oracle


def _check_ah_mirror_inverse(n: int, degree: int) -> Iterator:
    yield {"degree": degree}
    zz = z()
    one = SymFunc.one()
    a_coeffs = [one] + [closed_braid_A(m).scale(zz) for m in range(1, degree + 1)]
    abar_coeffs = [one]
    for m in range(1, degree + 1):
        neg = repn.closure(word_elt(m, list(range(-(m - 1), 0))))
        yield f"Abar_{m} = mirror(A_{m})", neg == closed_braid_A(m).mirror()
        abar_coeffs.append(neg.scale(-zz))
    prod = TruncSeries(a_coeffs) * TruncSeries(abar_coeffs)
    unit = TruncSeries.one(one, degree)
    for k in range(degree + 1):
        yield f"[t^{k}] A(t)Abar(t) = [t^{k}] 1", prod.coeffs[k] == unit.coeffs[k]


def _check_mirror_h(n: int, degree: int) -> Iterator:
    yield {"n": n}
    for m in range(1, n + 1):
        h_m = h_idem(m)
        yield f"mirror(h_{m}) = h_{m}", h_m.mirror() == h_m


def _check_closure_consistency(n: int, degree: int) -> Iterator:
    yield {"n": n, "samples": 25}
    rng = random.Random(20020521)
    for m in range(1, n + 1):
        perms = list(all_perms(m))
        for t in range(25):
            x = _random_elt(rng, m, perms)
            y = _random_elt(rng, m, perms)
            ok1 = trace.markov_ev(x * y) == trace.markov_ev(y * x)
            ok2 = trace.markov_ev(x) == trace.ev_sym(repn.closure(x))
            yield f"trace(xy)=trace(yx) H_{m} sample {t}", ok1
            yield f"trace = ev(closure) H_{m} sample {t}", ok2


def _random_elt(rng: random.Random, n: int, perms) -> HeckeElt:
    pairs = []
    for _ in range(rng.randint(1, 3)):
        p = perms[rng.randrange(len(perms))]
        c = Scalar.monomial(rng.randint(-3, 3), rng.randint(-1, 1), rng.randint(-2, 2))
        pairs.append((HeckeElt.basis(p), c))
    return lincomb(n, pairs)


def _check_power(n: int, degree: int) -> Iterator:
    yield {"n": n, "degree": degree}
    for m in range(1, n + 1):
        yield f"psi({m}, h_1) = T^({m})", psi_map(m, complete(1)) == t_circle(m)
    for m in range(1, n + 1):
        for p in range(1, min(degree, 4) + 1):
            lhs = psi_map(m, power_sum(p)) - psi_map(m - 1, power_sum(p)).include(m)
            tm = murphy_T(m, m)
            tp = tm
            for _ in range(p - 1):
                tp = tp * tm
            rhs = tp.scale((s_pow(p) - s_pow(-p)) * v_pow(-p))
            yield f"telescoping m={p}, n={m}", lhs == rhs


def _check_murphy_series(n: int, degree: int) -> Iterator:
    yield {"n": n, "degree": degree}
    for m in range(1, n + 1):
        ok, sub = verify_murphy_series(m, degree)
        for k, good in enumerate(sub["degree_ok"]):
            yield f"n={m} degree {k}", good


CHECKS = {
    "murphy-linear": _check_murphy_linear,
    "murphy-commute": _check_murphy_commute,
    "murphy-sum-central": _check_murphy_sum_central,
    "phi-distinct": _check_phi_distinct,
    "row-idem": _check_row_idem,
    "eh-inverse": _check_eh_inverse,
    "ah": _check_ah,
    "ah-mirror-inverse": _check_ah_mirror_inverse,
    "mirror-h": _check_mirror_h,
    "closure-consistency": _check_closure_consistency,
    "power": _check_power,
    "murphy-series": _check_murphy_series,
}


def cmd_verify(theorem: str, n: int, degree: int) -> tuple[int, list[dict]]:
    if theorem != "all" and theorem not in CHECKS:
        raise UsageError(
            f"unknown theorem {theorem!r}; known: {', '.join(sorted(CHECKS))}, all"
        )
    names = sorted(CHECKS) if theorem == "all" else [theorem]
    reports = []
    for name in names:
        t0 = time.monotonic()
        cases = CHECKS[name](n, degree)
        params = next(cases)
        details = [{"case": case, "ok": bool(ok)} for case, ok in cases]
        reports.append({
            "theorem": name,
            "params": params,
            "status": "pass" if all(d["ok"] for d in details) else "fail",
            "details": details,
            "elapsed_ms": int((time.monotonic() - t0) * 1000),
        })
    return int(any(rep["status"] == "fail" for rep in reports)), reports


# ---------------------------------------------------------------------------
# Computation commands.
# ---------------------------------------------------------------------------


def parse_word(text: str) -> list[int]:
    tokens = text.split()
    if len(tokens) > MAX_WORD:
        raise UsageError(
            f"braid word has {len(tokens)} letters, more than the bound {MAX_WORD}"
        )
    out = []
    for token in tokens:
        try:
            val = int(token)
        except ValueError:
            raise UsageError(f"braid word token {token!r} is not an integer")
        if val == 0:
            raise UsageError("braid word letters must be nonzero")
        out.append(val)
    return out


def cmd_homfly(strands: int, word: list[int]) -> dict:
    value = trace.homfly(strands, word)
    return {
        "polynomial": value.to_json(),
        "writhe": sum(1 if i > 0 else -1 for i in word),
    }


def cmd_closure(strands: int, word: list[int]) -> dict:
    return symfun.basis_json("schur", repn.closure_schur(word_elt(strands, word)))


def cmd_characters(n: int) -> list[dict]:
    # a basis braid's characters are the Schur coordinates of its closure,
    # all shapes from one pass; the zeros closure_schur omits are filled in
    rows = [(p, repn.closure_schur(HeckeElt.basis(p))) for p in all_perms(n)]
    out = []
    for lam in repn.partitions_of(n):
        values = {}
        for p, chars in rows:
            key = ",".join(str(i) for i in p.images)
            values[key] = chars.get(lam, ZERO).to_json()
        out.append({"lambda": list(lam), "values": values})
    return out


def cmd_psi(n: int, elem: str) -> dict:
    f = _parse_bounded_element(elem, n)
    return psi_map(n, f).to_json()


def cmd_eval(elem: str) -> dict:
    f = _parse_bounded_element(elem, None)
    return trace.ev_sym(f).to_json()


def _degree_bound(n: int | None) -> tuple[int, str]:
    """The degree bound of verify or psi at n (None: no n), and where it holds."""
    if n == MAX_N:
        return MAX_DEGREE_AT_MAX_N, f" at --n {n}"
    return MAX_DEGREE, ""


def _parse_bounded_element(elem: str, n: int | None) -> SymFunc:
    # bound the degree before building: e5000 alone would run for minutes
    factors = parse_factors(elem)
    top = sum(degree for _, _, degree in factors)
    bound, where = _degree_bound(n)
    if top > bound:
        raise UsageError(f"element degree {top} exceeds the bound {bound}{where}")
    return build_element(factors)


def _verify_sizes(n: int, degree: int) -> tuple[int, int]:
    n = _bounded(n, "--n", 1, MAX_N)
    bound, where = _degree_bound(n)
    return n, _bounded(degree, "--degree" + where, 0, bound)


# ---------------------------------------------------------------------------
# Wiring.
# ---------------------------------------------------------------------------


class UsageError(ValueError):
    pass


def _bounded(value: int, label: str, low: int, high: int) -> int:
    if not (low <= value <= high):
        raise UsageError(f"{label} must be between {low} and {high}, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand is one ``command(name, help, run, *flags)``.

    ``run(args)`` bounds the flags and returns ``(exit code, payload)``.  It
    looks its ``cmd_*`` up by module name when it runs, so a test or tracer
    that rebinds ``cli.cmd_*`` sees every call.
    """
    parser = argparse.ArgumentParser(
        prog="heckeskein",
        description="Exact Hecke-algebra and annulus-skein computations.",
    )
    parser.set_defaults(render=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, run, *flags, **defaults):
        # a flag is required unless the command gives it a default
        p = sub.add_parser(name, help=help)
        for flag, kind in flags:
            p.add_argument(flag, type=kind, required=flag[2:] not in defaults)
        p.add_argument("--pretty", action="store_true", help="human-readable rendering")
        p.add_argument("--out", type=str, default=None, help="write JSON to a file")
        p.set_defaults(run=run, **defaults)
        return p

    command(
        "verify", "verify a theorem identity exactly",
        lambda a: cmd_verify(a.theorem, *_verify_sizes(a.n, a.degree)),
        ("--n", int), ("--degree", int),
        n=DEFAULT_N, degree=DEFAULT_DEGREE, render=_render_verify,
    ).add_argument("theorem", help=f"one of: {', '.join(sorted(CHECKS))}, all")
    command(
        "homfly", "HOMFLY polynomial of a closed braid",
        lambda a: (0, cmd_homfly(_bounded(a.strands, "--strands", 1, MAX_PERM_N),
                                 parse_word(a.word))),
        ("--strands", int), ("--word", str),
    )
    command(
        "closure", "annulus closure of a braid word",
        lambda a: (0, cmd_closure(_bounded(a.strands, "--strands", 1, MAX_N),
                                  parse_word(a.word))),
        ("--strands", int), ("--word", str),
    )
    command(
        "characters", "character table of H_n",
        lambda a: (0, cmd_characters(_bounded(a.n, "--n", 1, MAX_N))), ("--n", int),
    )
    command(
        "psi", "image of an annulus element in Z(H_n)",
        lambda a: (0, cmd_psi(_bounded(a.n, "--n", 0, MAX_N), a.elem)),
        ("--n", int), ("--elem", str),
    )
    command(
        "eval", "plane evaluation of an annulus element",
        lambda a: (0, cmd_eval(a.elem)), ("--elem", str),
    )
    return parser


def _check_writable(path: str):
    """Fail before any computation if the --out path cannot be written.

    Opening for append creates no content and truncates nothing; a file the
    probe created is removed again.
    """
    existed = os.path.lexists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc.strerror}") from None
    if not existed:
        os.remove(path)


def _emit(payload, pretty: bool, out: str | None, render=None):
    text = json.dumps(payload, indent=2 if pretty else None, sort_keys=False)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write {out!r}: {exc.strerror}") from None
    if pretty and render is not None:
        print(render(payload))
        return
    print(text)


def _render_verify(reports: list[dict]) -> str:
    lines = []
    for rep in reports:
        n_ok = sum(1 for d in rep["details"] if d["ok"])
        lines.append(
            f"{rep['theorem']}: {rep['status'].upper()} "
            f"({n_ok}/{len(rep['details'])} cases, {rep['elapsed_ms']} ms)"
        )
        for d in rep["details"]:
            if not d["ok"]:
                lines.append(f"  FAIL {d['case']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.out:
            _check_writable(args.out)
        code, payload = args.run(args)
        try:
            _emit(payload, args.pretty, args.out, args.render)
        except BrokenPipeError:
            # the reader closed stdout; point it at devnull so the final flush is quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 141
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RecursionError, AssertionError) as exc:
        # a broken invariant inside the library, not a failed verification
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
