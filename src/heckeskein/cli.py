"""Command-line interface: computations and theorem verification.

Structured JSON goes to stdout (stable term ordering, so output is
deterministic for fixed inputs); diagnostics go to stderr.  Exit codes:
0 success / all checks pass, 1 verification failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass, field

from . import repn, symfun, trace
from .coeff import Scalar, quantum_int, s_pow, v_pow, z
from .hecke import (
    HeckeElt,
    a_sym,
    b_sym,
    e_idem,
    gamma_elt,
    h_idem,
    murphy_M,
    murphy_T,
    phi_s,
    power_sum_T,
    t_circle,
    word_elt,
)
from .perm import all_perms
from .psi import build_element, parse_factors, psi as psi_map, verify_murphy_series
from .series import TruncSeries
from .symfun import SymFunc, closed_braid_A, complete, power_sum

MAX_N = 6
MAX_DEGREE = 8
MAX_STRANDS = 8
DEFAULT_N = 4
DEFAULT_DEGREE = 4


@dataclass
class VerifyReport:
    theorem: str
    params: dict
    status: str = "pass"
    details: list = field(default_factory=list)
    elapsed_ms: int = 0

    def record(self, case: str, ok: bool):
        self.details.append({"case": case, "ok": bool(ok)})
        if not ok:
            self.status = "fail"

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "params": self.params,
            "status": self.status,
            "details": self.details,
            "elapsed_ms": self.elapsed_ms,
        }


# ---------------------------------------------------------------------------
# Theorem checks.  Each takes (n, degree) bounds and returns a VerifyReport.
# ---------------------------------------------------------------------------


def _check_murphy_linear(n: int, degree: int) -> VerifyReport:
    rep = VerifyReport("murphy-linear", {"n": n})
    zz = z()
    for m in range(2, n + 1):
        for j in range(2, m + 1):
            ok = murphy_T(j, m) == HeckeElt.identity(m) + murphy_M(j, m).scale(zz)
            rep.record(f"T({j}) = 1 + z M({j}) in H_{m}", ok)
    return rep


def _check_murphy_commute(n: int, degree: int) -> VerifyReport:
    rep = VerifyReport("murphy-commute", {"n": n})
    for m in range(2, n + 1):
        ts = [murphy_T(j, m) for j in range(1, m + 1)]
        for a in range(m):
            for b in range(a + 1, m):
                rep.record(
                    f"T({a+1})T({b+1}) = T({b+1})T({a+1}) in H_{m}",
                    ts[a] * ts[b] == ts[b] * ts[a],
                )
    return rep


def _check_murphy_sum_central(n: int, degree: int) -> VerifyReport:
    rep = VerifyReport("murphy-sum-central", {"n": n, "degree": degree})
    from .coeff import delta

    zz_v = z() * v_pow(-1)
    for m in range(1, n + 1):
        tc = t_circle(m)
        prev = t_circle(m - 1).include(m) if m > 1 else HeckeElt.scalar(1, delta())
        rep.record(
            f"T^({m}) = T^({m-1}) + z v^-1 T({m})",
            tc == prev + murphy_T(m, m).scale(zz_v),
        )
        rep.record(f"T^({m}) central in H_{m}", tc.is_central())
    for m in range(1, n + 1):
        for p in range(1, min(degree, 4) + 1):
            rep.record(
                f"sum T(j)^{p} central in H_{m}", power_sum_T(p, m).is_central()
            )
    return rep


def _check_phi_distinct(n: int, degree: int) -> VerifyReport:
    rep = VerifyReport("phi-distinct", {"n": n})
    tc = t_circle(n)
    values = []
    for lam in repn.partitions_of(n):
        values.append((lam, repn.central_scalar(tc, lam)))
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            rep.record(
                f"t_{list(values[i][0])} != t_{list(values[j][0])}",
                values[i][1] != values[j][1],
            )
    rep.params["eigenvalues"] = [
        {"partition": list(lam), "value": val.to_json()} for lam, val in values
    ]
    return rep


def _check_row_idem(n: int, degree: int) -> VerifyReport:
    rep = VerifyReport("row-idem", {"n": n})
    ss = s_pow(1)
    neg_s_inv = -s_pow(-1)
    for m in range(1, n + 1):
        a_m = a_sym(m)
        b_m = b_sym(m)
        for i in range(1, m):
            si = word_elt(m, [i])
            rep.record(f"a_{m} sigma_{i} = s a_{m}", a_m * si == a_m.scale(ss))
            rep.record(f"sigma_{i} a_{m} = s a_{m}", si * a_m == a_m.scale(ss))
            rep.record(
                f"b_{m} sigma_{i} = -s^-1 b_{m}", b_m * si == b_m.scale(neg_s_inv)
            )
        rep.record(f"a_{m}^2 = phi_s(a_{m}) a_{m}", a_m * a_m == a_m.scale(phi_s(a_m)))
        if m > 1:
            rep.record(
                f"a_{m} = a_{m-1} gamma_{m}",
                a_m == a_sym(m - 1).include(m) * gamma_elt(m),
            )
        h_m = h_idem(m)
        e_m = e_idem(m)
        rep.record(f"h_{m}^2 = h_{m}", h_m * h_m == h_m)
        rep.record(f"e_{m}^2 = e_{m}", e_m * e_m == e_m)
        if m > 1:
            rep.record(
                f"s^{m-1}[{m}] h_{m} = h_{m-1} gamma_{m}",
                h_m.scale(s_pow(m - 1) * quantum_int(m))
                == h_idem(m - 1).include(m) * gamma_elt(m),
            )
    return rep


def _check_eh_inverse(n: int, degree: int) -> VerifyReport:
    rep = VerifyReport("eh-inverse", {"degree": degree})
    H = symfun.complete_series(degree)
    E = symfun.elementary_series(degree)
    E_neg = TruncSeries(
        [c.scale(Scalar.from_int((-1) ** k)) for k, c in enumerate(E.coeffs)]
    )
    prod = E_neg * H
    one = TruncSeries.one(SymFunc.one(), degree)
    for k in range(degree + 1):
        rep.record(f"[t^{k}] E(-t)H(t) = [t^{k}] 1", prod.coeffs[k] == one.coeffs[k])
    return rep


def _check_ah(n: int, degree: int) -> VerifyReport:
    rep = VerifyReport("ah", {"degree": degree})
    for m in range(1, degree + 1):
        gen_side = closed_braid_A(m)
        oracle = repn.closure(word_elt(m, list(range(m - 1, 0, -1))))
        rep.record(f"A_{m} = closure(sigma_{{{m-1}}}...sigma_1)", gen_side == oracle)
    return rep


def _check_ah_mirror_inverse(n: int, degree: int) -> VerifyReport:
    rep = VerifyReport("ah-mirror-inverse", {"degree": degree})
    zz = z()
    one = SymFunc.one()
    a_coeffs = [one] + [closed_braid_A(m).scale(zz) for m in range(1, degree + 1)]
    abar_coeffs = [one]
    for m in range(1, degree + 1):
        neg = repn.closure(word_elt(m, list(range(-(m - 1), 0))))
        rep.record(
            f"Abar_{m} = mirror(A_{m})", neg == closed_braid_A(m).mirror()
        )
        abar_coeffs.append(neg.scale(-zz))
    prod = TruncSeries(a_coeffs) * TruncSeries(abar_coeffs)
    unit = TruncSeries.one(one, degree)
    for k in range(degree + 1):
        rep.record(f"[t^{k}] A(t)Abar(t) = [t^{k}] 1", prod.coeffs[k] == unit.coeffs[k])
    return rep


def _check_mirror_h(n: int, degree: int) -> VerifyReport:
    rep = VerifyReport("mirror-h", {"n": n})
    for m in range(1, n + 1):
        h_m = h_idem(m)
        rep.record(f"mirror(h_{m}) = h_{m}", h_m.mirror() == h_m)
    return rep


def _check_closure_consistency(n: int, degree: int) -> VerifyReport:
    rep = VerifyReport("closure-consistency", {"n": n, "samples": 25})
    rng = random.Random(20020521)
    for m in range(1, n + 1):
        perms = list(all_perms(m))
        for t in range(25):
            x = _random_elt(rng, m, perms)
            y = _random_elt(rng, m, perms)
            ok1 = trace.markov_ev(x * y) == trace.markov_ev(y * x)
            ok2 = trace.markov_ev(x) == trace.ev_sym(repn.closure(x))
            rep.record(f"trace(xy)=trace(yx) H_{m} sample {t}", ok1)
            rep.record(f"trace = ev(closure) H_{m} sample {t}", ok2)
    return rep


def _random_elt(rng: random.Random, n: int, perms) -> HeckeElt:
    out = HeckeElt(n)
    for _ in range(rng.randint(1, 3)):
        p = perms[rng.randrange(len(perms))]
        c = Scalar.monomial(rng.randint(-3, 3), rng.randint(-1, 1), rng.randint(-2, 2))
        if not c.is_zero():
            out = out + HeckeElt(n, {p: c})
    return out


def _check_power(n: int, degree: int) -> VerifyReport:
    rep = VerifyReport("power", {"n": n, "degree": degree})
    for m in range(1, n + 1):
        rep.record(
            f"psi({m}, h_1) = T^({m})", psi_map(m, complete(1)) == t_circle(m)
        )
    for m in range(1, n + 1):
        for p in range(1, min(degree, 4) + 1):
            lhs = psi_map(m, power_sum(p)) - psi_map(m - 1, power_sum(p)).include(m)
            tm = murphy_T(m, m)
            tp = tm
            for _ in range(p - 1):
                tp = tp * tm
            rhs = tp.scale((s_pow(p) - s_pow(-p)) * v_pow(-p))
            rep.record(f"telescoping m={p}, n={m}", lhs == rhs)
    return rep


def _check_murphy_series(n: int, degree: int) -> VerifyReport:
    rep = VerifyReport("murphy-series", {"n": n, "degree": degree})
    for m in range(1, n + 1):
        ok, sub = verify_murphy_series(m, degree)
        for k, good in enumerate(sub["degree_ok"]):
            rep.record(f"n={m} degree {k}", good)
    return rep


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
    worst = 0
    for name in names:
        t0 = time.monotonic()
        rep = CHECKS[name](n, degree)
        rep.elapsed_ms = int((time.monotonic() - t0) * 1000)
        reports.append(rep.to_json())
        if rep.status != "pass":
            worst = 1
    return worst, reports


# ---------------------------------------------------------------------------
# Computation commands.
# ---------------------------------------------------------------------------


def parse_word(text: str) -> list[int]:
    out = []
    for token in text.split():
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
    return repn.closure(word_elt(strands, word)).to_json(basis="schur")


def cmd_characters(n: int) -> list[dict]:
    out = []
    for lam in repn.partitions_of(n):
        values = {}
        for p in all_perms(n):
            key = ",".join(str(i) for i in p.images)
            values[key] = repn.character(HeckeElt.basis(p), lam).to_json()
        out.append({"lambda": list(lam), "values": values})
    return out


def cmd_psi(n: int, elem: str) -> dict:
    f = _parse_bounded_element(elem)
    return psi_map(n, f).to_json()


def cmd_eval(elem: str) -> dict:
    f = _parse_bounded_element(elem)
    return trace.ev_sym(f).to_json()


def _parse_bounded_element(elem: str) -> SymFunc:
    # bound the degree before building: e5000 alone would run for minutes
    factors = parse_factors(elem)
    top = sum(degree for _, _, degree in factors)
    if top > MAX_DEGREE:
        raise UsageError(f"element degree {top} exceeds the bound {MAX_DEGREE}")
    return build_element(factors)


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
    parser = argparse.ArgumentParser(
        prog="heckeskein",
        description="Exact Hecke-algebra and annulus-skein computations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a theorem identity exactly")
    p.add_argument("theorem", help=f"one of: {', '.join(sorted(CHECKS))}, all")
    p.add_argument("--n", type=int, default=DEFAULT_N)
    p.add_argument("--degree", type=int, default=DEFAULT_DEGREE)
    _common_flags(p)

    p = sub.add_parser("homfly", help="HOMFLY polynomial of a closed braid")
    p.add_argument("--strands", type=int, required=True)
    p.add_argument("--word", type=str, required=True)
    _common_flags(p)

    p = sub.add_parser("closure", help="annulus closure of a braid word")
    p.add_argument("--strands", type=int, required=True)
    p.add_argument("--word", type=str, required=True)
    _common_flags(p)

    p = sub.add_parser("characters", help="character table of H_n")
    p.add_argument("--n", type=int, required=True)
    _common_flags(p)

    p = sub.add_parser("psi", help="image of an annulus element in Z(H_n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--elem", type=str, required=True)
    _common_flags(p)

    p = sub.add_parser("eval", help="plane evaluation of an annulus element")
    p.add_argument("--elem", type=str, required=True)
    _common_flags(p)

    return parser


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--pretty", action="store_true", help="human-readable rendering")
    p.add_argument("--out", type=str, default=None, help="write JSON to a file")


def _emit(payload, pretty: bool, out: str | None, render=None):
    text = json.dumps(payload, indent=2 if pretty else None, sort_keys=False)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "verify":
            n = _bounded(args.n, "--n", 1, MAX_N)
            degree = _bounded(args.degree, "--degree", 0, MAX_DEGREE)
            code, reports = cmd_verify(args.theorem, n, degree)
            _emit(reports, args.pretty, args.out, _render_verify)
            return code
        if args.command == "homfly":
            strands = _bounded(args.strands, "--strands", 1, MAX_STRANDS)
            payload = cmd_homfly(strands, parse_word(args.word))
            _emit(payload, args.pretty, args.out)
            return 0
        if args.command == "closure":
            strands = _bounded(args.strands, "--strands", 1, MAX_N)
            payload = cmd_closure(strands, parse_word(args.word))
            _emit(payload, args.pretty, args.out)
            return 0
        if args.command == "characters":
            n = _bounded(args.n, "--n", 1, MAX_N)
            payload = cmd_characters(n)
            _emit(payload, args.pretty, args.out)
            return 0
        if args.command == "psi":
            n = _bounded(args.n, "--n", 0, MAX_N)
            payload = cmd_psi(n, args.elem)
            _emit(payload, args.pretty, args.out)
            return 0
        if args.command == "eval":
            payload = cmd_eval(args.elem)
            _emit(payload, args.pretty, args.out)
            return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable command")


if __name__ == "__main__":
    raise SystemExit(main())
