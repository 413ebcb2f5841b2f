"""In-memory span tracer wrapped around heckeskein's public entry points.

The tracer changes no library file.  It replaces each entry point listed in
ENTRY_POINTS by a timing wrapper, rebinding the original object by identity
in every loaded ``heckeskein.*`` module and in the package namespace, so
that aliases such as ``from .coeff import poly_gcd`` in ``hecke`` and
``psi as psi_map`` in ``cli`` are caught too.  Methods are replaced on
their class, and the theorem checks in ``cli.CHECKS`` in that dict.

Spans are folded into per-name totals as they close, so memory stays flat
however many calls a workload makes.  A span's self time is its duration
minus the time covered by the spans it directly caused.  A call that
re-enters the same span name from inside itself (``IntLaurent.__mul__``
swapping its operands, ``Scalar.__truediv__`` calling ``Scalar.__mul__``)
is part of the outer span, so ``calls`` counts operations a caller asked
for.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

GCD_PATHS = ("trivial", "univariate", "bivariate")


def _strip(p):
    """p divided by its lowest monomial, using only public IntLaurent methods."""
    mv, ms = p.min_exponents()
    return p.shift(-mv, -ms)


def gcd_path(f, g) -> str:
    """The branch of ``coeff.poly_gcd`` that a call takes, judged from outside.

    It mirrors the order of the tests in ``poly_gcd``: zero or monomial
    inputs and inputs in disjoint variables are "trivial"; inputs that both
    lie in Z[s] or both in Z[v] take the univariate PRS; anything else takes
    the bivariate PRS.
    """
    if f.is_zero() or g.is_zero():
        return "trivial"
    f0, g0 = _strip(f), _strip(g)
    if f0.is_monomial() or g0.is_monomial():
        return "trivial"
    fv, fs, gv, gs = f0.uses_v(), f0.uses_s(), g0.uses_v(), g0.uses_s()
    if {(fv, fs), (gv, gs)} == {(True, False), (False, True)}:
        return "trivial"
    if not (fv or gv) or not (fs or gs):
        return "univariate"
    return "bivariate"


# Keys of the counts that _laurent_terms and _hecke_terms add up.
COUNTS = ("coeff.laurent_mul.term_products", "hecke.mul.term_pairs", "hecke.mul.terms_out")


def _laurent_terms(args, out):
    return {"term_products": len(args[0].terms) * len(args[1].terms)}


def _hecke_terms(args, out):
    return {
        "term_pairs": len(args[0].terms) * len(args[1].terms),
        "terms_out": len(out.terms),
    }


# (span name, module, attribute path, counter).  The span name of poly_gcd
# depends on its arguments.  A counter maps (args, result) to extra counts.
ENTRY_POINTS = [
    ("coeff.laurent_mul", "coeff", "IntLaurent.__mul__", _laurent_terms),
    (lambda f, g: "coeff.gcd." + gcd_path(f, g), "coeff", "poly_gcd", None),
    ("coeff.divexact", "coeff", "laurent_divexact", None),
    ("coeff.scalar", "coeff", "Scalar.__add__", None),
    ("coeff.scalar", "coeff", "Scalar.__sub__", None),
    ("coeff.scalar", "coeff", "Scalar.__mul__", None),
    ("coeff.scalar", "coeff", "Scalar.__truediv__", None),
    ("coeff.scalar", "coeff", "Scalar.inv", None),
    ("coeff.scalar", "coeff", "Scalar.__pow__", None),
    ("perm.reduced_word", "perm", "reduced_word", None),
    ("perm.length", "perm", "length", None),
    ("perm.all_perms", "perm", "all_perms", None),
    ("hecke.mul", "hecke", "HeckeElt.__mul__", _hecke_terms),
    ("hecke.add", "hecke", "HeckeElt.__add__", None),
    ("hecke.add", "hecke", "HeckeElt.__sub__", None),
    ("hecke.scale", "hecke", "HeckeElt.scale", None),
    ("hecke.include", "hecke", "HeckeElt.include", None),
    ("hecke.is_central", "hecke", "HeckeElt.is_central", None),
    ("hecke.mirror", "hecke", "HeckeElt.mirror", None),
    ("hecke.word", "hecke", "word_elt", None),
    ("hecke.murphy_T", "hecke", "murphy_T", None),
    ("hecke.murphy_M", "hecke", "murphy_M", None),
    ("hecke.t_circle", "hecke", "t_circle", None),
    ("hecke.gamma_elt", "hecke", "gamma_elt", None),
    ("hecke.a_sym", "hecke", "a_sym", None),
    ("hecke.b_sym", "hecke", "b_sym", None),
    ("hecke.phi_s", "hecke", "phi_s", None),
    ("hecke.h_idem", "hecke", "h_idem", None),
    ("hecke.e_idem", "hecke", "e_idem", None),
    ("hecke.power_sum_T", "hecke", "power_sum_T", None),
    ("hecke.murphy_series", "hecke", "murphy_series", None),
    ("repn.partitions_of", "repn", "partitions_of", None),
    ("repn.std_tableaux", "repn", "std_tableaux", None),
    ("repn.rho", "repn", "rho", None),
    ("repn.rep_of", "repn", "rep_of", None),
    ("repn.character", "repn", "character", None),
    ("repn.closure", "repn", "closure", None),
    ("repn.central_scalar", "repn", "central_scalar", None),
    ("trace.markov_ev", "trace", "markov_ev", None),
    ("trace.ev_sym", "trace", "ev_sym", None),
    ("trace.homfly", "trace", "homfly", None),
    ("series.mul", "series", "TruncSeries.__mul__", None),
    ("series.add", "series", "TruncSeries.__add__", None),
    ("series.inverse", "series", "TruncSeries.inverse", None),
    ("series.scale_t", "series", "TruncSeries.scale_t", None),
    ("series.log", "series", "TruncSeries.log", None),
    ("series.geometric", "series", "geometric", None),
    ("symfun.mul", "symfun", "SymFunc.__mul__", None),
    ("symfun.add", "symfun", "SymFunc.__add__", None),
    ("symfun.scale", "symfun", "SymFunc.scale", None),
    ("symfun.mirror", "symfun", "SymFunc.mirror", None),
    ("symfun.complete", "symfun", "complete", None),
    ("symfun.elementary", "symfun", "elementary", None),
    ("symfun.power_sum", "symfun", "power_sum", None),
    ("symfun.schur", "symfun", "schur", None),
    ("symfun.to_p", "symfun", "to_p", None),
    ("symfun.to_schur", "symfun", "to_schur", None),
    ("symfun.complete_series", "symfun", "complete_series", None),
    ("symfun.elementary_series", "symfun", "elementary_series", None),
    ("symfun.closed_braid_A", "symfun", "closed_braid_A", None),
    ("psi.psi", "psi", "psi", None),
    ("psi.verify_murphy_series", "psi", "verify_murphy_series", None),
    ("cli.cmd_verify", "cli", "cmd_verify", None),
    ("cli.cmd_homfly", "cli", "cmd_homfly", None),
    ("cli.cmd_closure", "cli", "cmd_closure", None),
]


class Tracer:
    """Per-span-name totals: calls, total seconds, self seconds and counts."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span name, seconds covered by children]
        self._undo: list = []
        self.theorems: list[str] = []

    def wrap(self, name, fn, counter=None):
        """A function that runs fn inside a span; name may be a classifier."""
        if inspect.isgeneratorfunction(fn):
            # Time the iteration too: the caller gets the same items, eagerly.
            lazy = fn

            def fn(*args, **kwargs):
                return iter(list(lazy(*args, **kwargs)))

        stack, clock = self._stack, time.perf_counter
        calls, total_s, self_s, counts = self.calls, self.total_s, self.self_s, self.counts

        def traced(*args, **kwargs):
            span = name if isinstance(name, str) else name(*args)
            if stack and stack[-1][0] == span:
                return fn(*args, **kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[span] += 1
                total_s[span] += elapsed
                self_s[span] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if counter is not None:
                for key, value in counter(args, out).items():
                    counts[f"{span}.{key}"] += value
            return out

        return traced

    def install(self):
        """Wrap every entry point and theorem check; undo with uninstall()."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "heckeskein"]
        for name, mod_name, path, counter in ENTRY_POINTS:
            owner = sys.modules[f"heckeskein.{mod_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self.wrap(name, original, counter)
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper)
            else:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, wrapper)
        checks = sys.modules["heckeskein.cli"].CHECKS
        self.theorems = sorted(checks)
        for theorem, check in list(checks.items()):
            checks[theorem] = self.wrap(f"cli.check.{theorem}", check)
            self._undo.append(lambda t=theorem, c=check: checks.__setitem__(t, c))

    def _rebind(self, owner, attr, value):
        original = getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def layer_metrics(self) -> dict[str, float]:
        """Every span's calls, self_s and wall_s (its total), each layer's
        self_s, the counts, and perm.calls; spans never entered read 0."""
        spans = {name for name, *_ in ENTRY_POINTS if isinstance(name, str)}
        spans |= {f"coeff.gcd.{path}" for path in GCD_PATHS}
        spans |= {f"cli.check.{theorem}" for theorem in self.theorems}
        out: dict[str, float] = dict.fromkeys(COUNTS, 0)
        out.update(self.counts)
        for span in spans:
            out[f"{span}.calls"] = self.calls.get(span, 0)
            out[f"{span}.self_s"] = self.self_s.get(span, 0.0)
            out[f"{span}.wall_s"] = self.total_s.get(span, 0.0)
        for layer in {span.split(".")[0] for span in spans}:
            out[f"{layer}.self_s"] = sum(
                out[f"{span}.self_s"] for span in spans if span.split(".")[0] == layer)
        out["perm.calls"] = sum(out[f"{span}.calls"] for span in spans if span.startswith("perm."))
        return out
