"""Exact Hecke-algebra, Murphy-operator, and annulus-skein computations.

The package realizes the braid-basis model of the type-A Hecke algebras,
the symmetric-function model of the annulus skein, the maps between them,
and framed HOMFLY polynomials of closed braids, all over an exact rational
function field in v and s.
"""

from .coeff import IntLaurent, Scalar, delta, quantum_int, s_pow, v_pow, z
from .hecke import (
    HeckeElt,
    a_sym,
    b_sym,
    e_idem,
    gamma_elt,
    h_idem,
    lincomb,
    murphy_M,
    murphy_series,
    murphy_T,
    phi_s,
    power_sum_T,
    t_circle,
    word_elt,
)
from .perm import Perm, all_perms, coset_decompose, length, reduced_word, transposition
from .psi import parse_element, psi, psi_eigen_check, verify_murphy_series
from .repn import (
    central_scalar,
    character,
    closure,
    closure_schur,
    partitions_of,
    rep_of,
    rho,
    std_tableaux,
)
from .series import TruncSeries, geometric
from .symfun import (
    SymFunc,
    closed_braid_A,
    complete,
    elementary,
    from_p,
    from_schur,
    power_sum,
    schur,
    to_p,
    to_schur,
)
from .trace import ev_sym, homfly, markov_ev

__version__ = "0.1.0"

__all__ = [
    "IntLaurent", "Scalar", "delta", "quantum_int", "s_pow", "v_pow", "z",
    "HeckeElt", "a_sym", "b_sym", "e_idem", "gamma_elt",
    "h_idem", "lincomb", "murphy_M", "murphy_series", "murphy_T",
    "phi_s", "power_sum_T", "t_circle", "word_elt",
    "Perm", "all_perms", "coset_decompose", "length", "reduced_word",
    "transposition",
    "parse_element", "psi", "psi_eigen_check", "verify_murphy_series",
    "central_scalar", "character", "closure", "closure_schur",
    "partitions_of",
    "rep_of", "rho", "std_tableaux",
    "TruncSeries", "geometric",
    "SymFunc", "closed_braid_A", "complete", "elementary", "from_p",
    "from_schur", "power_sum", "schur", "to_p", "to_schur",
    "ev_sym", "homfly", "markov_ev",
]
