import math
import random

import pytest

from heckeskein import cli, symfun
from heckeskein.coeff import ONE, IntLaurent, Scalar, delta, quantum_int, s_pow, v_pow, z
from heckeskein.hecke import (
    HeckeElt,
    h_idem,
    murphy_T,
    power_sum_T,
    t_circle,
    word_elt,
)
from heckeskein.perm import Perm, all_perms, right_gen
from heckeskein.repn import (
    central_scalar,
    character,
    closure,
    closure_schur,
    partitions_of,
    rep_of,
    rho,
    std_tableaux,
)
from heckeskein.psi import psi
from heckeskein.repn import _class_character, _class_poly
from heckeskein.symfun import (
    SymFunc,
    closed_braid_A,
    complete,
    elementary,
    power_sum,
    schur,
    to_p,
    to_schur,
)
from oracles import (
    content_of,
    coxeter_rep,
    mat_identity,
    mat_mul,
    memo_clear,
    seminormal_character,
)


def rand_elt(rng, n, terms=3):
    out = HeckeElt(n)
    perms = list(all_perms(n))
    for _ in range(terms):
        p = perms[rng.randrange(len(perms))]
        c = Scalar.monomial(rng.randint(-3, 3), rng.randint(-1, 1), rng.randint(-2, 2))
        if not c.is_zero():
            out = out + HeckeElt(n, {p: c})
    return out


def test_tableau_counts():
    assert len(std_tableaux((5,))) == 1
    assert len(std_tableaux((1, 1, 1))) == 1
    assert len(std_tableaux((2, 1))) == 2
    assert len(std_tableaux((2, 2))) == 2
    assert len(std_tableaux((3, 2))) == 5


def test_sum_of_squares():
    for n in range(0, 9):
        total = sum(len(std_tableaux(lam)) ** 2 for lam in partitions_of(n))
        assert total == math.factorial(n)


def test_rho_one_dimensional():
    assert rho((2,), 1) == [{0: s_pow(1)}]
    assert rho((1, 1), 1) == [{0: -s_pow(-1)}]


def test_rho_relations():
    zz = z()
    for n in range(2, 6):
        for lam in partitions_of(n):
            gens = [rho(lam, i) for i in range(1, n)]
            dim = len(std_tableaux(lam))
            for i in range(n - 1):
                g = gens[i]
                sq = mat_mul(g, g)
                expected = [
                    {k: v * zz for k, v in row.items()} for row in g
                ]
                for r in range(dim):
                    val = expected[r].get(r, Scalar.from_int(0)) + ONE
                    if val.is_zero():
                        expected[r].pop(r, None)
                    else:
                        expected[r][r] = val
                assert sq == expected
            for i in range(n - 2):
                lhs = mat_mul(mat_mul(gens[i], gens[i + 1]), gens[i])
                rhs = mat_mul(mat_mul(gens[i + 1], gens[i]), gens[i + 1])
                assert lhs == rhs
            for i in range(n - 1):
                for j in range(i + 2, n - 1):
                    assert mat_mul(gens[i], gens[j]) == mat_mul(gens[j], gens[i])


def test_rho_bad_index():
    with pytest.raises(ValueError):
        rho((2, 1), 3)


def test_rep_of_identity():
    for n in range(1, 5):
        for lam in partitions_of(n):
            assert rep_of(HeckeElt.identity(n), lam) == mat_identity(
                len(std_tableaux(lam))
            )


def test_murphy_diagonality():
    """rep_of(T(j)) diagonal with eigenvalue s^(2*content of the cell of j)."""
    for n in range(1, 6):
        for lam in partitions_of(n):
            tabs = std_tableaux(lam)
            for j in range(1, n + 1):
                m = rep_of(murphy_T(j, n), lam)
                for k, t in enumerate(tabs):
                    assert set(m[k]) == {k}
                    assert m[k][k] == s_pow(2 * content_of(t, j))


def test_rep_of_idempotent():
    for n in range(1, 5):
        h = h_idem(n)
        assert rep_of(h, (n,)) == [{0: ONE}]
        for lam in partitions_of(n):
            if lam != (n,):
                assert all(not row for row in rep_of(h, lam))


def test_characters():
    assert character(HeckeElt.identity(3), (2, 1)) == Scalar.from_int(2)
    assert character(word_elt(2, [1]), (2,)) == s_pow(1)
    assert character(word_elt(2, [1]), (1, 1)) == -s_pow(-1)
    for n in range(1, 5):
        for lam in partitions_of(n):
            f_lam = len(std_tableaux(lam))
            assert character(HeckeElt.identity(n), lam) == Scalar.from_int(f_lam)


def test_characters_match_the_seminormal_oracle():
    # every basis braid for |lambda| <= 5, and a seeded sample at n = 6
    pairs = [(lam, p.images) for n in range(6) for lam in partitions_of(n)
             for p in all_perms(n)]
    rng = random.Random(606)
    shapes, perms = list(partitions_of(6)), list(all_perms(6))
    pairs += [(rng.choice(shapes), rng.choice(perms).images) for _ in range(40)]
    for lam, images in pairs:
        assert character(HeckeElt.basis(Perm(images)), lam) == seminormal_character(
            lam, images
        )


def test_closure_of_a_minimal_braid_is_the_product_of_A():
    # w_mu is the product of its blocks' Coxeter elements sigma_{m-1}...sigma_1
    for m in range(1, 7):
        for mu in partitions_of(m):
            expected = SymFunc.one()
            for part in mu:
                expected = expected * closed_braid_A(part)
            assert closure(HeckeElt.basis(Perm(coxeter_rep(mu)))) == expected


def test_ram_rule_matches_the_seminormal_oracle():
    one = IntLaurent.from_int(1)
    for n in range(8):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert Scalar(_class_character(lam, mu), one) == seminormal_character(
                    lam, coxeter_rep(mu)
                )


def test_ram_rule_at_s_1_is_the_frobenius_character():
    # at s = 1, H_n is the group algebra, and chi_lambda(mu) is z_mu times
    # the coefficient of p_mu in s_lambda
    for n in range(7):
        for lam in partitions_of(n):
            coords = to_p(schur(lam))
            for mu in partitions_of(n):
                z_mu = math.prod(
                    part ** mu.count(part) * math.factorial(mu.count(part))
                    for part in set(mu)
                )
                at_one = sum(_class_character(lam, mu).terms.values())
                expected = coords.get(mu, Scalar.from_int(0)).int_mul(z_mu)
                assert Scalar.from_int(at_one) == expected


def test_ram_rule_on_the_identity_counts_tableaux():
    for n in range(9):
        for lam in partitions_of(n):
            assert _class_character(lam, (1,) * n) == IntLaurent.from_int(
                len(std_tableaux(lam))
            )


def test_class_poly_of_a_minimal_braid_is_its_class():
    for n in range(7):
        for mu in partitions_of(n):
            assert _class_poly(coxeter_rep(mu)) == {mu: IntLaurent.from_int(1)}
    # w_321 = sigma_1 sigma_2 sigma_1 = sigma_1 w_{s_2} sigma_1, so its class
    # polynomial is f_{s_2} + z f_{s_2 s_1}: a transposition plus z a 3-cycle
    zz = z().num
    assert _class_poly((3, 2, 1)) == {(2, 1): IntLaurent.from_int(1), (3,): zz}


def test_class_poly_search_that_stops_short_raises(monkeypatch):
    from heckeskein import repn

    # with s_i p s_i replaced by p itself, the search never finds a shorter
    # conjugate; a minimal braid passes and a longer one is caught
    monkeypatch.setattr(repn, "left_gen", lambda images, i: right_gen(images, i))
    assert repn._class_poly.__wrapped__((2, 1, 3)) == {(2, 1): IntLaurent.from_int(1)}
    with pytest.raises(ArithmeticError):
        repn._class_poly.__wrapped__((3, 2, 1))


def test_character_trace_property():
    rng = random.Random(23)
    for n in range(2, 5):
        for _ in range(8):
            x, y = rand_elt(rng, n), rand_elt(rng, n)
            for lam in partitions_of(n):
                assert character(x * y, lam) == character(y * x, lam)


def test_closure_examples():
    for n in range(1, 5):
        expected = SymFunc.one()
        for _ in range(n):
            expected = expected * complete(1)
        assert closure(HeckeElt.identity(n)) == expected
    assert closure(word_elt(2, [1])) == schur((2,)).scale(s_pow(1)) - schur(
        (1, 1)
    ).scale(s_pow(-1))
    for n in range(1, 5):
        assert closure(h_idem(n)) == schur((n,))


def test_closure_trace_property():
    rng = random.Random(29)
    for n in range(2, 5):
        for _ in range(6):
            x, y = rand_elt(rng, n), rand_elt(rng, n)
            assert closure(x * y) == closure(y * x)


def rand_word(rng, n):
    if n < 2:
        return []
    length = rng.randint(0, 2 * n)
    return [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)]


def test_closure_schur_is_schur_expansion_of_closure():
    rng = random.Random(4711)
    for n in range(1, 6):
        for _ in range(5):
            x = word_elt(n, rand_word(rng, n))
            assert closure_schur(x) == to_schur(closure(x))
    # coefficients with denominators: delta, 1/[2] and their products
    factors = [delta(), delta().inv(), quantum_int(2).inv(), z(),
               Scalar.from_fraction(1, 2)]
    for n in range(1, 5):
        perms = list(all_perms(n))
        for _ in range(4):
            x = HeckeElt(n)
            for _ in range(3):
                c = rng.choice(factors) * rng.choice(factors)
                x = x + HeckeElt(n, {perms[rng.randrange(len(perms))]: c})
            assert closure_schur(x) == to_schur(closure(x))


def test_closure_schur_omits_zero_coordinates():
    # the closure of sigma_1 sigma_2 sigma_1 has no s_(2,1) term
    cs = closure_schur(word_elt(3, [1, 2, 1]))
    assert set(cs) == {(3,), (1, 1, 1)}
    assert cs[(3,)] == s_pow(3)
    assert cs[(1, 1, 1)] == -s_pow(-3)


def test_cmd_closure_needs_no_schur_elimination(monkeypatch):
    words = {3: [1, 2, 1], 4: [1, -2, 3, 1], 5: [1, -2, 3, -4, 2, 1]}
    expected = {n: symfun.basis_json("schur", to_schur(closure(word_elt(n, w))))
                for n, w in words.items()}

    def forbidden(f):
        raise AssertionError("to_schur called")

    monkeypatch.setattr(symfun, "to_schur", forbidden)
    for n, w in words.items():
        assert cli.cmd_closure(n, w) == expected[n]


def test_central_scalar():
    for n in range(1, 5):
        for lam in partitions_of(n):
            assert central_scalar(HeckeElt.identity(n), lam) == ONE
    with pytest.raises(ValueError):
        central_scalar(word_elt(3, [1]), (2, 1))


def test_central_scalar_is_the_diagonal_of_rep_of():
    elems = [complete(2), elementary(2) * power_sum(1), schur((2, 1)), power_sum(3)]
    for n in range(1, 5):
        for x in [t_circle(n)] + [psi(n, f) for f in elems]:
            for lam in partitions_of(n):
                c = central_scalar(x, lam)
                dim = len(std_tableaux(lam))
                assert rep_of(x, lam) == [{k: c} if c else {} for k in range(dim)]


def test_characters_and_central_scalars_need_no_matrix(monkeypatch):
    from heckeskein import repn

    words = {3: [1, 2, 1], 4: [1, -2, 3, 1], 5: [1, -2, 3, -4, 2, 1]}
    ns = range(1, 6)
    expected = (
        [cli.cmd_characters(n) for n in ns],
        [closure_schur(word_elt(n, w)) for n, w in words.items()],
        [central_scalar(t_circle(n), lam) for n in ns for lam in partitions_of(n)],
    )

    def forbidden(parts, i):
        raise AssertionError("rho called")

    memo_clear()
    monkeypatch.setattr(repn, "rho", forbidden)
    assert (
        [cli.cmd_characters(n) for n in ns],
        [closure_schur(word_elt(n, w)) for n, w in words.items()],
        [central_scalar(t_circle(n), lam) for n in ns for lam in partitions_of(n)],
    ) == expected


def test_t_lambda_closed_form_and_distinct():
    d, zz = delta(), z()
    for n in range(1, 7):
        tc = t_circle(n)
        values = []
        for lam in partitions_of(n):
            t_lam = central_scalar(tc, lam)
            acc = Scalar.from_int(0)
            for r, part in enumerate(lam):
                for c in range(part):
                    acc = acc + s_pow(2 * (c - r))
            assert t_lam == d + zz * v_pow(-1) * acc
            values.append(t_lam)
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                assert values[i] != values[j]


def test_power_sum_eigenvalues():
    for n in range(1, 5):
        for m in range(1, 4):
            ps = power_sum_T(m, n)
            for lam in partitions_of(n):
                tab = std_tableaux(lam)[0]
                acc = Scalar.from_int(0)
                for j in range(1, n + 1):
                    acc = acc + s_pow(2 * m * content_of(tab, j))
                assert central_scalar(ps, lam) == acc
