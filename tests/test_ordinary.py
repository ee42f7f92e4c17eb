"""Ordinary cochains, coboundaries, grading and degree-2 cohomology."""

import random

import numpy as np
import pytest

from wittcoh.gfp import PrimeField
from wittcoh.ordinary import (
    Cochain1,
    bracket_delta2_value,
    c2_from_dict,
    c2_zero,
    delta1_cl,
    delta1_matrix,
    delta2_block,
    delta2_cl,
    delta2_matrix,
    dual_basis,
    graded_pair_positions,
    graded_triple_positions,
    pair_grade,
    triple_grade,
    triple_normalize,
    virasoro_cocycle,
    wedge_eval,
    wedge_normalize,
    wedge_pairs,
    wedge_triples,
)
from wittcoh.restricted import (
    cochain_complex,
    delta1_res_matrix,
    delta2_res_matrix,
    graded_component_kernel_dim,
    ordinary_cohomology_dims,
)
from wittcoh.witt import basis_element, normalize_index, random_element

F5 = PrimeField(5)
F7 = PrimeField(7)


def nonzero_terms(c):
    return {pair: v for pair, v in zip(wedge_pairs(c.field.p), c.values) if v}


def test_wedge_normalize():
    assert wedge_normalize(1, -1) == (-1, 1, -1)
    assert wedge_normalize(2, 3) == (2, 3, 1)
    assert wedge_normalize(2, 2) is None


def test_triple_normalize():
    assert triple_normalize(1, 2, 3) == ((1, 2, 3), 1)
    assert triple_normalize(2, 1, 3) == ((1, 2, 3), -1)
    assert triple_normalize(3, 1, 2) == ((1, 2, 3), 1)
    assert triple_normalize(1, 1, 2) is None


def test_basis_sizes():
    for p in (5, 7, 11):
        assert len(wedge_pairs(p)) == p * (p - 1) // 2
        assert len(wedge_triples(p)) == p * (p - 1) * (p - 2) // 6


def test_delta1_examples():
    d = delta1_cl(dual_basis(F5, 0))
    assert nonzero_terms(d) == {(-1, 1): 2, (2, 3): 1}

    d = delta1_cl(dual_basis(F7, 1))
    assert nonzero_terms(d) == {(-1, 2): 3, (0, 1): 1, (3, 5): 2}

    assert delta1_cl(Cochain1(F5, (0,) * 5)).is_zero()


@pytest.mark.parametrize("p", [5, 7, 11])
def test_delta1_agrees_with_bracket_definition(p):
    # (d1 psi)(e_i ^ e_j) = psi([e_i, e_j]) evaluated through the bracket
    field = PrimeField(p)
    rng = random.Random(0)
    psi = Cochain1(field, tuple(rng.randrange(p) for _ in range(p)))
    d = delta1_cl(psi)
    from wittcoh.witt import bracket

    for i, j in wedge_pairs(p):
        direct = psi.value(bracket(basis_element(field, i), basis_element(field, j)))
        assert d.value(i, j) == direct


def test_delta2_point_example():
    phi = c2_from_dict(F5, {(0, 1): 1})
    assert delta2_cl(phi).value(-1, 0, 2) == 3


def test_delta2_of_generator_vanishes_p5():
    phi = c2_from_dict(F5, {(-1, 1): 1})
    d = delta2_cl(phi)
    for r, s, t in wedge_triples(5):
        assert d.value(r, s, t) == 0


@pytest.mark.parametrize("p", [5, 7, 11])
def test_delta2_agrees_with_bracket_definition(p):
    field = PrimeField(p)
    rng = random.Random(1)
    phi = c2_from_dict(field, {pr: rng.randrange(p) for pr in wedge_pairs(p)})
    d = delta2_cl(phi)
    for _ in range(30):
        g, h, k = (random_element(field, rng) for _ in range(3))
        direct = bracket_delta2_value(phi, g, h, k)
        via_table = 0
        for r in g.support():
            for s in h.support():
                for t in k.support():
                    via_table += g.coeff(r) * h.coeff(s) * k.coeff(t) * d.value(r, s, t)
        assert direct == via_table % p


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_complex_property(p):
    field = PrimeField(p)
    prod = (delta2_matrix(field) @ delta1_matrix(field)) % p
    assert not prod.any()


@pytest.mark.parametrize("p", [5, 7, 11])
def test_matrices_match_functions(p):
    field = PrimeField(p)
    rng = random.Random(2)
    psi = Cochain1(field, tuple(rng.randrange(p) for _ in range(p)))
    d1 = delta1_matrix(field)
    assert (d1 @ np.array(psi.coeffs) % p == delta1_cl(psi).to_vector()).all()
    phi = c2_from_dict(field, {pr: rng.randrange(p) for pr in wedge_pairs(p)})
    d2 = delta2_matrix(field)
    assert (d2 @ phi.to_vector() % p == delta2_cl(phi).to_vector()).all()


@pytest.mark.parametrize("p", [5, 7, 11])
def test_grading_preserved(p):
    field = PrimeField(p)
    d1, d2 = delta1_matrix(field), delta2_matrix(field)
    for k in range(-1, p - 1):
        cols = graded_pair_positions(p, k)
        bad_rows = [r for r in range(d2.shape[0]) if triple_grade(p, wedge_triples(p)[r]) != k]
        assert not d2[np.ix_(bad_rows, cols)].any()
        bad_pairs = [r for r in range(d1.shape[0]) if pair_grade(p, wedge_pairs(p)[r]) != k]
        assert not d1[np.ix_(bad_pairs, [k + 1])].any()


def test_grading_check_names_the_first_leak_like_a_loop(monkeypatch):
    # verify's grading check reads the cached grade arrays; on matrices with
    # planted leaks it must name what a per-grade loop meets first: the
    # lowest leaking grade k, and within k a d2 leak before a d1 leak.
    from types import SimpleNamespace

    from wittcoh import verify

    p = 7
    field = PrimeField(p)
    pairs, triples = wedge_pairs(p), wedge_triples(p)

    def loop_detail(d1, d2):
        for k in range(-1, p - 1):
            rows = [r for r in range(len(triples)) if triple_grade(p, triples[r]) != k]
            if d2[np.ix_(rows, graded_pair_positions(p, k))].any():
                return f"d2 leaks out of grade {k}"
            rows = [r for r in range(len(pairs)) if pair_grade(p, pairs[r]) != k]
            if d1[rows, k + 1].any():
                return f"d1 leaks out of grade {k}"
        return ""

    def check_detail(d1, d2):
        monkeypatch.setattr(verify.res, "cochain_complex", lambda f: SimpleNamespace(d1=d1, d2=d2))
        result = next(c for c in verify._ordinary_checks(field) if c.name == "ordinary.grading_preserved")
        assert result.passed == (not result.detail)
        return result.detail

    rng = random.Random(3)
    details = set()
    for _ in range(30):
        d1, d2 = delta1_matrix(field), delta2_matrix(field)
        for _ in range(rng.randrange(3)):
            r, c = rng.randrange(len(triples)), rng.randrange(len(pairs))
            d2[r, c] = 0 if triple_grade(p, triples[r]) == pair_grade(p, pairs[c]) else 1
        for _ in range(rng.randrange(3)):
            r, c = rng.randrange(len(pairs)), rng.randrange(p)
            d1[r, c] = 0 if pair_grade(p, pairs[r]) == c - 1 else 1
        expected = loop_detail(d1, d2)
        assert check_detail(d1, d2) == expected
        details.add(expected.split(" ")[0])
    assert details == {"", "d1", "d2"}

    # Both leak out of grade 2: d2 is named.
    d1, d2 = delta1_matrix(field), delta2_matrix(field)
    d2[graded_triple_positions(p, 0)[0], graded_pair_positions(p, 2)[0]] = 1
    d1[graded_pair_positions(p, 0)[0], 3] = 1
    assert check_detail(d1, d2) == loop_detail(d1, d2) == "d2 leaks out of grade 2"


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_graded_dimensions(p):
    for k in range(-1, p - 1):
        assert len(graded_pair_positions(p, k)) == (p - 1) // 2
        assert len(graded_triple_positions(p, k)) == (p - 1) * (p - 2) // 6


def test_graded_kernel_examples():
    assert graded_component_kernel_dim(F7, 3, 2) == 1
    assert graded_component_kernel_dim(F7, 0, 2) == 2
    assert graded_component_kernel_dim(F5, 2, 1) == 0


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_graded_kernel_pattern(p):
    field = PrimeField(p)
    total = 0
    for k in range(-1, p - 1):
        dim = graded_component_kernel_dim(field, k, 2)
        assert dim == (2 if k == 0 else 1)
        total += dim
        assert graded_component_kernel_dim(field, k, 1) == 0
    assert total == p + 1


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_block_and_full_ranks_agree(p):
    # The blockwise complex against the dense route on the whole matrices.
    field = PrimeField(p)
    cx = cochain_complex(field)
    assert cx.rank_d1 == field.rank(delta1_matrix(field))
    assert cx.rank_d2 == field.rank(delta2_matrix(field))
    assert cx.rank_d1_res == field.rank(delta1_res_matrix(field))
    assert cx.rank_d2_res == field.rank(delta2_res_matrix(field))
    dense = field.kernel_basis(delta2_res_matrix(field))
    assert len(cx.ker_d2_res) == len(dense)
    assert all(np.array_equal(u, v) for u, v in zip(cx.ker_d2_res, dense))


def test_virasoro_cocycle_small_primes():
    assert nonzero_terms(virasoro_cocycle(F5)) == {(-1, 1): 1}
    assert nonzero_terms(virasoro_cocycle(F7)) == {(-1, 1): 1, (3, 4): 5}
    with pytest.raises(ValueError):
        virasoro_cocycle(PrimeField(3))


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
def test_virasoro_cocycle_has_grade_zero(p):
    field = PrimeField(p)
    gen = virasoro_cocycle(field)
    for pair, v in zip(wedge_pairs(p), gen.values):
        if v:
            assert pair_grade(p, pair) == 0


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_scaled_pair_sum_equals_coboundary(p):
    # The grade-zero cochain with coefficients -2n on e^{n, p-n} is d1(e^0).
    field = PrimeField(p)
    scaled = c2_from_dict(
        field,
        {(n, normalize_index(p - n, p)): -2 * n for n in range(1, (p - 1) // 2 + 1)},
    )
    assert scaled == delta1_cl(dual_basis(field, 0))


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_grade_zero_kernel_recursion(p):
    field = PrimeField(p)
    block = delta2_block(delta2_matrix(field), p, 0)
    pairs0 = [wedge_pairs(p)[n] for n in graded_pair_positions(p, 0)]
    index = {pair: n for n, pair in enumerate(pairs0)}
    for v in field.kernel_basis(block):
        def a(n):
            return int(v[index[(n, normalize_index(p - n, p))]])

        low = int(v[index[(-1, 1)]])
        for n in range(1, (p - 5) // 2 + 1):
            assert (n * a(n + 2)) % p == ((n + 3) * a(n + 1) + (2 * n + 3) * low) % p


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_cohomology_dims(p):
    field = PrimeField(p)
    hc = ordinary_cohomology_dims(field)
    assert (hc.h0, hc.h1, hc.h2) == (1, 0, 1)
    assert hc.representative == virasoro_cocycle(field)


def test_cohomology_dims_p3():
    hc = ordinary_cohomology_dims(PrimeField(3))
    assert (hc.h0, hc.h1, hc.h2) == (1, 0, 0)
    assert hc.representative is None


def test_wedge_eval_consistency():
    phi = c2_from_dict(F5, {(-1, 1): 1, (0, 2): 3})
    x = basis_element(F5, -1) + basis_element(F5, 0)
    y = basis_element(F5, 1) + basis_element(F5, 2)
    # phi(x ^ y) = phi(e-1^e1) + 3 phi(e0^e2) = 1 + 3*3... expand by hand:
    expected = (phi.value(-1, 1) + phi.value(-1, 2) + phi.value(0, 1) + phi.value(0, 2)) % 5
    assert wedge_eval(phi, x, y) == expected
    assert wedge_eval(phi, x, x) == 0


def test_cochain_validation():
    with pytest.raises(ValueError):
        c2_from_dict(F5, {(2, 2): 1})
    assert c2_from_dict(F5, {(2, 2): 0}).is_zero()
    assert c2_zero(F5).is_zero()
