"""Ordinary cochains, coboundaries, grading and degree-2 cohomology."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from tests.oracles import (
    bracket_delta2_value,
    delta1_matrix_by_loops,
    delta2_matrix_by_loops,
    delta2_res_matrix_by_loops,
    graded_pair_positions,
    graded_triple_positions,
    kernel_basis_by_pivots,
    pair_grade,
    pair_position,
    rref_by_pivots,
    triple_grade,
    triple_normalize,
    triple_position,
    wedge_eval,
    wedge_normalize,
    wedge_triples,
    whole_matrix_rank,
)
from wittcoh import verify, witt
from wittcoh.gfp import PrimeField
from wittcoh.ordinary import (
    Cochain1,
    Cochain2Ord,
    Cochain3Ord,
    _terms_matrix,
    _terms_nonzero,
    _terms_values,
    _triple_terms,
    c2_from_dict,
    c2_zero,
    coordinate_grades,
    delta1_cl,
    delta1_matrix,
    delta2_block,
    delta2_cl,
    delta2_matrix,
    dual_basis,
    grade_tables,
    pair_coordinates,
    triple_coordinate,
    triple_index,
    upper_triangle,
    virasoro_cocycle,
    wedge_pairs,
)
from wittcoh.restricted import (
    Cochain2Res,
    Cochain3Res,
    _ind2_terms,
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


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
def test_matrix_builders_match_loop_oracles(p):
    field = PrimeField(p)
    for built, oracle in (
        (delta1_matrix, delta1_matrix_by_loops),
        (delta2_matrix, delta2_matrix_by_loops),
        (delta2_res_matrix, delta2_res_matrix_by_loops),
    ):
        m, expected = built(field), oracle(field)
        assert m.dtype == expected.dtype == np.int64
        assert m.shape == expected.shape and (m == expected).all()


@pytest.mark.parametrize("p", [3, 5, 7, 13, 23, 31])
def test_index_tables_match_the_tuple_builders(p):
    # ordinary's one index, its numpy tables, against the oracle's tuple builders and position dicts.
    pairs, triples = pair_position(p), triple_position(p)
    u, v = upper_triangle(p)
    assert wedge_pairs(p) == tuple(zip((u - 1).tolist(), (v - 1).tolist())) == tuple(pairs)
    index = triple_index(p)
    assert index.shape == (3, len(triples))
    assert [tuple(t) for t in index.T.tolist()] == list(triples)
    column = pair_coordinates(p)
    assert column.shape == (p, p)
    for i in range(-1, p - 1):
        for j in range(-1, p - 1):
            w = wedge_normalize(i, j)
            assert column[i + 1, j + 1] == (0 if w is None else pairs[w[:2]])
    assert [triple_coordinate(p, *t) for t in triples] == list(range(len(triples)))
    for k in range(-1, p - 1):
        for table, oracle in zip(grade_tables(p), (graded_pair_positions, graded_triple_positions)):
            row = table[k + 1]
            assert row[row >= 0].tolist() == oracle(p, k)
    for table in (u, v, column, index, *grade_tables(p)):
        assert not table.flags.writeable


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_coordinate_grades_match_the_oracle(p):
    # The one grade vector per restricted coordinate space: e^i and omega_i have grade i, a pair or triple its
    # index sum mod p, and the beta row (a, b) grade a; the ordinary coordinates come first.
    indices = list(range(-1, p - 1))
    pairs, triples = wedge_pairs(p), wedge_triples(p)
    expected = {
        1: indices,
        2: [pair_grade(p, pair) for pair in pairs] + indices,
        3: [triple_grade(p, triple) for triple in triples] + [a for a in indices for _ in indices],
    }
    for degree, grades in expected.items():
        vector = coordinate_grades(p, degree)
        assert vector.dtype == np.int64 and vector.tolist() == grades
        assert not vector.flags.writeable and coordinate_grades(p, degree) is vector


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_value_methods_read_the_coordinates_the_oracle_index_names(p):
    field, rng = PrimeField(p), random.Random(p)
    pairs, triples = pair_position(p), triple_position(p)
    phi = Cochain2Ord(field, tuple(rng.randrange(p) for _ in pairs))
    alpha = Cochain3Ord(field, tuple(rng.randrange(p) for _ in triples))
    window = range(-1, p - 1)
    for i, j in itertools.product(window, repeat=2):
        w = wedge_normalize(i, j)
        assert phi.value(i, j) == (0 if w is None else w[2] * phi.values[pairs[w[:2]]] % p)
    for r, s, t in itertools.product(window, repeat=3):
        w = triple_normalize(r, s, t)
        assert alpha.value(r, s, t) == (0 if w is None else w[1] * alpha.values[triples[w[0]]] % p)
    # Every pair once in reversed order, and a zero coefficient on each degenerate pair.
    terms = {(j, i): rng.randrange(p) for i, j in pairs} | {(i, i): 0 for i in window}
    expected = [0] * len(pairs)
    for (j, i), c in terms.items():
        if i != j:
            expected[pairs[(i, j)]] = -c % p
    assert c2_from_dict(field, terms).values == tuple(expected)


@pytest.mark.parametrize("index", [-2, 6, 7])
def test_out_of_window_basis_indices_raise_value_error(index):
    # -2, p - 1 and p at p = 7: a tuple or array lookup would wrap the first two onto real coordinates.
    phi = virasoro_cocycle(F7)
    alpha = delta2_cl(c2_from_dict(F7, {(0, 1): 1}))
    c2, c3 = Cochain2Res(phi, (0,) * 7), Cochain3Res(alpha, ((0,) * 7,) * 7)
    calls = [
        lambda: phi.value(index, 0),
        lambda: phi.value(1, index),
        lambda: alpha.value(index, 1, 2),
        lambda: alpha.value(1, 2, index),
        lambda: c2_from_dict(F7, {(index, 1): 1}),
        lambda: c2_from_dict(F7, {(1, index): 0}),
        lambda: dual_basis(F7, 0).coeff(index),
        lambda: c2.omega_value(index),
        lambda: c3.beta_value(index, 0),
        lambda: c3.beta_value(0, index),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"^basis index {index} out of range for p=7$"):
            call()


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_matrix_builders_scatter_into_out_alone(p):
    # out is a strided corner of a larger array; the border must keep its sentinel.
    field = PrimeField(p)
    for built, oracle in ((delta1_matrix, delta1_matrix_by_loops), (delta2_matrix, delta2_matrix_by_loops)):
        expected = oracle(field)
        rows, cols = expected.shape
        host = np.full((rows + 3, cols + 4), -7, dtype=np.int64)
        out = host[1 : rows + 1, 2 : cols + 2]
        out[:] = 0
        assert built(field, out=out) is out
        assert (out == expected).all()
        border = np.ones(host.shape, dtype=bool)
        border[1 : rows + 1, 2 : cols + 2] = False
        assert (host[border] == -7).all()


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_terms_matrix_applies_like_terms_values(p):
    # Random tables: repeated columns within a row, zero coefficients and
    # coefficients of either sign, which the d2 and ind2 tables of W only
    # partly reach.
    rng = np.random.default_rng(p)
    n2 = len(wedge_pairs(p))
    for k, n in ((1, 1), (2, 9), (3, 40)):
        terms = rng.integers(-p, p + 1, size=(k, n)), rng.integers(0, n2, size=(k, n))
        m = _terms_matrix(terms, p)
        assert m.shape == (n, n2)
        phis = rng.integers(0, p, size=(3, n2))
        assert (phis @ m.T % p == _terms_values(terms, phis, p)).all()


@pytest.mark.parametrize("p", [3, 5, 7, 13, 31])
def test_term_tables_on_coordinates_apply_like_the_loop_matrices(p):
    # d2_cl's and ind2's tables on coordinate rows (the unit rows, which read
    # off every column, and random rows) against the loop-built d2 and the
    # beta rows of the loop-built d2_res on their phi columns.
    field = PrimeField(p)
    n2, n3 = len(wedge_pairs(p)), len(wedge_triples(p))
    phis = np.vstack([np.eye(n2, dtype=np.int64), np.random.default_rng(p).integers(0, p, size=(5, n2))])
    d2_res = delta2_res_matrix_by_loops(field)
    assert (d2_res[:n3, :n2] == delta2_matrix_by_loops(field)).all()
    assert (_terms_values(_triple_terms(p), phis, p) == phis @ d2_res[:n3, :n2].T % p).all()
    assert (_terms_values(_ind2_terms(p), phis, p) == phis @ d2_res[n3:, :n2].T % p).all()


@pytest.mark.parametrize("p", [13, 31])
def test_terms_values_gathers_in_blocks_within_the_sweep_bound(monkeypatch, p):
    # Patched to seven rows' terms per block, the 100 stacked coordinate rows
    # run 15 blocks, the last one short, and give the values of one whole
    # gather.  The whole gather, three int64 terms per triple of every row, is
    # three times the values; the blocks hold one block's terms besides them.
    terms = _triple_terms(p)
    phis = np.random.default_rng(p).integers(0, p, size=(2, 50, len(wedge_pairs(p))))
    expected = np.einsum("nk,...nk->...k", terms[0], phis[..., terms[1]]) % p
    monkeypatch.setattr(witt, "_SWEEP_BYTES", 7 * 8 * terms[0].size)
    tracemalloc.start()
    try:
        values = _terms_values(terms, phis, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == expected.shape and (values == expected).all()
    assert peak <= witt._SWEEP_BYTES + 1.1 * values.nbytes


@pytest.mark.parametrize("p", [5, 13])
def test_terms_nonzero_in_small_blocks_equals_any_of_the_whole_values(monkeypatch, p):
    # The coboundaries d1(e^k), which d2 kills, random rows and zero rows,
    # with leading axes, against d2's table and ind2's with one more term in
    # every row (the true one vanishes on W): patched to three rows per block
    # of the larger table, the flags are .any() of each table's whole values.
    coefficient, column = _ind2_terms(p)
    tables = (_triple_terms(p), (coefficient + np.array([[1], [0]]), column))
    n2 = len(wedge_pairs(p))
    rng = np.random.default_rng(p)
    phis = np.vstack([delta1_matrix(PrimeField(p)).T, rng.integers(0, p, (p, n2)), np.zeros((2, n2), dtype=np.int64)])
    phis = phis.reshape(2, -1, n2)
    wants = [_terms_values(terms, phis, p).any(axis=-1) for terms in tables]
    assert all(want.any() and not want.all() for want in wants) and (wants[0] != wants[1]).any()
    monkeypatch.setattr(witt, "_SWEEP_BYTES", 3 * 8 * max(terms[0].size for terms in tables))
    for terms, want in zip(tables, wants):
        assert (_terms_nonzero([terms], phis, p) == want).all()
    assert (_terms_nonzero(tables, phis, p) == (wants[0] | wants[1])).all()


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
    # verify's grading check reads the term tables d2_res is scattered from and d1_res; with leaks planted in d2's
    # and ind2's tables and in d1_res, omega rows included, it must name what a per-grade loop meets first: the
    # lowest leaking grade k, and within k a d2 leak before a d1 leak.  Only a live term (a coefficient nonzero
    # mod p) is an entry of d2_res, so the planted terms include dead ones, coefficient p, off their grade.
    from types import SimpleNamespace

    from wittcoh import verify

    p = 7
    field = PrimeField(p)
    indices = range(-1, p - 1)
    pairs, triples = wedge_pairs(p), wedge_triples(p)
    c2_grades = [pair_grade(p, pair) for pair in pairs] + list(indices)
    row_grades = ([triple_grade(p, triple) for triple in triples], [a for a in indices for _ in indices])

    def loop_detail(tables, d1):
        for k in indices:
            for (coefficient, column), grades in zip(tables, row_grades):
                for t in range(len(coefficient)):
                    for n, grade in enumerate(grades):
                        if coefficient[t][n] % p and c2_grades[column[t][n]] == k and grade != k:
                            return f"d2 leaks out of grade {k}"
            rows = [r for r, grade in enumerate(c2_grades) if grade != k]
            if d1[rows, k + 1].any():
                return f"d1 leaks out of grade {k}"
        return ""

    def check_detail(tables, d1):
        monkeypatch.setattr(verify.ordi, "_triple_terms", lambda p: tables[0])
        monkeypatch.setattr(verify.res, "_ind2_terms", lambda p: tables[1])
        monkeypatch.setattr(verify.res, "cochain_complex", lambda f: SimpleNamespace(d1_res=d1, d1=d1[: len(pairs)]))
        result = next(c for c in verify._ordinary_checks(field) if c.name == "ordinary.grading_preserved")
        assert result.passed == (not result.detail)
        return result.detail

    def clean():
        return [np.array(x) for x in _triple_terms(p)], [np.array(x) for x in _ind2_terms(p)], delta1_res_matrix(field)

    rng = random.Random(3)
    details = set()
    for _ in range(40):
        triple_terms, ind2_terms, d1 = clean()
        for _ in range(rng.randrange(3)):
            coefficient, column = rng.choice((triple_terms, ind2_terms))
            t, n = rng.randrange(len(coefficient)), rng.randrange(coefficient.shape[1])
            coefficient[t, n], column[t, n] = rng.choice((1, p)), rng.randrange(len(pairs))
        for _ in range(rng.randrange(3)):
            r, c = rng.randrange(len(c2_grades)), rng.randrange(p)
            d1[r, c] = 0 if c2_grades[r] == c - 1 else 1
        tables = (triple_terms, ind2_terms)
        expected = loop_detail(tables, d1)
        assert check_detail(tables, d1) == expected
        details.add(expected.split(" ")[0])
    assert details == {"", "d1", "d2"}

    # Both leak out of grade 2: d2 is named.  The beta row (0, 5) and the omega_0 row have grade 0.
    triple_terms, (coefficient, column), d1 = clean()
    coefficient[0, p + 6], column[0, p + 6] = 1, graded_pair_positions(p, 2)[0]
    d1[len(pairs) + 1, 3] = 1
    tables = (triple_terms, (coefficient, column))
    assert check_detail(tables, d1) == loop_detail(tables, d1) == "d2 leaks out of grade 2"
    # A dead term off its grade is not a leak.
    coefficient[0, p + 6] = p
    assert check_detail(tables, d1) == loop_detail(tables, d1) == "d1 leaks out of grade 2"


def test_grading_check_reads_no_dense_d2(monkeypatch):
    # The grading check reads the term tables d2 and d2_res are scattered from, and d1_res, never the dense d2 or
    # d2_res: a scan of d2_res is O(p^5).
    from wittcoh import verify

    cx = cochain_complex(F7)

    class WithoutDenseD2:
        def __getattr__(self, name):
            if name in ("d2", "d2_res"):
                raise AssertionError(f"reads cx.{name}")
            return getattr(cx, name)

    monkeypatch.setattr(verify.res, "cochain_complex", lambda field: WithoutDenseD2())
    checks = {c.name: c for c in verify._ordinary_checks(F7)}
    assert checks["ordinary.grading_preserved"].passed and not checks["ordinary.grading_preserved"].detail
    assert checks["ordinary.block_full_agreement"].detail == "reads cx.d2"


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_graded_dimensions(p):
    pairs, triples = grade_tables(p)
    for k in range(-1, p - 1):
        assert np.count_nonzero(pairs[k + 1] >= 0) == (p - 1) // 2
        assert np.count_nonzero(triples[k + 1] >= 0) == (p - 1) * (p - 2) // 6


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
    # The blockwise complex against the oracle's elimination of the whole
    # matrices, which shares no code with PrimeField.rref.
    field = PrimeField(p)
    cx = cochain_complex(field)

    def rank(m):
        return len(rref_by_pivots(field, m)[1])

    assert cx.rank_d1 == rank(delta1_matrix(field))
    assert cx.rank_d2 == rank(delta2_matrix(field))
    assert cx.rank_d1_res == rank(delta1_res_matrix(field))
    assert cx.rank_d2_res == rank(delta2_res_matrix(field))
    dense = kernel_basis_by_pivots(field, delta2_res_matrix(field))
    assert len(cx.ker_d2_res) == len(dense)
    assert all(np.array_equal(u, v) for u, v in zip(cx.ker_d2_res, dense))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_rank_certificates_equal_the_whole_matrix_ranks(p):
    # The certificates of block_full_agreement against the whole-matrix rank
    # oracle, which reduces d2 and d2_res themselves.
    field = PrimeField(p)
    cx = cochain_complex(field)
    blocks = delta2_block(cx.d2, p, np.arange(-1, p - 1))
    certified = field.certified_ranks(blocks, *cx.block_kernels)
    assert int(certified.sum()) == whole_matrix_rank(field, cx.d2) == cx.rank_d2
    assert whole_matrix_rank(field, cx.d2_res) == cx.rank_d2_res
    check = next(c for c in verify._ordinary_checks(field) if c.name == "ordinary.block_full_agreement")
    assert (check.passed, check.detail) == (True, "")


@pytest.mark.parametrize(
    "corrupt,message",
    [
        ("vectors", "kernel vectors are not unit"),
        ("block", "a kernel vector is not killed"),
        ("free", "no invertible minor of full rank"),
    ],
)
def test_rank_certificates_refuse_a_corrupted_input(corrupt, message):
    # A kernel vector off its unit entry, one block entry changed (the kernel no longer killed), and a free column
    # called a pivot (no invertible minor of that size) each fail one product.
    field = PrimeField(7)
    cx = cochain_complex(field)
    blocks = delta2_block(cx.d2, 7, np.arange(-1, 6))
    vectors, free = (np.array(a) for a in cx.block_kernels)
    k, c = np.argwhere(free)[0]
    if corrupt == "vectors":
        vectors[k, c, c] = 2
    elif corrupt == "block":
        r = np.flatnonzero(blocks[k, :, c])[0]
        blocks[k, r, c] = (blocks[k, r, c] + 1) % 7
    else:
        free[k, c] = False
    with pytest.raises(ArithmeticError, match=message):
        field.certified_ranks(blocks, vectors, free)


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


def test_cochain_arithmetic_refuses_mixed_primes():
    # zip would truncate the longer cochain to the shorter prime's length.
    for a, b in [(dual_basis(F5, 0), dual_basis(F7, 0)), (virasoro_cocycle(F5), virasoro_cocycle(F7))]:
        for op in (lambda: a + b, lambda: a - b, lambda: b - a):
            with pytest.raises(ValueError, match="different fields"):
                op()
    with pytest.raises(ValueError, match="different fields"):
        dual_basis(F5, 0).value(basis_element(F7, 0))


@pytest.mark.parametrize("bad", [1.5, 2.0, np.float64(3.0), "1", None])
def test_cochains_refuse_coefficients_that_are_not_integers(bad):
    # Cochain2Ord used to keep 1.5, and its to_vector then gave 1; Cochain1 and dual_basis kept floats too.
    cases = (
        lambda: Cochain1(F7, (bad,) + (0,) * 6),
        lambda: dual_basis(F7, 0, bad),
        lambda: Cochain2Ord(F7, (0,) * 20 + (bad,)),
        lambda: Cochain3Ord(F5, (bad,) + (0,) * 9),
    )
    for case in cases:
        with pytest.raises(ValueError, match="must be an integer"):
            case()
    kept = Cochain2Ord(F5, tuple(np.arange(10)))
    assert kept == Cochain2Ord(F5, tuple(range(10))) and all(type(v) is int for v in kept.values)
