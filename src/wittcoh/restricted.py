"""Restricted cochains of W in degrees 2 and 3, coboundaries, and H^0..H^2.

A restricted 2-cochain is a pair (phi, omega) where phi is an ordinary
2-form and omega: W -> K satisfies the compatibility condition tying its
values on sums to phi,

    omega(g + h) = omega(g) + omega(h)
                   + sum over sequences (g_1, ..., g_p), g_1 = g, g_2 = h,
                     g_i in {g, h}, of
                     (1 / #(g)) * phi([g_1, ..., g_{p-1}] ^ g_p),

together with omega(c*g) = c^p omega(g); #(g) counts the positions among
all p factors equal to g.  Such an omega is pinned down by its values on
the basis, so (phi, omega) is coordinatized by the C(p,2) coefficients of
phi plus the p basis values of omega, giving dim C^2 = p(p+1)/2.

Restricted 3-cochains (alpha, beta) work the same way with beta linear in
the first slot, p-semilinear in the second, and a correction sum tying
beta to alpha; coordinates are the C(p,3) coefficients of alpha plus the
p^2 values beta(e_i, e_j), giving dim C^3 = p(p+1)(p+2)/6.  Cochain2Res
and Cochain3Res are gfp.CoordinatePair values: phi's coordinates then
omega's p values, alpha's then beta's table row by row, so to_vector and
from_vector are their coordinate rows.

The coboundaries are d1(psi) = (d1_cl(psi), psi o [p]) and
d2(phi, omega) = (d2_cl(phi), ind2(phi, omega)) with

    ind2(phi, omega)(g, h) = phi(g ^ h^{[p]}) - phi([g, h, ..., h] ^ h).

delta1_res is the one-row read of delta1_res_matrix: ordinary d1 on top,
and witt.basis_powers as the omega rows below it.

A correction sum has 2^{p-2} sequences, but each is weighted only by its
count of g factors, so the chains grouped by that count are the
lambda-coefficients of [[g, h], lambda*g + h, ..., lambda*g + h] with
p - 3 applications: witt.lambda_rows evaluates the whole sum with
O(p) matrix products.  The sum is linear in phi, so one weight matrix
serves every phi.

omega(g) is linear in the coordinates (phi, omega's basis values), so
folding g's basis terms once gives the vector w with
omega(g) = c.to_vector() @ w for every cochain c.  That fold is a row
kernel like witt's fold p-th power, and the same fold (witt.fold):
omega_functional_rows takes stacked coefficient rows (..., p), optionally
each with its own fold order, runs _correction_weights on the real steps
(prefix sum, next term) of every row in blocks, and sums each row's
values; omega_functional is its one-row call, and eval_omega the dot
product with the cochain.

d2_cl and ind2 are each one cached term table: the three terms of every
triple for d2_cl (ordinary._triple_terms), and for ind2 the basis chain
[e_a, e_b, ..., e_b] (witt.basis_chains) and the p-th power e_b^{[p]}
(witt.basis_powers) of every beta row (_ind2_terms), each term a
coordinate of phi and its signed coefficient.  d2_cl, ind2 and is_cocycle_rows evaluate the tables
on phi's coordinates, is_cocycle_rows on stacked coordinate rows, block
by block to flags (is_cocycle is its one-row call), and delta2_res_matrix
scatters them into its alpha and beta rows: it allocates the matrix once
and scatters the ordinary d2 straight into its top-left corner
(ordinary.delta2_matrix with out) and ind2 into the beta rows below it,
so no second matrix of d2's size is ever alive.  The tests compare both
with loop builders and the generic bracket chain (tests/oracles.py).
Every product with d2 or d2_res evaluates the tables: the complex's ind2
image of ker d2, and verify's complex identities and kernel check.

cochain_complex(field) is the one owner of the complex's linear algebra:
it assembles the dense restricted d1, d2 once per prime, and the
ordinary ones are their top-left corners.
Each column of d1 has its own grade, so distinct columns meet disjoint
rows and degree 1 (ranks, H^1, graded kernels) is read off the zero
columns; by the same disjointness split_coboundary splits stacked rows
with no elimination.  Degree 2 takes one elimination per prime: the p
grade blocks of d2, zero rows padding those with fewer rows (p = 3), are
stacked and reduced by one lockstep PrimeField.rref.  The complex does
not check the grading: a matrix that leaks builds, and verify's report
names the leak.  d2(phi, omega) never reads omega, so ker d2_res is read
off ker d2 through ind2's term table: the phi it kills, plus the p omega
coordinates.  Every cohomology dimension, coboundary test and kernel
sample reads the complex, and ordinary_classes projects stacked cocycles
to ordinary H^2 with one split; verify certifies the blockwise ranks off
the block kernels.
The complex stores d2_res in one byte per entry (d2_res_dtype, the
narrowest dtype that holds p - 1), and every reader of it either only
looks for nonzeros or widens to int64 before it multiplies.  A prime
whose dense d2_res would exceed DENSE_D2_BYTES (1 GiB, so p > 103) is
refused before anything is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gfp import CoordinatePair, PrimeField, as_int_array, check_same_field
from .ordinary import (
    Cochain1,
    Cochain2Ord,
    Cochain3Ord,
    _coordinate_terms,
    _read_only,
    _terms_matrix,
    _terms_nonzero,
    _terms_values,
    _triple_terms,
    c2_zero,
    coordinate_grades,
    delta1_matrix,
    delta2_block,
    delta2_cl,
    delta2_matrix,
    grade_tables,
    triple_index,
    upper_triangle,
    virasoro_cocycle,
)
from .witt import (
    RowError,
    WittElement,
    _check_index,
    _inverse_vector,
    basis_chains,
    basis_element,
    basis_powers,
    fold,
    lambda_rows,
    right_bracket_matrix,
    zero,
)

class NotACocycleError(RowError):
    """An operation requiring a restricted 2-cocycle got a non-cocycle."""


@dataclass(frozen=True)
class Cochain2Res(CoordinatePair):
    """Restricted 2-cochain (phi, omega) in coordinates: phi plus omega's basis values."""

    phi: Cochain2Ord
    omega_basis: tuple[int, ...]
    head_type = Cochain2Ord
    wrong_shape = "need {p} omega values, got {tail!r}"
    not_integer = "an omega value must be an integer, got {entry!r}"

    def omega_value(self, i: int) -> int:
        """omega(e_i)."""
        _check_index(i, self.field.p)
        return self.omega_basis[i + 1]


@dataclass(frozen=True)
class Cochain3Res(CoordinatePair):
    """Restricted 3-cochain (alpha, beta): alpha plus the p x p table beta(e_i, e_j)."""

    alpha: Cochain3Ord
    beta_basis: tuple[tuple[int, ...], ...]
    head_type = Cochain3Ord
    tail_axes = 2
    wrong_shape = "beta table must be {p} x {p}"
    not_integer = "a beta value must be an integer, got {entry!r}"

    def beta_value(self, i: int, j: int) -> int:
        """beta(e_i, e_j)."""
        _check_index(i, self.field.p)
        _check_index(j, self.field.p)
        return self.beta_basis[i + 1][j + 1]


def omega_coordinate(field: PrimeField, i: int) -> Cochain2Res:
    """The cocycle (0, omega_i): omega_i picks the e_i coordinate to the p-th power."""
    _check_index(i, field.p)
    return Cochain2Res(c2_zero(field), np.eye(field.p, dtype=np.int64)[i + 1])


def virasoro_cochain(field: PrimeField) -> Cochain2Res:
    """The restricted cocycle (phi, omega) with cubic phi and omega = 0 on the basis."""
    return Cochain2Res(virasoro_cocycle(field), (0,) * field.p)


def _correction_weights(gv: np.ndarray, hv: np.ndarray, p: int) -> np.ndarray:
    """Q with sum_{s,t} form[s, t] Q[s, t] the correction sum of every bilinear form.

    The sum runs over (g_1, ..., g_p), g_1 = g, g_2 = h, g_i in {g, h}, of
    (1/#(g)) form([g_1, ..., g_{p-1}], g_p).  Row k-1 of the lambda rows
    sums the chains holding k factors g, so a final g makes the count k+1
    and a final h leaves it at k.  g and h may be stacked (..., p).
    """
    bh = right_bracket_matrix(hv, p)
    start = np.einsum("...s,...sm->...m", gv, bh) % p
    rows = lambda_rows(start, right_bracket_matrix(gv, p), bh, p - 3, p)
    k = np.arange(1, p - 1)
    inv = _inverse_vector(p)
    last = inv[k + 1, None] * gv[..., None, :] + inv[k, None] * hv[..., None, :]
    return (rows.swapaxes(-1, -2) @ last) % p


def correction_sums(forms: np.ndarray, gs: np.ndarray, hs: np.ndarray, p: int) -> np.ndarray:
    """The correction sums of stacked bilinear forms x @ form @ y (..., p, p) over stacked (g, h) rows (..., p)."""
    return np.einsum("...st,...st->...", forms, _correction_weights(gs, hs, p)) % p


def _correction_sum(form: np.ndarray, g: WittElement, h: WittElement) -> int:
    """The correction sum of the bilinear form x @ form @ y over (g, h): the one-row call of correction_sums."""
    return int(correction_sums(form, np.array(g.coeffs, dtype=np.int64), np.array(h.coeffs, dtype=np.int64), g.p))


def star_correction(phi: Cochain2Ord, g: WittElement, h: WittElement) -> int:
    """The sequence sum tying omega(g + h) to omega(g) + omega(h) for this phi.

    Sum over all (g_1, ..., g_p) with g_1 = g, g_2 = h and the rest free in
    {g, h} of (1/#(g)) phi([g_1, ..., g_{p-1}] ^ g_p), #(g) counting among
    all p factors.
    """
    check_same_field(phi, g)
    check_same_field(phi, h)
    if phi.is_zero() or g.is_zero() or h.is_zero():
        return 0
    return _correction_sum(phi.to_matrix(), g, h)


def omega_functional_rows(gs: np.ndarray, p: int, orders=None) -> np.ndarray:
    """omega functionals (see omega_functional) of stacked coefficient rows (..., p), as rows, each folded in its order.

    The omega coordinates are the rows themselves (a^p = a in GF(p)), and
    the phi coordinates the correction weights of every fold step
    (witt.fold), each step's read on the wedge_pairs coordinates before the
    steps are summed, so no (p, p) array per row is held.
    """
    u, v = upper_triangle(p)

    def step(g, h):  # phi(e_i ^ e_j) = M[i, j] = -M[j, i]; wedge_pairs is the upper triangle, row by row
        q = _correction_weights(g, h, p)
        return q[:, u, v] - q[:, v, u]

    gs = as_int_array(gs, p)
    w = np.empty(gs.shape[:-1] + (c2_dim(p),), dtype=np.int64)
    w[..., :-p] = fold(step, gs, p, orders)
    w[..., -p:] = gs
    w %= p
    return w


def omega_functional(g: WittElement, fold_order=None) -> np.ndarray:
    """The vector w with eval_omega(c, g) = c.to_vector() @ w mod p for every c.

    omega(g) is linear in (phi, omega's basis values), so the fold of g's
    basis terms through the compatibility condition,
        omega(v + a*e_i) = omega(v) + a^p omega(e_i) + star_correction(phi, v, a*e_i),
    is done once for all cochains: the omega coordinates collect the a^p,
    and the phi coordinates the correction weights of every step; this is
    the one-row call of omega_functional_rows.  fold_order may permute the
    support; over cocycles the value is fold-order invariant (exercised by
    tests), ascending order is the default.
    """
    return omega_functional_rows(np.array(g.coeffs), g.p, None if fold_order is None else [fold_order])


def eval_omega(c: Cochain2Res, g: WittElement, fold_order=None) -> int:
    """omega(g): c's coordinates against g's omega_functional."""
    check_same_field(c, g)
    return int(c.to_vector() @ omega_functional(g, fold_order) % c.field.p)


def delta1_res(psi: Cochain1) -> Cochain2Res:
    """d1(psi) = (d1_cl(psi), psi o [p]): the one-row read of delta1_res_matrix."""
    return Cochain2Res.from_vector(psi.field, delta1_res_matrix(psi.field) @ psi.to_vector())


@lru_cache(maxsize=None)
def _ind2_terms(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The two terms of ind2 on every beta row (a, b) as (2, p^2) ordinary._coordinate_terms, like _triple_terms.

    Row (a, b) is term column (a + 1) * p + b + 1.  [e_a, e_b, ..., e_b]
    with p-1 factors of e_b stays a multiple c * e_m of one basis vector
    (witt.basis_chains), so the first term is -c * phi(e_m ^ e_b); the
    second is phi(e_a ^ e_b^{[p]}), e_b^{[p]} a multiple (zero for a zero row)
    of the basis vector of its row's first nonzero entry in witt.basis_powers.
    """
    a, b = np.divmod(np.arange(p * p), p)  # positions a + 1, b + 1
    c, m = (x.ravel() for x in basis_chains(p, p - 1))
    k = np.argmax(basis_powers(p) != 0, axis=1)[b]
    return _coordinate_terms(np.stack([-c, basis_powers(p)[b, k]]), np.stack([m, a]), np.stack([b, k]), p)


def ind2(c: Cochain2Res) -> np.ndarray:
    """The p x p table phi(e_a ^ e_b^{[p]}) - phi([e_a, e_b, ..., e_b] ^ e_b), read off _ind2_terms.

    The chain's recurrence, witt.basis_chains, is checked against the
    generic bracket chain in the tests, and against the fold's basis powers
    by every report (verify's witt.adjoint_power_on_w, with p factors).  On
    W the table vanishes identically; CochainComplex still evaluates it on
    ker d2 to read the restricted kernel, rather than assume it is zero.
    """
    p = c.field.p
    return _terms_values(_ind2_terms(p), c.phi.to_vector(), p).reshape(p, p)


def delta2_res(c: Cochain2Res) -> Cochain3Res:
    """d2(phi, omega) = (d2_cl(phi), ind2(phi, omega))."""
    return Cochain3Res(delta2_cl(c.phi), ind2(c))


def is_cocycle_rows(vs, p: int) -> np.ndarray:
    """Whether d2 kills each stacked coordinate row (..., c2_dim(p)): d2_cl and ind2 on the rows' phi coordinates.

    ordinary._terms_nonzero tests the rows block by block, each reduced to
    flags before the next, so no array of every row's d2_cl values is held.
    """
    vs = as_int_array(vs, c2_dim(p)) % p
    return ~_terms_nonzero((_triple_terms(p), _ind2_terms(p)), vs[..., :-p], p)


def is_cocycle(c: Cochain2Res) -> bool:
    """Whether d2(phi, omega) vanishes: the one-row call of is_cocycle_rows."""
    return bool(is_cocycle_rows(c.to_vector(), c.field.p))


def starstar_correction(
    alpha: Cochain3Ord, g: WittElement, h1: WittElement, h2: WittElement
) -> int:
    """The sequence sum tying beta(g, h1 + h2) to beta(g, h1) + beta(g, h2).

    Sum over (l_1, ..., l_p) in {1, 2}^p with l_1 = 1, l_2 = 2 of
    (1/#{i : l_i = 1}) alpha(g ^ [h_{l_1}, ..., h_{l_{p-1}}] ^ h_{l_p}).
    """
    p = alpha.field.p
    for x in (g, h1, h2):
        check_same_field(alpha, x)
    if alpha.is_zero() or g.is_zero() or h1.is_zero() or h2.is_zero():
        return 0
    gv = np.array(g.coeffs, dtype=np.int64)
    t = np.einsum("m,mij->ij", gv, alpha.to_dense()) % p  # t[i, j] = alpha(g ^ e_{i-1} ^ e_{j-1})
    return _correction_sum(t, h1, h2)


def eval_beta(c: Cochain3Res, g: WittElement, h: WittElement) -> int:
    """beta(g, h): linear in g, folded over h's basis terms with the correction sum."""
    check_same_field(c, g)
    check_same_field(c, h)
    field = c.field
    p = field.p

    def beta_on_basis(j: int) -> int:
        return sum(g.coeff(m) * c.beta_value(m, j) for m in g.support()) % p

    total = 0
    acc = zero(field)
    for j in h.support():
        a = h.coeff(j)
        term = basis_element(field, j, a)
        total += pow(a, p, p) * beta_on_basis(j)
        if not acc.is_zero():
            total -= starstar_correction(c.alpha, g, acc, term)
        acc = acc + term
    return total % p


# ---------------------------------------------------------------------------
# Coordinates and matrices


def c2_dim(p: int) -> int:
    """Coordinate dimension of restricted 2-cochains: C(p,2) + p."""
    return p * (p - 1) // 2 + p


def c3_dim(p: int) -> int:
    """Coordinate dimension of restricted 3-cochains: C(p,3) + p^2."""
    return p * (p - 1) * (p - 2) // 6 + p * p


def delta1_res_matrix(field: PrimeField) -> np.ndarray:
    """Matrix of d1: p columns into C(p,2) + p coordinates, the ordinary d1 scattered into its top rows."""
    p = field.p
    m = np.zeros((c2_dim(p), p), dtype=np.int64)
    delta1_matrix(field, out=m[:-p])
    m[-p:] = basis_powers(p)  # the omega rows: e^k(e_i^{[p]})
    return m


def delta2_res_matrix(field: PrimeField, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix of d2 on coordinates: C(p,3) + p^2 rows, C(p,2) + p columns.

    The alpha rows are the ordinary d2 matrix on the phi columns; the beta
    rows, scattered from _ind2_terms, hold ind2 of each phi coordinate
    vector (omega columns contribute nothing to either block).  The matrix
    is allocated once and both tables are scattered straight into their
    corners, so no other matrix of its size is ever alive.  Without out it
    is int64, so products with it cannot wrap; out, when given, must be
    zero and of a dtype that holds p - 1 (CochainComplex passes one of
    d2_res_dtype); the matrix is scattered into it and returned.
    """
    p = field.p
    n3 = triple_index(p).shape[1]
    m = np.zeros((c3_dim(p), c2_dim(p)), dtype=np.int64) if out is None else out
    delta2_matrix(field, out=m[:n3, :-p])
    _terms_matrix(_ind2_terms(p), p, out=m[n3:, :-p])
    return m


# ---------------------------------------------------------------------------
# The cochain complex of one prime, grade by grade


def _embedded_kernel(vectors: np.ndarray, free: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Kernel basis, as rows, of a grade-preserving matrix with n columns, from its grade blocks' kernels.

    vectors and free (field.kernels) hold the kernel of block k + 1, on the
    columns cols[k + 1].  Columns of other grades meet other rows, so a
    column is a pivot of the whole matrix exactly when it is one of its
    block: the block kernels, embedded and sorted by their free column (the
    last nonzero entry), are field.kernel_basis of the whole matrix.
    """
    block, column = np.nonzero(free)
    basis = np.zeros((len(block), n), dtype=np.int64)
    basis[np.arange(len(block))[:, None], cols[block]] = vectors[block, column]
    return _read_only(basis[np.argsort(cols[block, column])])


def _column_pivots(field: PrimeField, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First nonzero row of every column and the inverse of its entry (0 for a zero column)."""
    rows = np.argmax(m != 0, axis=0)
    return rows, _inverse_vector(field.p)[m[rows, np.arange(m.shape[1])]]


class CochainComplex:
    """The coboundary matrices of one prime and everything read off their ranks.

    d1, d2 (ordinary) and d1_res, d2_res (restricted) are dense read-only
    arrays, each assembled once; the ordinary ones are the top-left corners
    of the restricted ones.  d1 and d1_res are int64; d2 and d2_res hold
    one d2_res_dtype (uint8) per entry.  Every coboundary preserves the
    grade of each coordinate, ordinary.coordinate_grades, off which the
    complex reads d1's column grades and d2's grade blocks (grade_tables);
    verify's report checks that they do, not the complex.  The column e^k
    of d1_res (and of d1) is its only column of its grade, k, so distinct
    columns meet disjoint rows: the nonzero columns are independent and a
    zero column spans the kernel of its grade.  Degree 1 is therefore read
    off the zero columns with no row reduction.
    In degree 2 one lockstep elimination of d2's stacked grade blocks gives
    ker d2, and ker d2_res is the phi in it that ind2's term table kills
    (one small rref) plus the p omega unit vectors; the beta rows of the
    assembled d2_res are not read.  block_kernels keeps the blocks'
    kernels, off which verify's block_full_agreement certifies the ranks.
    """

    def __init__(self, field: PrimeField) -> None:
        p = field.p
        n2, n3 = len(upper_triangle(p)[0]), triple_index(p).shape[1]
        self.field = field
        self.d1_res = _read_only(delta1_res_matrix(field))
        self.d2_res = _read_only(delta2_res_matrix(field, np.zeros((c3_dim(p), c2_dim(p)), dtype=d2_res_dtype(p))))
        self.d1 = self.d1_res[:n2]
        self.d2 = self.d2_res[:n3, :n2]
        pairs, _ = grade_tables(p)
        self._pivots = {False: _column_pivots(field, self.d1), True: _column_pivots(field, self.d1_res)}
        zero1, zero1_res = (self._pivots[r][1] == 0 for r in (False, True))  # zero columns, by grade
        blocks = delta2_block(self.d2, p, np.arange(-1, p - 1))
        self.block_kernels = tuple(_read_only(k) for k in field.kernels(blocks))
        ker2 = _embedded_kernel(*self.block_kernels, pairs, n2)
        # ker d2_res: the phi in ker d2 that ind2 kills, then the omega unit vectors (d2 never reads omega).
        vectors, free = field.kernels(_terms_values(_ind2_terms(p), ker2, p).T)
        ker2_res = np.pad(vectors[free] @ ker2 % p, ((0, p), (0, p)))
        ker2_res[-p:, -p:] = np.eye(p, dtype=np.int64)
        self.rank_d1 = p - int(zero1.sum())
        self.rank_d1_res = p - int(zero1_res.sum())
        self.rank_d2 = n2 - len(ker2)
        self.rank_d2_res = n2 + p - len(ker2_res)
        self.ker_d2_res = tuple(_read_only(ker2_res))
        self.graded_kernel_dims = {
            1: {k: int(z) for k, z in zip(coordinate_grades(p, 1).tolist(), zero1)},
            2: {k: int(d) for k, d in zip(range(-1, p - 1), np.count_nonzero(self.block_kernels[1], axis=1))},
        }
        # (H^0, H^1, H^2); d0 vanishes on trivial coefficients.
        self.h_ordinary = (1, p - self.rank_d1, len(ker2) - self.rank_d1)
        self.h_restricted = (1, p - self.rank_d1_res, len(ker2_res) - self.rank_d1_res)

    def split_coboundary(self, v, restricted: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """(psi, rest) with v = d1 psi + rest for stacked rows v (..., n); a row is a coboundary exactly when rest = 0.

        Columns of d1 have distinct grades and so meet disjoint rows: psi
        takes each coordinate from the first nonzero row of its column, and
        rest, linear in v and zero on those rows, vanishes exactly on im d1.
        Rows of another width than d1's, another prime's, are refused.
        """
        d1 = self.d1_res if restricted else self.d1
        rows, inverses = self._pivots[restricted]
        p = self.field.p
        v = as_int_array(v, len(d1)) % p
        psi = (v[..., rows] * inverses) % p
        return psi, (v - psi @ d1.T) % p


# Largest dense d2_res a prime may allocate; at one byte per entry 1 GiB admits p <= 103 (n <= 104).
DENSE_D2_BYTES = 1 << 30


def d2_res_dtype(n: int) -> np.dtype:
    """The narrowest dtype that holds every residue below n, in which the complex stores d2_res: uint8 up to 256."""
    return np.min_scalar_type(n - 1)


def check_dense_d2_size(n: int) -> None:
    """Raise ValueError when the dense d2_res of n, one d2_res_dtype(n) per entry, would exceed DENSE_D2_BYTES.

    The command line applies this rule before primality, to any integer n,
    so the message does not call n a prime.  The size is rounded up to
    hundredths of a GiB in integers, exact at any n, so a size over the
    limit never reads as the limit.
    """
    size = d2_res_dtype(n).itemsize * c3_dim(n) * c2_dim(n)
    if size > DENSE_D2_BYTES:
        hundredths = -(-100 * size // 2**30)
        raise ValueError(
            f"{n} is too large: its dense d2 matrix would need {hundredths // 100}.{hundredths % 100:02d} GiB, "
            f"over the {DENSE_D2_BYTES >> 30} GiB limit"
        )


@lru_cache(maxsize=1)
def cochain_complex(field: PrimeField) -> CochainComplex:
    """The complex of field's prime, built once; only the latest prime is kept.

    Refuses, before allocating anything, a prime whose dense d2 is too large.
    """
    check_dense_d2_size(field.p)
    return CochainComplex(field)


@dataclass(frozen=True)
class OrdinaryCohomology:
    """Dimensions of H^0, H^1, H^2 with a generating 2-cocycle (None at p=3)."""

    h0: int
    h1: int
    h2: int
    representative: Cochain2Ord | None


def ordinary_cohomology_dims(field: PrimeField) -> OrdinaryCohomology:
    """Ordinary H^0, H^1, H^2 dimensions and the cubic generator of H^2."""
    cx = cochain_complex(field)
    rep = None
    if field.p > 3:
        rep = virasoro_cocycle(field)
        if not delta2_cl(rep).is_zero():
            raise ArithmeticError("generator candidate is not a cocycle")
        if not cx.split_coboundary(rep.to_vector(), restricted=False)[1].any():
            raise ArithmeticError("generator candidate is a coboundary")
    return OrdinaryCohomology(*cx.h_ordinary, rep)


def graded_component_kernel_dim(field: PrimeField, k: int, degree: int) -> int:
    """dim ker of the grade-k block of the ordinary d1 (degree=1) or d2 (degree=2)."""
    if degree not in (1, 2):
        raise ValueError(f"degree must be 1 or 2, got {degree}")
    return cochain_complex(field).graded_kernel_dims[degree][k]


@dataclass(frozen=True)
class RestrictedH2:
    """ker/im dimensions of the degree-2 computation with class representatives."""

    ker_dim: int
    im_dim: int
    h2_dim: int
    representatives: tuple[Cochain2Res, ...]


def restricted_h2(field: PrimeField) -> RestrictedH2:
    """dim ker d2, dim im d1, dim H^2 and explicit cocycle representatives.

    The representatives are the cubic-coefficient cocycle paired with the
    zero basis omega (absent at p = 3) followed by the coordinate cocycles
    (0, omega_i); they are verified to be cocycles (is_cocycle_rows, on
    the term tables d2_res is scattered from), independent modulo im d1, and
    to span ker d2 together with im d1, so they represent a basis of H^2
    with no coboundary shift needed.
    """
    p = field.p
    cx = cochain_complex(field)
    ker_dim = len(cx.ker_d2_res)
    reps: list[Cochain2Res] = []
    if p > 3:
        reps.append(virasoro_cochain(field))
    reps.extend(omega_coordinate(field, i) for i in range(-1, p - 1))
    vectors = np.array([r.to_vector() for r in reps])
    if not is_cocycle_rows(vectors, p).all():
        raise ArithmeticError("representative candidate is not a cocycle")
    if field.rank(cx.split_coboundary(vectors)[1]) != len(reps) or cx.rank_d1_res + len(reps) != ker_dim:
        raise ArithmeticError("representatives do not complete im d1 to ker d2")
    return RestrictedH2(ker_dim, cx.rank_d1_res, cx.h_restricted[2], tuple(reps))


@dataclass(frozen=True)
class OrdinaryClass:
    """Image of a restricted class in ordinary degree-2 cohomology.

    is_zero says whether the phi part is an ordinary coboundary;
    virasoro_coefficient is its coefficient on the cubic generator modulo
    coboundaries (0 when the class is zero).
    """

    is_zero: bool
    virasoro_coefficient: int


def ordinary_classes(field: PrimeField, phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(is_zero, virasoro_coefficient) of the ordinary classes of stacked phi parts of cocycles (..., C(p,2)).

    Raises ArithmeticError, as project_class_to_ordinary does, if any phi
    is outside coboundaries + the generator's span.
    """
    cx = cochain_complex(field)
    p = field.p
    _, rests = cx.split_coboundary(phis, restricted=False)
    zero = ~rests.any(axis=-1)
    if zero.all():
        return zero, np.zeros(zero.shape, dtype=np.int64)
    if p == 3:
        raise ArithmeticError("every cocycle phi is a coboundary at p = 3")
    # rest is linear and vanishes exactly on coboundaries, so
    # phi - a * generator is a coboundary exactly when rest = a * rest(generator).
    _, gen_rest = cx.split_coboundary(virasoro_cocycle(field).to_vector(), restricted=False)
    s = np.flatnonzero(gen_rest)[0]  # the generator is not a coboundary
    coeffs = rests[..., s] * field.inv(int(gen_rest[s])) % p
    if ((rests - coeffs[..., None] * gen_rest) % p).any():
        raise ArithmeticError("cocycle phi is outside coboundaries + generator span")
    return zero, coeffs


def project_class_to_ordinary(c: Cochain2Res) -> OrdinaryClass:
    """Class of the phi part in ordinary H^2; input must be a restricted cocycle.  One row of ordinary_classes."""
    if not is_cocycle(c):
        raise NotACocycleError("projection is defined on cocycles only")
    zero, coeff = ordinary_classes(c.field, c.phi.to_vector())
    return OrdinaryClass(bool(zero), int(coeff))
