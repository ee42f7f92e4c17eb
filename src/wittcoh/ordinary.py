"""Ordinary (Chevalley-Eilenberg) cochains of W with trivial coefficients.

Degrees 0..3 only.  Cochains are stored on canonical wedge bases: e^{i,j}
for -1 <= i < j <= p-2 and e^{r,s,t} for -1 <= r < s < t <= p-2, ordered
ascending in the index window (so -1 < 0 < 1 < ...).  The grading is
stated once, in coordinate_grades: the grade of every coordinate of the
restricted cochains of degrees 1-3, whose prefixes are the ordinary
coordinates' grades.  Both coboundaries preserve it; verify's report
checks that d2's and ind2's term tables and d1 do.
Cochain1, Cochain2Ord and Cochain3Ord are gfp.Coordinates of degree 1, 2
and 3, so their validation and arithmetic are the base's.

The bases have one index, numpy tables built once per prime:
upper_triangle gives the (i + 1, j + 1) of every pair and triple_index the
(r, s, t) of every triple, both lexicographic (wedge_pairs is the tuple
view of upper_triangle); wedge_signs holds, for degrees 2 and 3, the
coordinate of the sorted wedge and the sign of the sorting permutation at
every ordered pair or triple of basis positions, and the grade tables
(grade_tables, each row the coordinates of one grade) are read off
coordinate_grades.  Every reader of a coordinate, the per-element value
methods included, reads these tables.  Their oracle, tuple builders and
position dicts made by loops, is in tests/oracles.py.
Each coboundary into 2-form coordinates is written once, as a table of terms
coefficient * phi(e_a ^ e_b) (_triple_terms for d2), each holding the
coordinate it reads and its coefficient signed by wedge_signs
(_coordinate_terms):
_terms_values evaluates a table on stacked coordinate rows (_terms_nonzero
only whether its values vanish, block by block), and
_terms_matrix scatters it into the dense coboundary matrix, writing each
entry once and reading none.  d1's matrix is scattered straight from the
pairs, each of which meets one column, its bracket's target.  Both matrix
builders can scatter into a zero array they are given (out), which is how
restricted.delta2_res_matrix places d2 in its top-left corner without
building it apart.  graded_blocks gathers the grade blocks of a matrix
into one stack (delta2_block those of d2), which
restricted.cochain_complex row-reduces once per prime for every rank,
kernel and cohomology dimension.

Sign conventions are fixed once and used throughout.  A form's orientation,
phi(e_j ^ e_i) = -phi(e_i ^ e_j) and alpha's value at an ordered triple the
permutation's sign times its sorted triple's, is stated once, in
wedge_signs; the value methods, to_matrix, to_dense, c2_from_dict and the
term tables gather from it.  The coboundaries are
    (d1 psi)(g ^ h)     =  psi([g, h])
    (d2 phi)(g ^ h ^ k) =  phi([g,h] ^ k) - phi([g,k] ^ h) + phi([h,k] ^ g)
so that d1(e^k) = sum of (j - i) e^{i,j} over canonical pairs with
i + j = k mod p.  Both read the brackets of basis pairs off
witt.basis_brackets, d1 at every canonical pair and d2 at the pairs
(r, s), (r, t) and (s, t) of every triple, with signs +, -, +; delta1_cl
is the one-row read of d1's matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from math import comb

import numpy as np

from . import witt
from .gfp import Coordinates, PrimeField, check_same_field
from .witt import WittElement, _check_index, normalize_index
from .witt import bracket  # noqa: F401 - unused here; perfbench/selftest.py checks that its tracer wraps this name


def _read_only(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


@lru_cache(maxsize=None)
def upper_triangle(p: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(p, 1) as read-only arrays: the (i + 1, j + 1) of every canonical pair, lexicographic."""
    u, v = np.triu_indices(p, 1)
    u.flags.writeable = v.flags.writeable = False
    return u, v


@lru_cache(maxsize=None)
def wedge_pairs(p: int) -> tuple[tuple[int, int], ...]:
    """Canonical pairs (i, j), -1 <= i < j <= p-2, lexicographic: the tuple view of upper_triangle."""
    u, v = upper_triangle(p)
    return tuple(zip((u - 1).tolist(), (v - 1).tolist()))


@lru_cache(maxsize=None)
def triple_index(p: int) -> np.ndarray:
    """Read-only (3, C(p,3)) array of the (r, s, t) of every canonical triple, lexicographic.

    np.nonzero walks the positions r + 1 < s + 1 < t + 1 in C order, which
    is the lexicographic order of the triples.
    """
    i = np.arange(p)
    index = np.stack(np.nonzero((i[:, None, None] < i[:, None]) & (i[:, None] < i))) - 1
    index.flags.writeable = False
    return index


@lru_cache(maxsize=None)
def wedge_signs(p: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (column, sign) over ordered basis positions (p,) * degree, degree 2 or 3: the one orientation rule.

    column is the coordinate of the sorted wedge (in upper_triangle or
    triple_index order) and sign, int8, the parity of the sorting
    permutation, 0 where an index repeats (column 0 there), so a form's
    value at e_i ^ e_j (^ e_k) is sign * values[column] at the positions
    (i + 1, j + 1(, k + 1)).  Each canonical wedge is scattered under each
    permutation of its positions.
    """
    wedges = np.stack(upper_triangle(p)) if degree == 2 else triple_index(p) + 1
    column = np.zeros((p,) * degree, dtype=np.int64)
    sign = np.zeros((p,) * degree, dtype=np.int8)
    for order in permutations(range(degree)):
        at = tuple(wedges[list(order)])
        column[at] = np.arange(wedges.shape[1])
        sign[at] = (-1) ** sum(a > b for a, b in combinations(order, 2))
    return _read_only(column), _read_only(sign)


@dataclass(frozen=True)
class Cochain1(Coordinates):
    """Linear form on W; coeffs[k + 1] is the coefficient of e^k."""

    coeffs: tuple[int, ...]

    def coeff(self, k: int) -> int:
        _check_index(k, self.field.p)
        return self.coeffs[k + 1]

    def value(self, g: WittElement) -> int:
        check_same_field(self, g)
        return sum(a * b for a, b in zip(self.coeffs, g.coeffs)) % self.field.p


def dual_basis(field: PrimeField, k: int, coefficient: int = 1) -> Cochain1:
    """coefficient * e^k."""
    _check_index(k, field.p)
    coeffs = [0] * field.p
    coeffs[k + 1] = coefficient
    return Cochain1(field, tuple(coeffs))


@dataclass(frozen=True)
class Cochain2Ord(Coordinates):
    """Skew 2-form on W; values aligned with wedge_pairs(p)."""

    values: tuple[int, ...]
    degree = 2

    def value(self, i: int, j: int) -> int:
        """phi(e_i ^ e_j) for any index order, read off wedge_signs."""
        p = self.field.p
        _check_index(i, p)
        _check_index(j, p)
        column, sign = wedge_signs(p, 2)
        return int(sign[i + 1, j + 1]) * self.values[column[i + 1, j + 1]] % p

    def to_matrix(self) -> np.ndarray:
        """Dense antisymmetric matrix M[i+1, j+1] = phi(e_i ^ e_j), phi's bilinear form: a wedge_signs gather."""
        column, sign = wedge_signs(self.field.p, 2)
        return sign * self.to_vector()[column] % self.field.p


def c2_zero(field: PrimeField) -> Cochain2Ord:
    return Cochain2Ord(field, (0,) * (field.p * (field.p - 1) // 2))


def c2_from_dict(field: PrimeField, terms: dict[tuple[int, int], int]) -> Cochain2Ord:
    """2-cochain from a {(i, j): coefficient} mapping; pairs may be unordered."""
    p = field.p
    vals = [0] * (p * (p - 1) // 2)
    column, sign = wedge_signs(p, 2)
    for (i, j), c in terms.items():
        _check_index(i, p)
        _check_index(j, p)
        if i == j and c % p:
            raise ValueError(f"nonzero coefficient on degenerate pair ({i}, {j})")
        n = column[i + 1, j + 1]
        vals[n] = (vals[n] + int(sign[i + 1, j + 1]) * c) % p
    return Cochain2Ord(field, tuple(vals))


@dataclass(frozen=True)
class Cochain3Ord(Coordinates):
    """Skew 3-form on W; values aligned with the columns of triple_index(p)."""

    values: tuple[int, ...]
    degree = 3

    def value(self, r: int, s: int, t: int) -> int:
        """alpha(e_r ^ e_s ^ e_t) for any index order, read off wedge_signs."""
        p = self.field.p
        for i in (r, s, t):
            _check_index(i, p)
        column, sign = wedge_signs(p, 3)
        at = r + 1, s + 1, t + 1
        return int(sign[at]) * self.values[column[at]] % p

    def to_dense(self) -> np.ndarray:
        """Dense antisymmetric tensor D[r+1, s+1, t+1] = alpha(e_r ^ e_s ^ e_t): the gather sign * values[column].

        column and sign are wedge_signs(p, 3).  Its one reader in the
        package is restricted.starstar_correction; verify's ** check
        scatters its own tensor from triple_index, so the two sides of that
        comparison share no orientation.
        """
        column, sign = wedge_signs(self.field.p, 3)
        return sign * self.to_vector()[column] % self.field.p


def delta1_cl(psi: Cochain1) -> Cochain2Ord:
    """(d1 psi)(e_i ^ e_j) = psi([e_i, e_j]): the one-row read of delta1_matrix."""
    return Cochain2Ord.from_vector(psi.field, delta1_matrix(psi.field) @ psi.to_vector())


def _coordinate_terms(coefficient, first, second, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (coefficient, column) of terms coefficient * phi(e_a ^ e_b), a, b at matrix positions (first, second).

    phi(e_a ^ e_b) is read off wedge_signs: its sign times the coordinate
    of the pair (min, max), the sign 0 on the diagonal.
    """
    column, sign = wedge_signs(p, 2)
    return _read_only(coefficient * sign[first, second]), _read_only(column[first, second])


@lru_cache(maxsize=None)
def _triple_terms(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The three terms of (d2 phi)(e_r ^ e_s ^ e_t) for every canonical triple, as (3, C(p,3)) _coordinate_terms.

    Term n is coefficient[n] * phi(e_a ^ e_b) with e_a = [e_r, e_s], -[e_r, e_t]
    and [e_s, e_t] read off witt.basis_brackets, and e_b = e_t, e_s and e_r.
    """
    coefficient, target = witt.basis_brackets(p)
    r, s, t = triple_index(p) + 1  # positions
    pairs = np.stack([r, r, s]), np.stack([s, t, t])
    return _coordinate_terms([[1], [-1], [1]] * coefficient[pairs], target[pairs], np.stack([t, s, r]), p)


def _terms_values(terms: tuple[np.ndarray, ...], phis: np.ndarray, p: int) -> np.ndarray:
    """Every term column on stacked 2-form coordinate rows phis (..., C(p,2)): sum of coefficient * phis[column].

    The rows are evaluated in blocks whose gathered terms, 8 bytes each,
    stay within witt._SWEEP_BYTES (witt.sweep_blocks), so only the values,
    not every term, are held whole.
    """
    coefficient, column = terms
    flat = phis.reshape(-1, phis.shape[-1])
    values = np.empty((len(flat), coefficient.shape[1]), dtype=np.int64)
    for rows in witt.sweep_blocks(len(flat), 8 * coefficient.size):
        np.einsum("nk,bnk->bk", coefficient, flat[rows][:, column], out=values[rows])
    values %= p
    return values.reshape(phis.shape[:-1] + values.shape[-1:])


def _terms_nonzero(tables, phis: np.ndarray, p: int) -> np.ndarray:
    """Whether any table's values are nonzero on each stacked 2-form coordinate row phis (..., C(p,2)), as flags.

    The rows are tested in blocks whose gathered terms of the largest table
    stay within witt._SWEEP_BYTES, and each table's values are reduced to
    flags before the next, so no array of every row's values is held.
    """
    flat = phis.reshape(-1, phis.shape[-1])
    nonzero = np.zeros(len(flat), dtype=bool)
    for rows in witt.sweep_blocks(len(flat), 8 * max(coefficient.size for coefficient, _ in tables)):
        for terms in tables:
            nonzero[rows] |= _terms_values(terms, flat[rows], p).any(axis=-1)
    return nonzero.reshape(phis.shape[:-1])


def _terms_matrix(terms: tuple[np.ndarray, ...], p: int, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix of phis -> _terms_values(terms, phis, p) on wedge_pairs coordinates.

    Each term adds its coefficient to its column of its row.  Terms of one
    row that meet one column are summed apart from the matrix, and every
    term then assigns its column's total: the matrix is only written, never
    read, so each of its pages faults once.  out, when given, must be zero;
    the matrix is scattered into it and nothing else is written.
    """
    coefficient, column = terms
    m = np.zeros((coefficient.shape[1], p * (p - 1) // 2), dtype=np.int64) if out is None else out
    totals = ((column[:, None] == column) * coefficient).sum(axis=1)  # over the row's terms in the same column
    m[np.arange(coefficient.shape[1]), column] = totals % p  # every other entry is zero
    return m


def delta2_cl(phi: Cochain2Ord) -> Cochain3Ord:
    """(d2 phi)(e_r ^ e_s ^ e_t) by the alternating three-term expansion."""
    p = phi.field.p
    return Cochain3Ord(phi.field, tuple(_terms_values(_triple_terms(p), phi.to_vector(), p).tolist()))


def delta1_matrix(field: PrimeField, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix of d1 on coordinates: C(p,2) rows, p columns (column k+1 is d1(e^k)).

    Row (i, j) meets only the column of e^{i+j}, with entry j - i (witt.basis_brackets).
    out, when given, must be zero; the matrix is scattered into it.
    """
    p = field.p
    u, v = upper_triangle(p)  # (i + 1, j + 1)
    coefficient, target = witt.basis_brackets(p)
    m = np.zeros((len(u), p), dtype=np.int64) if out is None else out
    m[np.arange(len(u)), target[u, v]] = coefficient[u, v]
    return m


def delta2_matrix(field: PrimeField, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix of d2 on coordinates: C(p,3) rows, C(p,2) columns, scattered from _triple_terms.

    out, when given, must be zero; the matrix is scattered into it (as
    restricted.delta2_res_matrix does into its corner) and returned.
    """
    return _terms_matrix(_triple_terms(field.p), field.p, out)


@lru_cache(maxsize=None)
def coordinate_grades(p: int, degree: int) -> np.ndarray:
    """Read-only grade of every coordinate of the restricted cochains of degree 1, 2 or 3, in coordinate order.

    W is graded by index sum, [e_i, e_j] = (j - i) e_{i+j}: a wedge of
    basis duals (e^i, a pair, a triple) has its index sum mod p as its
    grade, and a value of the restricted tail (omega_i in degree 2, the
    beta row (a, b) in degree 3) the grade of its first index.  Grades lie
    in [-1, p - 2].  The ordinary coordinates are the first C(p, degree),
    so the ordinary grades are a prefix; every reader of a grade reads
    this vector.
    """
    wedges = {1: np.arange(-1, p - 1)[None], 2: np.stack(upper_triangle(p)) - 1, 3: triple_index(p)}[degree]
    tail = np.repeat(np.arange(-1, p - 1), p ** (degree - 2) if degree > 1 else 0)
    return _read_only((np.concatenate([wedges.sum(axis=0), tail]) + 1) % p - 1)


def grade_table(grades: np.ndarray, p: int) -> np.ndarray:
    """Row k + 1 lists the positions of grade k in ascending order, padded with -1 to the longest row.

    grades holds values in [-1, p - 2]; the triples of p = 3 are the only
    ones whose grades are not equally common.
    """
    order = np.argsort(grades, kind="stable")
    counts = np.bincount(grades + 1, minlength=p)
    table = np.full((p, counts.max(initial=0)), -1)
    table[grades[order] + 1, np.arange(len(grades)) - np.repeat(np.cumsum(counts) - counts, counts)] = order
    return table


@lru_cache(maxsize=None)
def grade_tables(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only grade_table of the canonical pairs and triples, read off the ordinary prefixes of coordinate_grades."""
    tables = tuple(grade_table(coordinate_grades(p, d)[: comb(p, d)], p) for d in (2, 3))
    for table in tables:
        table.flags.writeable = False
    return tables


def graded_blocks(m: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """m[rows[..., i], cols[..., j]] for index arrays (..., R) and (..., C); a row index -1 gives a zero row."""
    blocks = m[rows[..., :, None], cols[..., None, :]]
    blocks[rows < 0] = 0
    return blocks


def delta2_block(d2: np.ndarray, p: int, k: int | np.ndarray) -> np.ndarray:
    """The grade-k block of the assembled ordinary d2: grade-k triple rows, grade-k pair columns.

    k may be an array of grades, giving their blocks as a stack (..., R, C).
    A grade with fewer triples than the most (at p = 3) ends in zero rows.
    """
    cols, rows = grade_tables(p)
    return graded_blocks(d2, rows[k + 1], cols[k + 1])


def virasoro_cocycle(field: PrimeField) -> Cochain2Ord:
    """The grade-zero cocycle with cubic coefficients n(n^2 - 4)/3 on e^{n, p-n}.

    It generates the ordinary degree-2 cohomology; the central extension it
    defines is the modular Virasoro algebra.  Needs p > 3 (division by 3).
    """
    p = field.p
    if p <= 3:
        raise ValueError("the cubic-coefficient cocycle needs p > 3")
    inv3 = field.inv(3)
    terms: dict[tuple[int, int], int] = {}
    for n in range(1, (p - 1) // 2 + 1):
        pair = (n, normalize_index(p - n, p))
        terms[pair] = (n * (n * n - 4) * inv3) % p
    return c2_from_dict(field, terms)
