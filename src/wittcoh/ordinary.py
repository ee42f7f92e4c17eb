"""Ordinary (Chevalley-Eilenberg) cochains of W with trivial coefficients.

Degrees 0..3 only.  Cochains are stored on canonical wedge bases: e^{i,j}
for -1 <= i < j <= p-2 and e^{r,s,t} for -1 <= r < s < t <= p-2, ordered
ascending in the index window (so -1 < 0 < 1 < ...).  Everything is graded
by the index sum mod p and both coboundaries preserve the grading.  This
module assembles the dense coboundary matrices and their grade blocks;
ranks, kernels and the cohomology dimensions are read off them once per
prime, block by block, by restricted.cochain_complex, and the whole dense
matrices serve as the oracle for those blockwise ranks.

Sign conventions are fixed once and used throughout:
    (d1 psi)(g ^ h)     =  psi([g, h])
    (d2 phi)(g ^ h ^ k) =  phi([g,h] ^ k) - phi([g,k] ^ h) + phi([h,k] ^ g)
so that d1(e^k) = sum of (j - i) e^{i,j} over canonical pairs with
i + j = k mod p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gfp import PrimeField
from .witt import WittElement, bracket, normalize_index


@lru_cache(maxsize=None)
def wedge_pairs(p: int) -> tuple[tuple[int, int], ...]:
    """Canonical pairs (i, j), -1 <= i < j <= p-2, lexicographic."""
    return tuple((i, j) for i in range(-1, p - 1) for j in range(i + 1, p - 1))


@lru_cache(maxsize=None)
def pair_position(p: int) -> dict[tuple[int, int], int]:
    return {pair: n for n, pair in enumerate(wedge_pairs(p))}


@lru_cache(maxsize=None)
def wedge_triples(p: int) -> tuple[tuple[int, int, int], ...]:
    return tuple(
        (r, s, t)
        for r in range(-1, p - 1)
        for s in range(r + 1, p - 1)
        for t in range(s + 1, p - 1)
    )


@lru_cache(maxsize=None)
def triple_position(p: int) -> dict[tuple[int, int, int], int]:
    return {trip: n for n, trip in enumerate(wedge_triples(p))}


def wedge_normalize(i: int, j: int) -> tuple[int, int, int] | None:
    """Canonical form of e_i ^ e_j: (min, max, sign), or None when i = j."""
    if i == j:
        return None
    return (i, j, 1) if i < j else (j, i, -1)


def triple_normalize(r: int, s: int, t: int) -> tuple[tuple[int, int, int], int] | None:
    """Canonical form of e_r ^ e_s ^ e_t with the permutation sign, None if repeated."""
    if r == s or s == t or r == t:
        return None
    sign = 1
    a, b, c = r, s, t
    if a > b:
        a, b, sign = b, a, -sign
    if b > c:
        b, c, sign = c, b, -sign
    if a > b:
        a, b, sign = b, a, -sign
    return (a, b, c), sign


def pair_grade(p: int, pair: tuple[int, int]) -> int:
    return normalize_index(pair[0] + pair[1], p)


def triple_grade(p: int, trip: tuple[int, int, int]) -> int:
    return normalize_index(trip[0] + trip[1] + trip[2], p)


@dataclass(frozen=True)
class Cochain1:
    """Linear form on W; coeffs[k + 1] is the coefficient of e^k."""

    field: PrimeField
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        p = self.field.p
        if len(self.coeffs) != p:
            raise ValueError(f"need {p} coefficients, got {len(self.coeffs)}")
        object.__setattr__(self, "coeffs", tuple(c % p for c in self.coeffs))

    def coeff(self, k: int) -> int:
        return self.coeffs[k + 1]

    def value(self, g: WittElement) -> int:
        return sum(a * b for a, b in zip(self.coeffs, g.coeffs)) % self.field.p

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "Cochain1") -> "Cochain1":
        return Cochain1(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Cochain1") -> "Cochain1":
        return Cochain1(self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Cochain1":
        return Cochain1(self.field, tuple(-a for a in self.coeffs))

    def __rmul__(self, scalar: int) -> "Cochain1":
        return Cochain1(self.field, tuple(scalar * a for a in self.coeffs))


def dual_basis(field: PrimeField, k: int, coefficient: int = 1) -> Cochain1:
    """coefficient * e^k."""
    if not -1 <= k <= field.p - 2:
        raise ValueError(f"basis index {k} out of range for p={field.p}")
    coeffs = [0] * field.p
    coeffs[k + 1] = coefficient % field.p
    return Cochain1(field, tuple(coeffs))


@dataclass(frozen=True)
class Cochain2Ord:
    """Skew 2-form on W; values aligned with wedge_pairs(p)."""

    field: PrimeField
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        p = self.field.p
        n = p * (p - 1) // 2
        if len(self.values) != n:
            raise ValueError(f"need {n} coefficients, got {len(self.values)}")
        object.__setattr__(self, "values", tuple(v % p for v in self.values))

    def value(self, i: int, j: int) -> int:
        """phi(e_i ^ e_j) for any index order (sign-tracked)."""
        w = wedge_normalize(i, j)
        if w is None:
            return 0
        a, b, sign = w
        return (sign * self.values[pair_position(self.field.p)[(a, b)]]) % self.field.p

    def to_vector(self) -> np.ndarray:
        return np.array(self.values, dtype=np.int64)

    def to_matrix(self) -> np.ndarray:
        """Dense antisymmetric matrix M with M[i+1, j+1] = phi(e_i ^ e_j)."""
        p = self.field.p
        m = np.zeros((p, p), dtype=np.int64)
        m[np.triu_indices(p, 1)] = self.values  # wedge_pairs is the upper triangle, row by row
        return (m - m.T) % p

    def is_zero(self) -> bool:
        return not any(self.values)

    def __add__(self, other: "Cochain2Ord") -> "Cochain2Ord":
        return Cochain2Ord(self.field, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "Cochain2Ord") -> "Cochain2Ord":
        return Cochain2Ord(self.field, tuple(a - b for a, b in zip(self.values, other.values)))

    def __rmul__(self, scalar: int) -> "Cochain2Ord":
        return Cochain2Ord(self.field, tuple(scalar * a for a in self.values))


def c2_zero(field: PrimeField) -> Cochain2Ord:
    return Cochain2Ord(field, (0,) * (field.p * (field.p - 1) // 2))


def c2_from_dict(field: PrimeField, terms: dict[tuple[int, int], int]) -> Cochain2Ord:
    """2-cochain from a {(i, j): coefficient} mapping; pairs may be unordered."""
    vals = [0] * (field.p * (field.p - 1) // 2)
    pos = pair_position(field.p)
    for (i, j), c in terms.items():
        w = wedge_normalize(i, j)
        if w is None:
            if c % field.p:
                raise ValueError(f"nonzero coefficient on degenerate pair ({i}, {j})")
            continue
        a, b, sign = w
        vals[pos[(a, b)]] = (vals[pos[(a, b)]] + sign * c) % field.p
    return Cochain2Ord(field, tuple(vals))


def wedge_eval(phi: Cochain2Ord, g: WittElement, h: WittElement) -> int:
    """phi(g ^ h) by bilinear extension."""
    m = phi.to_matrix()
    gv = np.array(g.coeffs, dtype=np.int64)
    hv = np.array(h.coeffs, dtype=np.int64)
    return int((gv @ m @ hv) % phi.field.p)


@dataclass(frozen=True)
class Cochain3Ord:
    """Skew 3-form on W; values aligned with wedge_triples(p)."""

    field: PrimeField
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        p = self.field.p
        n = p * (p - 1) * (p - 2) // 6
        if len(self.values) != n:
            raise ValueError(f"need {n} coefficients, got {len(self.values)}")
        object.__setattr__(self, "values", tuple(v % p for v in self.values))

    def value(self, r: int, s: int, t: int) -> int:
        w = triple_normalize(r, s, t)
        if w is None:
            return 0
        trip, sign = w
        return (sign * self.values[triple_position(self.field.p)[trip]]) % self.field.p

    def to_vector(self) -> np.ndarray:
        return np.array(self.values, dtype=np.int64)

    def to_dense(self) -> np.ndarray:
        """Dense antisymmetric tensor D with D[r+1, s+1, t+1] = alpha(e_r ^ e_s ^ e_t)."""
        p = self.field.p
        d = np.zeros((p, p, p), dtype=np.int64)
        for (r, s, t), v in zip(wedge_triples(p), self.values):
            a, b, c = r + 1, s + 1, t + 1
            d[a, b, c] = v
            d[b, c, a] = v
            d[c, a, b] = v
            d[a, c, b] = (-v) % p
            d[b, a, c] = (-v) % p
            d[c, b, a] = (-v) % p
        return d

    def is_zero(self) -> bool:
        return not any(self.values)


def c3_zero(field: PrimeField) -> Cochain3Ord:
    return Cochain3Ord(field, (0,) * (field.p * (field.p - 1) * (field.p - 2) // 6))


def delta1_cl(psi: Cochain1) -> Cochain2Ord:
    """(d1 psi)(e_i ^ e_j) = psi([e_i, e_j]) = (j - i) psi(e_{i+j})."""
    field = psi.field
    p = field.p
    vals = [((j - i) * psi.coeff(normalize_index(i + j, p))) % p for i, j in wedge_pairs(p)]
    return Cochain2Ord(field, tuple(vals))


@lru_cache(maxsize=None)
def _triple_terms(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three terms of (d2 phi)(e_r ^ e_s ^ e_t) for every canonical triple, as (3, C(p,3)) arrays.

    Term n is coefficient[n] * phi(e_a ^ e_b) with a, b at matrix positions
    (first[n], second[n]): (s - r, [r+s], t), (-(t - r), [r+t], s) and
    (t - s, [s+t], r), the index sums normalized.
    """
    r, s, t = np.array(wedge_triples(p)).reshape(-1, 3).T
    coefficient = np.stack([s - r, r - t, t - s])
    first = (np.stack([r + s, r + t, s + t]) + 1) % p  # position of normalize_index(a + b)
    second = np.stack([t, s, r]) + 1
    for a in (coefficient, first, second):
        a.flags.writeable = False
    return coefficient, first, second


def _delta2_values(m: np.ndarray, p: int) -> np.ndarray:
    """Coordinates of d2 phi, aligned with wedge_triples(p), from the dense matrix m of phi."""
    coefficient, first, second = _triple_terms(p)
    return (coefficient * m[first, second]).sum(axis=0) % p


def delta2_cl(phi: Cochain2Ord) -> Cochain3Ord:
    """(d2 phi)(e_r ^ e_s ^ e_t) by the alternating three-term expansion."""
    return Cochain3Ord(phi.field, tuple(_delta2_values(phi.to_matrix(), phi.field.p).tolist()))


def delta1_matrix(field: PrimeField) -> np.ndarray:
    """Matrix of d1 on coordinates: C(p,2) rows, p columns (column k+1 is d1(e^k))."""
    p = field.p
    m = np.zeros((len(wedge_pairs(p)), p), dtype=np.int64)
    for col in range(p):
        m[:, col] = delta1_cl(dual_basis(field, col - 1)).to_vector()
    return m


def delta2_matrix(field: PrimeField) -> np.ndarray:
    """Matrix of d2 on coordinates: C(p,3) rows, C(p,2) columns."""
    p = field.p
    pos = pair_position(p)
    m = np.zeros((len(wedge_triples(p)), len(wedge_pairs(p))), dtype=np.int64)
    for row, (r, s, t) in enumerate(wedge_triples(p)):
        for coef, a, b in ((s - r, r + s, t), (-(t - r), r + t, s), (t - s, s + t, r)):
            w = wedge_normalize(normalize_index(a, p), b)
            if w is not None:
                i, j, sign = w
                m[row, pos[(i, j)]] += coef * sign
    return m % p


@lru_cache(maxsize=None)
def _pair_grades(p: int) -> np.ndarray:
    """Read-only grade of every canonical pair, in wedge_pairs order."""
    grades = np.array([pair_grade(p, pair) for pair in wedge_pairs(p)])
    grades.flags.writeable = False
    return grades


@lru_cache(maxsize=None)
def _triple_grades(p: int) -> np.ndarray:
    """Read-only grade of every canonical triple, in wedge_triples order."""
    grades = np.array([triple_grade(p, trip) for trip in wedge_triples(p)])
    grades.flags.writeable = False
    return grades


def graded_pair_positions(p: int, k: int) -> list[int]:
    return np.flatnonzero(_pair_grades(p) == k).tolist()


def graded_triple_positions(p: int, k: int) -> list[int]:
    return np.flatnonzero(_triple_grades(p) == k).tolist()


def delta2_block(d2: np.ndarray, p: int, k: int) -> np.ndarray:
    """The grade-k block of the assembled ordinary d2: grade-k triple rows, grade-k pair columns."""
    return d2[np.ix_(graded_triple_positions(p, k), graded_pair_positions(p, k))]


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


def bracket_delta2_value(phi: Cochain2Ord, g: WittElement, h: WittElement, k: WittElement) -> int:
    """(d2 phi)(g ^ h ^ k) straight from the definition, for cross-checks."""
    p = phi.field.p
    return (
        wedge_eval(phi, bracket(g, h), k)
        - wedge_eval(phi, bracket(g, k), h)
        + wedge_eval(phi, bracket(h, k), g)
    ) % p
