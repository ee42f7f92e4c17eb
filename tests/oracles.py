"""Independent brute-force oracles the tests freeze expected values from.

Everything here enumerates sequences with itertools and evaluates cochains
by explicit double/triple loops, composes CyclicPoly objects one
product at a time, or assembles the coboundary matrices one wedge at a
time, deliberately avoiding the library's stacked numpy kernels and term
tables, so agreement is meaningful.  Their brackets are bracket_by_loop,
the formula as a loop over two supports, which is also the reference for
witt.bracket_rows (bracket_from_table contracts a given structure tensor
instead); bracket_tensor_by_loop fills W's structure constants one basis
pair at a time, the reference for witt._bracket_tensor.  The one stacked
oracle, starstar_exhaustive, sums the 2^(p-3) label chains of the ** correction
sum one by one as right-bracket rows, with no lambda grouping; it is the
reference for verify's evaluation route up to p = 19.  adjoint_chain_powers
raises every basis right-bracket matrix to the p-th power by dense
products, the reference for the chains the axiom checks read off their
recurrences.  is_prime_by_trial_division is the oracle of gfp.is_prime.
is_graded_table tests, one basis pair at a time, the shape
that graded basis scans of an extension's table may rest on.  rref_by_pivots
row-reduces one matrix a pivot at a time, each pivot updating the whole
matrix, with none of gfp's stacking or row and column selection.
whole_matrix_rank is the whole-matrix rank oracle of verify's rank
certificates: rref_one reduces one matrix in one working copy, each pivot
clearing only the rows nonzero in its column.
The wedge bases have an index of their own here, tuple builders and
position dicts made by loops (pair_position, wedge_triples,
triple_position, graded_pair_positions, graded_triple_positions) with the
sign rules wedge_normalize and triple_normalize: it is the oracle of
ordinary's numpy index tables and of the value methods that read them,
and the loop matrix builders locate their entries through it, reading
none of those tables.  bracket_chain is the left-nested chain through the
library's one-row bracket.
sample_rows gives the kernels' test inputs.  The *_by_loop functions
are verify's stacked checks as loops over one sample, one pair or one
representative at a time, through the one-row calls: each draws,
stops and fails where the stacked check must.  The constructors and
definition-level helpers at the end (from_dict, the grade of one pair or
triple, the zero cochains, d2 from brackets) serve only the tests.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from wittcoh import extensions as ext
from wittcoh import restricted as res
from wittcoh import witt
from wittcoh.gfp import PrimeField, as_int_array
from wittcoh.ordinary import (
    Cochain1,
    Cochain2Ord,
    Cochain3Ord,
    delta1_cl,
    dual_basis,
)
from wittcoh.restricted import Cochain2Res, c2_dim, c3_dim
from wittcoh.witt import (
    WittElement,
    basis_element,
    normalize_index,
    random_element,
)


@dataclass(frozen=True)
class CyclicPoly:
    """Element of A = GF(p)[x]/(x^p - 1); coeffs[k] multiplies x^k."""

    field: PrimeField
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        p = self.field.p
        if len(self.coeffs) != p:
            raise ValueError(f"need {p} coefficients, got {len(self.coeffs)}")
        object.__setattr__(self, "coeffs", tuple(c % p for c in self.coeffs))

    def derivative(self) -> "CyclicPoly":
        """d/dx, well defined on A since d/dx(x^p - 1) = 0 in characteristic p."""
        p = self.field.p
        res = [0] * p
        for k, c in enumerate(self.coeffs):
            if k and c:
                res[k - 1] = (k * c) % p
        return CyclicPoly(self.field, tuple(res))

    def __mul__(self, other: "CyclicPoly") -> "CyclicPoly":
        """Cyclic convolution: the full product with x^p folded back onto 1."""
        p = self.field.p
        full = np.convolve(self.coeffs, other.coeffs)
        full[: p - 1] += full[p:]
        return CyclicPoly(self.field, tuple(int(v) for v in full[:p]))

    def is_zero(self) -> bool:
        return not any(self.coeffs)


def to_cyclic_poly(g: WittElement) -> CyclicPoly:
    """The coefficient polynomial f with g = f * d/dx (e_i maps to x^{i+1})."""
    p = g.field.p
    coeffs = [0] * p
    for i in g.support():
        coeffs[(i + 1) % p] = g.coeff(i)
    return CyclicPoly(g.field, tuple(coeffs))


def from_cyclic_poly(f: CyclicPoly) -> WittElement:
    """Inverse of to_cyclic_poly: x^k maps to e_{k-1}."""
    p = f.field.p
    coeffs = [0] * p
    for k, c in enumerate(f.coeffs):
        coeffs[k] = c  # x^k -> e_{k-1}, which sits at position (k - 1) + 1 = k
    return WittElement(f.field, tuple(coeffs))


def pth_power_by_composition(g: WittElement) -> WittElement:
    """g^{[p]} for g = f * d/dx: apply D: q -> f * dq/dx to f p - 1 times, as CyclicPoly products."""
    f = to_cyclic_poly(g)
    q = f
    for _ in range(g.p - 1):
        q = f * q.derivative()
    return from_cyclic_poly(q)


def fold_by_loop(step, g: WittElement, order=None):
    """witt.fold of one element as a loop over its terms in order: step on (the sum of the terms so far, the next term),
    one pair at a time, summed; 0 when the element has fewer than two terms."""
    total, prefix = 0, np.zeros(g.p, dtype=np.int64)
    for i in g.support() if order is None else order:
        term = np.zeros(g.p, dtype=np.int64)
        term[i + 1] = g.coeff(i)
        if prefix.any():
            total = total + step(prefix[None], term[None])[0]
        prefix = prefix + term
    return total


def sample_rows(field: PrimeField, rng) -> np.ndarray:
    """Stacked coefficient rows of W: random, sparse (two terms), single-term and zero, 12 in all."""
    p = field.p
    rows = [random_element(field, rng).coeffs for _ in range(4)]
    for size in (2, 2, 1, 1, 1):
        row = [0] * p
        for t in rng.sample(range(p), size):
            row[t] = rng.randrange(1, p)
        rows.append(row)
    rows += [[0] * p] * 3
    order = list(range(len(rows)))
    rng.shuffle(order)  # zero and sparse rows between full ones
    return np.array([rows[i] for i in order], dtype=np.int64)


def bracket_tensor_by_loop(p: int) -> np.ndarray:
    """W's structure constants T[s, t, m], [e_{s-1}, e_{t-1}] = sum_m T[s, t, m] e_{m-1}, one basis pair at a time."""
    t = np.zeros((p, p, p), dtype=np.int64)
    for s in range(p):
        for u in range(p):
            t[s, u, (s + u - 1) % p] = (u - s) % p
    return t


def bracket_by_loop(x: WittElement, y: WittElement) -> WittElement:
    """[x, y] by a loop over the two supports, from [e_i, e_j] = (j - i) e_{i+j}: witt.bracket_rows' reference."""
    if x.field.p != y.field.p:
        raise ValueError(f"elements live over different fields (p={x.field.p} vs p={y.field.p})")
    p = x.p
    res = [0] * p
    for s, a in enumerate(x.coeffs):
        for t, b in enumerate(y.coeffs):
            if a and b:
                m = (s + t - 1) % p
                res[m] = (res[m] + a * b * (t - s)) % p
    return WittElement(x.field, tuple(res))


def chain_by_loop(first: WittElement, rest) -> WittElement:
    """The left-nested chain [[..[[first, r1], r2], ..], rk] through bracket_by_loop."""
    return functools.reduce(bracket_by_loop, rest, first)


def bracket_chain(first: WittElement, rest) -> WittElement:
    """The left-nested chain [[..[[g1, g2], g3], ..], gj] through the library's one-row witt.bracket."""
    rest = list(rest)
    if not rest:
        raise ValueError("bracket chain needs at least two factors")
    return functools.reduce(witt.bracket, rest, first)


def _terms(x: WittElement) -> list[tuple[int, int]]:
    """(i, coefficient of e_i) for every i in x's support."""
    return [(i, x.coeff(i)) for i in x.support()]


def star_sum_naive(phi: Cochain2Ord, g: WittElement, h: WittElement) -> int:
    """Literal sequence sum over the 2^{p-2} choices, no sharing."""
    p = phi.field.p
    field = phi.field
    values = [[phi.value(i, j) for j in range(-1, p - 1)] for i in range(-1, p - 1)]
    total = 0
    for choice in itertools.product([g, h], repeat=p - 2):
        seq = [g, h, *choice]
        chain = chain_by_loop(seq[0], seq[1 : p - 1])
        last = seq[p - 1]
        count = sum(1 for s in seq if s is g)
        last_terms = _terms(last)
        val = 0
        for i, a in _terms(chain):
            for j, b in last_terms:
                val += a * b * values[i + 1][j + 1]
        total += field.inv(count) * val
    return total % p


def starstar_sum_naive(
    alpha: Cochain3Ord, g: WittElement, h1: WittElement, h2: WittElement
) -> int:
    p = alpha.field.p
    field = alpha.field
    index = range(-1, p - 1)
    values = [[[alpha.value(m, i, j) for j in index] for i in index] for m in index]
    g_terms = _terms(g)
    total = 0
    for choice in itertools.product([1, 2], repeat=p - 2):
        labels = [1, 2, *choice]
        hs = [h1 if l == 1 else h2 for l in labels]
        chain = chain_by_loop(hs[0], hs[1 : p - 1])
        last = hs[p - 1]
        count = sum(1 for l in labels if l == 1)
        chain_terms, last_terms = _terms(chain), _terms(last)
        val = 0
        for m, a in g_terms:
            for i, b in chain_terms:
                for j, c in last_terms:
                    val += a * b * c * values[m + 1][i + 1][j + 1]
        total += field.inv(count) * val
    return total % p


def starstar_exhaustive(alpha: Cochain3Ord, g: WittElement, h1: WittElement, h2: WittElement) -> int:
    """The ** correction sum (restricted.starstar_correction) by enumerating every label sequence.

    Sequences (l_1, ..., l_p) with l_1 = 1, l_2 = 2 and the rest free in
    {1, 2} are summed one by one, with no lambda grouping, so this is a
    route independent of the correction weights.  All 2^(p-3) chains
    [h1, h2, h_{l_3}, ..., h_{l_{p-1}}] are stacked rows, grown by one
    right-bracket product per label at each free position, and each row's
    count of 1-labels rides along.  The last factor contracts against
    t[i, j] = alpha(g ^ e_i ^ e_j), weighted 1/(count + 1) for l_p = 1 and
    1/count for l_p = 2.  The first free labels are enumerated in an outer
    loop so that the rows of one block stay within witt._SWEEP_BYTES.  The
    products run in float64, exact below 2^53: one product multiplies the
    largest entry by at most p (p - 1), and rows are reduced mod p before
    they could leave that range.
    """
    p = alpha.field.p
    gv, h1v, h2v = (np.array(x.coeffs, dtype=np.int64) for x in (g, h1, h2))
    t = np.einsum("m,mij->ij", gv, alpha.to_dense()) % p
    ends = (t @ np.stack([h1v, h2v], axis=1) % p).astype(np.float64)  # column l - 1: the contraction with h_l
    b = witt.right_bracket_matrix(np.stack([h1v, h2v]), p).astype(np.float64)
    inv = witt._inverse_vector(p)
    growth = p * (p - 1)
    free = p - 3
    # Positions grown as stacked rows; the rest are enumerated one prefix at a
    # time.  A block holds four arrays of its rows: rows, grown, and the two
    # temporaries of a reduction.
    low = free
    while low and (32 * p << low) > witt._SWEEP_BYTES:
        low -= 1
    rows, grown = np.empty((2, 1 << low, p))
    ones = np.zeros(1, dtype=np.int64)  # 1-labels among the grown positions, in the order the rows grow
    for _ in range(low):
        ones = np.concatenate([ones + 1, ones])
    total = 0
    for high in itertools.product((0, 1), repeat=free - low):
        chain = h1v @ b[1] % p
        for label in high:
            chain = chain @ b[label] % p
        rows[0], top = chain, p - 1  # top bounds every entry of the rows
        for k in range(low):
            n = 1 << k
            if top * growth >= witt._EXACT_FLOAT:
                rows[:n], top = rows[:n].astype(np.int64) % p, p - 1
            np.matmul(rows[:n], b[0], out=grown[:n])
            np.matmul(rows[:n], b[1], out=grown[n : 2 * n])
            rows, grown = grown, rows
            top *= growth
        if top * growth >= witt._EXACT_FLOAT:
            rows[:] = rows.astype(np.int64) % p
        vals = (rows @ ends).astype(np.int64) % p
        counts = 1 + high.count(0) + ones
        total += int((inv[counts + 1] * vals[:, 0] + inv[counts] * vals[:, 1]).sum())
    return total % p


def jacobi_failure_by_loops(t: np.ndarray, p: int) -> tuple[int, int, int] | None:
    """First basis triple (u, v, w), row-major, whose Jacobi sum from structure constants t is nonzero mod p."""
    n = len(t)
    for u, v, w in itertools.product(range(n), repeat=3):
        if ((t[u, v] @ t[:, w] + t[v, w] @ t[:, u] + t[w, u] @ t[:, v]) % p).any():
            return u, v, w
    return None


def bracket_from_table(x: WittElement, y: WittElement, t: np.ndarray) -> WittElement:
    """[x, y] contracted from structure constants t (W's _bracket_tensor, or a corrupted copy)."""
    return WittElement(x.field, tuple(int(v) for v in np.einsum("s,t,stm->m", x.coeffs, y.coeffs, t) % x.p))


def first_axiom_failure(t: np.ndarray, field: PrimeField) -> str | None:
    """What a loop over W's basis triples reports first for structure constants t, or None.

    Antisymmetry of (x, y) is tested before Jacobi on each (x, y, z), and
    every bracket is contracted from t for one pair of elements.
    """
    p = field.p

    def br(x, y):
        return bracket_from_table(x, y, t)

    basis = [basis_element(field, i) for i in range(-1, p - 1)]
    for x, y, z in itertools.product(basis, repeat=3):
        if not (br(x, y) + br(y, x)).is_zero():
            return "antisymmetry fails"
        if not (br(br(x, y), z) + br(br(y, z), x) + br(br(z, x), y)).is_zero():
            return f"Jacobi fails on {x!r}, {y!r}, {z!r}"
    return None


def adjoint_chain_powers(t: np.ndarray, p: int) -> np.ndarray:
    """chains[u] = R(b_u)^p for structure constants t, R(b_u) = t[:, u] the right-bracket matrix of b_u.

    Row v of chains[u] is [b_v, b_u, ..., b_u] with p factors b_u: every
    right-bracket matrix raised to the p-th power by p - 1 dense products.
    """
    right = t.transpose(1, 0, 2) % p
    chains = right
    for _ in range(p - 1):
        chains = chains @ right % p
    return chains


def is_graded_table(table: np.ndarray, p: int) -> bool:
    """Whether an extension's bracket table (p + 1, p + 1, p + 1) is graded, by a loop over the basis pairs.

    The W part of [b_s, b_t] for W's positions s, t < p must be one multiple
    of the basis vector of grade (s - 1) + (t - 1), at position
    (s + t - 1) mod p; its central part is free.  c's row and column
    (position p) must be zero.
    """
    for s in range(p + 1):
        for t in range(p + 1):
            allowed = {(s + t - 1) % p, p} if s < p and t < p else set()
            if any(table[s, t, m] % p for m in range(p + 1) if m not in allowed):
                return False
    return True


def to_dense_by_loops(alpha: Cochain3Ord) -> np.ndarray:
    """Cochain3Ord.to_dense one triple at a time: its value at the six signed permutations of the positions."""
    p = alpha.field.p
    d = np.zeros((p, p, p), dtype=np.int64)
    for (r, s, t), v in zip(wedge_triples(p), alpha.values):
        a, b, c = r + 1, s + 1, t + 1
        d[a, b, c] = d[b, c, a] = d[c, a, b] = v
        d[a, c, b] = d[b, a, c] = d[c, b, a] = (-v) % p
    return d


def omega_by_enumeration(c: Cochain2Res, g: WittElement) -> int:
    """omega(g) by head-vs-rest recursion with the naive star sum.

    Splits off the leading basis term and recurses on the remainder, the
    opposite association from the library's left-accumulating fold.
    """
    field = c.field
    p = field.p
    support = g.support()
    if not support:
        return 0
    i = support[0]
    a = g.coeff(i)
    head = basis_element(field, i, a)
    head_value = pow(a, p, p) * c.omega_value(i) % p
    if len(support) == 1:
        return head_value
    rest = g - head
    return (
        head_value + omega_by_enumeration(c, rest) + star_sum_naive(c.phi, head, rest)
    ) % p


# The wedge bases indexed by loops: ordinary's numpy tables (upper_triangle, pair_coordinates, triple_index,
# triple_coordinate and the rows of grade_tables) must agree with these tuple builders and position dicts.


@functools.lru_cache(maxsize=None)
def pair_position(p: int) -> dict[tuple[int, int], int]:
    """Coordinate of every canonical pair (i, j), -1 <= i < j <= p-2, numbered lexicographically."""
    pairs = ((i, j) for i in range(-1, p - 1) for j in range(i + 1, p - 1))
    return {pair: n for n, pair in enumerate(pairs)}


@functools.lru_cache(maxsize=None)
def wedge_triples(p: int) -> tuple[tuple[int, int, int], ...]:
    """Canonical triples (r, s, t), -1 <= r < s < t <= p-2, lexicographic."""
    return tuple(
        (r, s, t)
        for r in range(-1, p - 1)
        for s in range(r + 1, p - 1)
        for t in range(s + 1, p - 1)
    )


@functools.lru_cache(maxsize=None)
def triple_position(p: int) -> dict[tuple[int, int, int], int]:
    return {trip: n for n, trip in enumerate(wedge_triples(p))}


def graded_pair_positions(p: int, k: int) -> list[int]:
    """The coordinates of the pairs of grade k, ascending."""
    return [n for pair, n in pair_position(p).items() if pair_grade(p, pair) == k]


def graded_triple_positions(p: int, k: int) -> list[int]:
    """The coordinates of the triples of grade k, ascending."""
    return [n for trip, n in triple_position(p).items() if triple_grade(p, trip) == k]


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


def _add_wedge(m: np.ndarray, row: int, coefficient: int, i: int, j: int, p: int) -> None:
    """m[row] gains coefficient * phi(e_i ^ e_j) on phi's pair coordinates."""
    w = wedge_normalize(i, j)
    if w is not None:
        a, b, sign = w
        m[row, pair_position(p)[(a, b)]] += coefficient * sign


def delta1_matrix_by_loops(field: PrimeField) -> np.ndarray:
    """d1's matrix column by column: column k + 1 is the coordinate vector of delta1_cl(e^k)."""
    p = field.p
    m = np.zeros((len(pair_position(p)), p), dtype=np.int64)
    for col in range(p):
        m[:, col] = delta1_cl(dual_basis(field, col - 1)).to_vector()
    return m


def delta2_matrix_by_loops(field: PrimeField) -> np.ndarray:
    """d2's matrix row by row: the three terms phi([e_r, e_s] ^ e_t) - ... of every canonical triple."""
    p = field.p
    m = np.zeros((len(wedge_triples(p)), len(pair_position(p))), dtype=np.int64)
    for row, (r, s, t) in enumerate(wedge_triples(p)):
        for coef, a, b in ((s - r, r + s, t), (-(t - r), r + t, s), (t - s, s + t, r)):
            _add_wedge(m, row, coef, normalize_index(a, p), b, p)
    return m % p


def delta2_res_matrix_by_loops(field: PrimeField) -> np.ndarray:
    """d2_res's matrix: d2 on the phi columns, and the beta rows from the generic bracket chain.

    Row (a, b) is phi(e_a ^ e_b^{[p]}) - phi([e_a, e_b, ..., e_b] ^ e_b).
    """
    p = field.p
    n2, n3 = len(pair_position(p)), len(wedge_triples(p))
    m = np.zeros((c3_dim(p), c2_dim(p)), dtype=np.int64)
    m[:n3, :n2] = delta2_matrix_by_loops(field)
    for a in range(-1, p - 1):
        for b in range(-1, p - 1):
            row = n3 + (a + 1) * p + (b + 1)
            if b == 0:  # e_0^{[p]} = e_0, and every other e_b^{[p]} vanishes
                _add_wedge(m, row, 1, a, 0, p)
            chain = chain_by_loop(basis_element(field, a), [basis_element(field, b)] * (p - 1))
            for k in chain.support():
                _add_wedge(m, row, -chain.coeff(k), k, b, p)
    return m % p


def is_prime_by_trial_division(n: int) -> bool:
    """Primality by trial division up to the square root of n: the oracle of gfp.is_prime's Miller-Rabin."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def rref_by_pivots(field: PrimeField, m) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of one matrix and its pivot columns, one pivot at a time.

    The reference for both of PrimeField.rref's eliminations: each pivot
    swaps the first row with a nonzero entry in its column into place and
    clears that column from the whole matrix.
    """
    a = as_int_array(m) % field.p
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * field.inv(int(a[r, c]))) % field.p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % field.p
        pivots.append(c)
        r += 1
    return a, pivots


def rref_one(field: PrimeField, m) -> tuple[np.ndarray, np.ndarray]:
    """rref of one matrix and its pivot columns as a mask, in one working copy, one pivot at a time.

    Each pivot clears only the rows that are nonzero in its column, and
    only from the pivot's column on, so it stays fast on the sparse dense
    coboundary matrices.
    """
    p = field.p
    m = np.array(m, dtype=np.int64)  # the one working copy, reduced in place
    m %= p
    rows, cols = m.shape
    pivots = np.zeros(cols, dtype=bool)
    r = 0
    for c in range(cols):
        if r == rows:
            break
        active = np.flatnonzero(m[:, c])
        k = active.searchsorted(r)
        if k == len(active):
            continue
        i = active[k]
        if i != r:
            m[[r, i]] = m[[i, r]]  # row i is now zero in c, and row r is set below
        pivot_row = m[r, c:] * pow(int(m[r, c]), p - 2, p) % p
        rest = m[active, c:]
        rest -= rest[:, :1] * pivot_row
        m[active, c:] = rest % p
        m[r, c:] = pivot_row
        pivots[c] = True
        r += 1
    return m, pivots


def whole_matrix_rank(field: PrimeField, m) -> int:
    """The rank of one whole matrix, by rref_one."""
    return int(np.count_nonzero(rref_one(field, m)[1]))


def kernel_basis_by_pivots(field: PrimeField, m) -> list[np.ndarray]:
    """Right kernel basis of one matrix read off rref_by_pivots, one vector per free column."""
    r, pivots = rref_by_pivots(field, m)
    cols = r.shape[1]
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = np.zeros(cols, dtype=np.int64)
        v[f] = 1
        for row, c in enumerate(pivots):
            v[c] = (-int(r[row, f])) % field.p
        basis.append(v)
    return basis



# verify's extension-layer checks one sample at a time.  Every library call
# goes through its module, so a test's monkeypatch reaches these loops and
# the stacked checks alike.


def antisymmetry_jacobi_by_loop(field: PrimeField, rng) -> str:
    """verify's witt.antisymmetry_jacobi as loops: the basis triples, then witt.bracket on each basis pair, row-major,
    then the 100 random triples, drawn first, each tested for antisymmetry, Jacobi and its bracket in turn."""
    p = field.p
    t = witt._bracket_tensor(p) % p
    failure = first_axiom_failure(t, field)
    assert failure is None, failure
    basis = [basis_element(field, i) for i in range(-1, p - 1)]
    for x, y in itertools.product(basis, repeat=2):
        same = witt.bracket(x, y) == bracket_from_table(x, y, t)
        assert same, f"bracket disagrees with the table on {x!r}, {y!r}"
    triples = [tuple(random_element(field, rng) for _ in range(3)) for _ in range(100)]
    for x, y, z in triples:
        xy = bracket_from_table(x, y, t)
        assert (xy + bracket_from_table(y, x, t)).is_zero(), "antisymmetry fails"
        yz, zx = bracket_from_table(y, z, t), bracket_from_table(z, x, t)
        jacobi = bracket_from_table(xy, z, t) + bracket_from_table(yz, x, t) + bracket_from_table(zx, y, t)
        assert jacobi.is_zero(), f"Jacobi fails on {x!r}, {y!r}, {z!r}"
        assert witt.bracket(x, y) == xy, f"bracket disagrees with the table on {x!r}, {y!r}"
    return f"{p**3 + len(triples)} triples"


def omega_fold_invariance_by_loop(field: PrimeField, rng, ker) -> str:
    """verify's restricted.omega_fold_invariance as a loop testing each shuffled order as it is drawn."""
    p = field.p
    for _ in range(10):
        c = res.Cochain2Res.from_vector(field, sum(rng.randrange(p) * v for v in ker) % p)
        g = random_element(field, rng, True)
        base = res.eval_omega(c, g)
        for _ in range(5):
            order = g.support()
            rng.shuffle(order)
            assert res.eval_omega(c, g, fold_order=order) == base, "fold order changes omega"
    return "10 cocycles x 5 orders"


def restricted_h2_by_loop(field: PrimeField) -> res.RestrictedH2:
    """restricted.restricted_h2 with one cocycle test and one coboundary split per representative."""
    p = field.p
    cx = res.cochain_complex(field)
    reps = ([res.virasoro_cochain(field)] if p > 3 else []) + [res.omega_coordinate(field, i) for i in range(-1, p - 1)]
    if not all(map(res.is_cocycle, reps)):
        raise ArithmeticError("representative candidate is not a cocycle")
    rests = np.vstack([cx.split_coboundary(r.to_vector())[1] for r in reps])
    if field.rank(rests) != len(reps) or cx.rank_d1_res + len(reps) != len(cx.ker_d2_res):
        raise ArithmeticError("representatives do not complete im d1 to ker d2")
    return res.RestrictedH2(len(cx.ker_d2_res), cx.rank_d1_res, cx.h_restricted[2], tuple(reps))


def roundtrip_by_loop(field: PrimeField, rng, ker) -> str:
    """verify's extensions.roundtrip: each kernel sample is drawn, built, extracted and compared in turn."""
    p = field.p
    for _ in range(10):
        c = res.Cochain2Res.from_vector(field, sum(rng.randrange(p) * v for v in ker) % p)
        e = ext.build_extension(c)
        back = ext.extract_cocycle(e, ext.canonical_splitting(e))
        assert back == c, "extraction does not invert construction"
    return "10 kernel samples"


def splitting_shift_by_loop(field: PrimeField, rng, reps) -> str:
    """verify's extensions.splitting_independence: per representative, build, draw psi, extract, compare."""
    p = field.p
    for c in reps[:4]:
        e = ext.build_extension(c)
        psi = Cochain1(field, tuple(rng.randrange(p) for _ in range(p)))
        sigma = [ext.ExtElement(basis_element(field, i), psi.coeff(i)) for i in range(-1, p - 1)]
        shifted = ext.extract_cocycle(e, sigma)
        assert shifted == c - res.delta1_res(psi), "shifted extraction != c - d1(psi)"
        same, _ = ext.cohomologous(shifted, c)
        assert same, "shifted extraction not cohomologous to the source"
    return f"{len(reps[:4])} splittings"


def class_independence_by_loop(field: PrimeField, reps) -> str:
    """verify's extensions.class_independence: every pair at p <= 7, else one rest per representative and a rank."""
    if field.p <= 7:
        for a in range(len(reps)):
            for b in range(a + 1, len(reps)):
                same, _ = ext.cohomologous(reps[a], reps[b])
                assert not same, f"representatives {a} and {b} are cohomologous"
        return f"all {len(reps) * (len(reps) - 1) // 2} pairs"
    cx = res.cochain_complex(field)
    rests = np.vstack([cx.split_coboundary(c.to_vector())[1] for c in reps])
    assert field.rank(rests) == len(reps), "classes dependent modulo coboundaries"
    return "rank-based"


def classification_counts_by_loop(field: PrimeField, reps) -> str:
    """verify's extensions.classification_counts: one classify_extension call per representative."""
    p = field.p
    labels = [ext.classify_extension(c) for c in reps]
    levi_only = sum(1 for label in labels if label is ext.Classification.ORDINARY_LEVI_ONLY)
    non_levi = sum(1 for label in labels if label is ext.Classification.NON_LEVI)
    assert not any(label is ext.Classification.SPLIT for label in labels), "a representative is split"
    assert levi_only == p, f"{levi_only} ordinary-split classes != p"
    expected_non_levi = 1 if p > 3 else 0
    assert non_levi == expected_non_levi, f"{non_levi} non-split classes"
    return ""


# Small constructors and cross-check helpers the library itself never calls.


def from_dict(field: PrimeField, terms: dict[int, int]) -> WittElement:
    """Element of W from a {basis index: coefficient} mapping."""
    coeffs = [0] * field.p
    for i, c in terms.items():
        if not -1 <= i <= field.p - 2:
            raise ValueError(f"basis index {i} out of range for p={field.p}")
        coeffs[i + 1] = (coeffs[i + 1] + c) % field.p
    return WittElement(field, tuple(coeffs))


def pair_grade(p: int, pair: tuple[int, int]) -> int:
    return normalize_index(pair[0] + pair[1], p)


def triple_grade(p: int, trip: tuple[int, int, int]) -> int:
    return normalize_index(trip[0] + trip[1] + trip[2], p)


def c3_zero(field: PrimeField) -> Cochain3Ord:
    return Cochain3Ord(field, (0,) * (field.p * (field.p - 1) * (field.p - 2) // 6))


def c2res_zero(field: PrimeField) -> Cochain2Res:
    return Cochain2Res(Cochain2Ord(field, (0,) * (field.p * (field.p - 1) // 2)), (0,) * field.p)


def wedge_eval(phi: Cochain2Ord, g: WittElement, h: WittElement) -> int:
    """phi(g ^ h) by bilinear extension."""
    m = phi.to_matrix()
    gv = np.array(g.coeffs, dtype=np.int64)
    hv = np.array(h.coeffs, dtype=np.int64)
    return int((gv @ m @ hv) % phi.field.p)


def bracket_delta2_value(phi: Cochain2Ord, g: WittElement, h: WittElement, k: WittElement) -> int:
    """(d2 phi)(g ^ h ^ k) straight from the definition, for cross-checks."""
    p = phi.field.p
    return (
        wedge_eval(phi, bracket_by_loop(g, h), k)
        - wedge_eval(phi, bracket_by_loop(g, k), h)
        + wedge_eval(phi, bracket_by_loop(h, k), g)
    ) % p
