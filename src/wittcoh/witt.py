"""The modular Witt algebra over GF(p).

W = Der(A) for A = GF(p)[x]/(x^p - 1) has basis e_{-1}, ..., e_{p-2} with
e_i = x^{i+1} d/dx and bracket [e_i, e_j] = (j - i) e_{i+j}, the index sum
taken mod p and normalized back into the window {-1, ..., p-2}.

W carries a restricted structure: e_0^{[p]} = e_0, e_i^{[p]} = 0 for
i != 0, and the p-th power of a general element is determined from the
basis values by the summand expansion

    (g + h)^{[p]} = g^{[p]} + h^{[p]} + sum_{i=1}^{p-1} s_i(g, h),

where i * s_i(g, h) is the coefficient of lambda^{i-1} in the iterated
bracket [g, lambda*g + h, ..., lambda*g + h] with p - 1 bracket
applications (brackets taken from the right, so [x, a] is one
application of a to x).

Two independent p-th power algorithms are provided, each a row kernel on
stacked coefficient arrays (..., p) with a one-row entry point:

* the fold over basis terms driven by that expansion (pth_power_rows,
  pth_power).  Each step joins the prefix sum with the next term; rows are
  padded with zero terms, which add no summand, so every step of every row
  goes through one stacked summands_total call;
* (p-1)-fold composition of the underlying derivation with itself, using
  that the p-th power of D = f*d/dx is the derivation sending x to
  D^{p-1}(f) (pth_power_via_derivation_rows, pth_power_via_derivation):
  p - 1 stacked products with each row's matrix of q -> f * dq/dx.

Agreement of the two routes is a strong consistency check, made by
verify's witt.pth_power_oracle and exercised heavily by the test suite.
The derivation kernel's own oracle, composition of cyclic polynomials one
product at a time, lives in tests/oracles.py.

bracket is the formula route, a loop over two supports; the stacked
kernels take their brackets from the structure tensor (_bracket_tensor),
and verify's witt.antisymmetry_jacobi compares the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gfp import PrimeField


class ProportionalityError(ArithmeticError):
    """A p-th power failed to be a scalar multiple of its argument."""


def normalize_index(m: int, p: int) -> int:
    """Reduce an integer mod p into the basis-index window {-1, ..., p-2}."""
    return (m + 1) % p - 1


@dataclass(frozen=True)
class WittElement:
    """Element of W as a coefficient vector; coeffs[i + 1] multiplies e_i."""

    field: PrimeField
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        p = self.field.p
        if len(self.coeffs) != p:
            raise ValueError(f"need {p} coefficients, got {len(self.coeffs)}")
        object.__setattr__(self, "coeffs", tuple(c % p for c in self.coeffs))

    @property
    def p(self) -> int:
        return self.field.p

    def coeff(self, i: int) -> int:
        """Coefficient of e_i, for i in {-1, ..., p-2}."""
        if not -1 <= i <= self.p - 2:
            raise ValueError(f"basis index {i} out of range for p={self.p}")
        return self.coeffs[i + 1]

    def support(self) -> list[int]:
        """Basis indices with nonzero coefficient, ascending."""
        return [t - 1 for t, c in enumerate(self.coeffs) if c]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "WittElement") -> "WittElement":
        _check_same_field(self, other)
        return WittElement(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "WittElement") -> "WittElement":
        _check_same_field(self, other)
        return WittElement(self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "WittElement":
        return WittElement(self.field, tuple(-a for a in self.coeffs))

    def __rmul__(self, scalar: int) -> "WittElement":
        return WittElement(self.field, tuple(scalar * a for a in self.coeffs))

    def __repr__(self) -> str:
        terms = []
        for i in self.support():
            c = self.coeff(i)
            terms.append(f"e{i}" if c == 1 else f"{c}*e{i}")
        return " + ".join(terms) if terms else "0"


def zero(field: PrimeField) -> WittElement:
    return WittElement(field, (0,) * field.p)


def basis_element(field: PrimeField, i: int, coefficient: int = 1) -> WittElement:
    """coefficient * e_i."""
    if not -1 <= i <= field.p - 2:
        raise ValueError(f"basis index {i} out of range for p={field.p}")
    coeffs = [0] * field.p
    coeffs[i + 1] = coefficient % field.p
    return WittElement(field, tuple(coeffs))


def from_dict(field: PrimeField, terms: dict[int, int]) -> WittElement:
    """Element from a {basis index: coefficient} mapping."""
    coeffs = [0] * field.p
    for i, c in terms.items():
        if not -1 <= i <= field.p - 2:
            raise ValueError(f"basis index {i} out of range for p={field.p}")
        coeffs[i + 1] = (coeffs[i + 1] + c) % field.p
    return WittElement(field, tuple(coeffs))


def random_element(field: PrimeField, rng, nonzero: bool = False) -> WittElement:
    while True:
        g = WittElement(field, tuple(rng.randrange(field.p) for _ in range(field.p)))
        if not nonzero or not g.is_zero():
            return g


def first_failure(rng, draw, count: int, failing) -> tuple[list, int | None]:
    """Draw count samples with draw(), test them all at once; (samples, first failing index or None).

    failing(samples) gives one flag per sample.  A loop testing each sample
    as it is drawn stops drawing after the first failure, so rng is wound
    back to where that loop leaves it and every later draw is unchanged.
    """
    state = rng.getstate()
    samples = [draw() for _ in range(count)]
    bad = np.flatnonzero(failing(samples)) if samples else []
    if not len(bad):
        return samples, None
    k = int(bad[0])
    rng.setstate(state)
    for _ in range(k + 1):
        draw()
    return samples, k


def _check_same_field(x: WittElement, y: WittElement) -> None:
    if x.field.p != y.field.p:
        raise ValueError(f"elements live over different fields (p={x.field.p} vs p={y.field.p})")


@lru_cache(maxsize=None)
def _bracket_tensor(p: int) -> np.ndarray:
    """T[s, t, m] with [e_{s-1}, e_{t-1}] = sum_m T[s, t, m] e_{m-1}."""
    t = np.zeros((p, p, p), dtype=np.int64)
    for s in range(p):
        for u in range(p):
            t[s, u, (s + u - 1) % p] = (u - s) % p
    return t


def bracket(x: WittElement, y: WittElement) -> WittElement:
    """Lie bracket, the bilinear extension of [e_i, e_j] = (j - i) e_{i+j}.

    A loop over the two supports by the formula, independent of
    _bracket_tensor, with which verify and the tests compare it.
    """
    _check_same_field(x, y)
    p = x.p
    sx = [(s, a) for s, a in enumerate(x.coeffs) if a]
    sy = [(t, b) for t, b in enumerate(y.coeffs) if b]
    res = [0] * p
    for s, a in sx:
        for t, b in sy:
            m = (s + t - 1) % p
            res[m] = (res[m] + a * b * (t - s)) % p
    return WittElement(x.field, tuple(res))


def bracket_chain(first: WittElement, rest) -> WittElement:
    """Left-nested iterated bracket [[..[[g1, g2], g3], ..], gj]."""
    rest = list(rest)
    if not rest:
        raise ValueError("bracket chain needs at least two factors")
    acc = first
    for g in rest:
        acc = bracket(acc, g)
    return acc


def pth_power_basis(field: PrimeField, i: int) -> WittElement:
    """e_i^{[p]}: e_0 for i = 0 and zero otherwise."""
    if not -1 <= i <= field.p - 2:
        raise ValueError(f"basis index {i} out of range for p={field.p}")
    return basis_element(field, 0) if i == 0 else zero(field)


# float64 holds every integer below this exactly.
_EXACT_FLOAT = 2**53

# Memory bound on one block of every blocked scan: the stacked bracket
# matrices or lambda rows of a row kernel (fold_rows) or of the extension
# sum-axiom sweep, the Jacobi sums of jacobi_scan, and the chain rows of
# verify's exhaustive ** oracle.
_SWEEP_BYTES = 64 << 20


@lru_cache(maxsize=None)
def _right_bracket_rows(p: int) -> np.ndarray:
    """R with row t the flattened right-bracket matrix of e_{t-1}, in float64 (see lambda_rows)."""
    return np.ascontiguousarray(_bracket_tensor(p).transpose(1, 0, 2)).reshape(p, p * p).astype(np.float64)


def right_bracket_matrix(v: np.ndarray, p: int) -> np.ndarray:
    """Matrix B with (x @ B) = [x, v] on coefficient row vectors of W; v may be stacked (..., p)."""
    return (v @ _right_bracket_rows(p)).astype(np.int64).reshape(v.shape[:-1] + (p, p)) % p


def jacobi_scan(t: np.ndarray, p: int) -> tuple[int, int, int] | None:
    """The first basis triple (u, v, w), in row-major order, whose Jacobi sum is nonzero mod p; None if none is.

    t[u, v, m] is the coefficient of b_m in [b_u, b_v] for any algebra given
    by structure constants (W's _bracket_tensor, or an extension's table),
    and the Jacobi sum is [[b_u, b_v], b_w] + [[b_v, b_w], b_u] + [[b_w, b_u], b_v].
    For a block of u the three terms are products of the tensor with a slice
    of itself, in float64, which is exact: every entry of the sum stays below
    3 n (p - 1)^2 < 2^53.  Blocks of u keep the four (block, n, n, n) arrays
    alive at once within _SWEEP_BYTES, so the whole n^4 tensor is never held.
    """
    n = t.shape[0]
    tf = (t % p).astype(np.float64)
    by_first = tf.reshape(n * n, n)  # [(x, y), s]
    by_last = tf.reshape(n, n * n)  # [s, (y, m)]
    block = max(1, _SWEEP_BYTES // (32 * n**3))
    for lo in range(0, n, block):
        part = tf[:, lo : lo + block]  # t[:, u, :] for u in the block
        k = part.shape[1]
        total = (tf[lo : lo + block].reshape(k * n, n) @ by_last).reshape(k, n, n, n)  # [[b_u, b_v], b_w]
        total += (by_first @ part.reshape(n, k * n)).reshape(n, n, k, n).transpose(2, 0, 1, 3)  # [[b_v, b_w], b_u]
        total += (part.reshape(n * k, n) @ by_last).reshape(n, k, n, n).transpose(1, 2, 0, 3)  # [[b_w, b_u], b_v]
        bad = np.argwhere((total.astype(np.int64) % p).any(axis=3))
        if bad.size:
            u, v, w = (int(i) for i in bad[0])
            return lo + u, v, w
    return None


@lru_cache(maxsize=None)
def _inverse_vector(p: int) -> np.ndarray:
    """inv[i] = i^{-1} mod p for i >= 1 (slot 0 unused)."""
    inv = np.zeros(p, dtype=np.int64)
    for a in range(1, p):
        inv[a] = pow(a, p - 2, p)
    return inv


def lambda_rows(start: np.ndarray, bg: np.ndarray, bh: np.ndarray, steps: int, p: int) -> np.ndarray:
    """Coefficient rows (by lambda-degree) of [start, lambda*g + h, ...], `steps` applications.

    bg and bh are the right-bracket matrices of g and h in any Lie algebra
    given on coefficient vectors (W itself, or a central extension).
    Bracketing a lambda-polynomial with lambda*g + h sends degree k to
    degree k (the h part) and k+1 (the g part), so one application is two
    matrix products on the stacked rows; row k sums the 2^steps chains
    [start, x_1, ..., x_steps], x_i in {g, h}, that use g exactly k times.

    Leading axes broadcast: start (..., n) with bg, bh (..., n, n) gives
    rows (..., steps + 1, n), so many recurrences run as one.  The products
    run in float64, which takes the BLAS path and is exact on integers
    below 2^53; one step multiplies the largest entry by at most
    2 n (p - 1), so the rows are reduced mod p only before they could
    leave that range.
    """
    lead = np.broadcast_shapes(start.shape[:-1], bg.shape[:-2], bh.shape[:-2])
    n = start.shape[-1]
    growth = 2 * n * (p - 1)
    if (p - 1) * growth >= _EXACT_FLOAT:
        raise ValueError(f"p = {p} is too large for exact float64 products")
    bg, bh = (bg % p).astype(np.float64), (bh % p).astype(np.float64)
    rows = np.zeros(lead + (steps + 1, n))
    rows[..., 0, :] = start % p
    top = p - 1  # bound on every entry of the rows so far
    for k in range(1, steps + 1):
        if top * growth >= _EXACT_FLOAT:
            rows[..., :k, :] = rows[..., :k, :].astype(np.int64) % p
            top = p - 1
        done = rows[..., :k, :]
        from_g = done @ bg
        rows[..., :k, :] = done @ bh
        rows[..., 1 : k + 1, :] += from_g
        top *= growth
    return rows.astype(np.int64) % p


def summands_total(gv: np.ndarray, bg: np.ndarray, bh: np.ndarray, p: int) -> np.ndarray:
    """sum_{i=1}^{p-1} s_i(g, h) as a coefficient vector, s_i from lambda^{i-1} / i; stacks like lambda_rows."""
    rows = lambda_rows(gv, bg, bh, p - 1, p)
    return (_inverse_vector(p)[1:, None] * rows[..., : p - 1, :]).sum(axis=-2) % p


def jacobson_s(g: WittElement, h: WittElement) -> list[WittElement]:
    """The summands s_1, ..., s_{p-1}.

    i * s_i is the lambda^{i-1} coefficient of the lambda-polynomial
    [g, lambda*g + h, ..., lambda*g + h] with p-1 applications, one call of
    the lambda_rows kernel.
    """
    _check_same_field(g, h)
    field, p = g.field, g.p
    gv = np.array(g.coeffs, dtype=np.int64)
    hv = np.array(h.coeffs, dtype=np.int64)
    rows = lambda_rows(gv, right_bracket_matrix(gv, p), right_bracket_matrix(hv, p), p - 1, p)
    return [field.inv(i) * WittElement(field, tuple(rows[i - 1].tolist())) for i in range(1, p)]


def fold_terms(g: WittElement, order=None) -> np.ndarray:
    """The basis terms a*e_i of g as coefficient rows, in fold order.

    order may be any permutation of g.support(); ascending is the default.
    Fold step k joins the prefix sum of rows 0..k-1 with row k.
    """
    support = g.support()
    order = support if order is None else list(order)
    if sorted(order) != support:
        raise ValueError("the fold order must be a permutation of the support")
    terms = np.zeros((len(order), g.p), dtype=np.int64)
    for k, i in enumerate(order):
        terms[k, i + 1] = g.coeff(i)
    return terms


def fold_steps(terms: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(prefix sum, next term) of every fold step of stacked terms (..., k, p)."""
    return np.cumsum(terms[..., :-1, :], axis=-2) % p, terms[..., 1:, :]


def fold_rows(kernel, gs: np.ndarray, p: int) -> np.ndarray:
    """kernel(terms, p) on the fold terms of stacked rows gs (..., p), in ascending basis order.

    Each row's basis terms are padded at the end with zero terms to the
    longest row; a zero term adds no summand and leaves the prefix sum as
    it is, so each row folds exactly as over its own support.  Single-term
    rows take no fold step and are stacked apart, so they are not padded;
    zero rows take the value of an empty fold.  Stacks are split into
    blocks whose bracket matrices stay within _SWEEP_BYTES.
    """
    flat = gs.reshape(-1, p) % p
    sizes = np.count_nonzero(flat, axis=1)
    slots = np.cumsum(flat != 0, axis=1) - 1  # slot of each nonzero entry among its row's terms
    out = kernel(np.zeros((len(flat), 0, p), dtype=np.int64), p)
    for rows in (np.flatnonzero(sizes == 1), np.flatnonzero(sizes > 1)):
        width = sizes[rows].max(initial=1)
        block = max(1, _SWEEP_BYTES // (8 * width * p * p))
        for lo in range(0, len(rows), block):
            part = rows[lo : lo + block]
            r, c = np.nonzero(flat[part])
            terms = np.zeros((len(part), width, p), dtype=np.int64)
            terms[r, slots[part][r, c], c] = flat[part][r, c]
            out[part] = kernel(terms, p)
    return out.reshape(gs.shape[:-1] + out.shape[-1:])


def _fold_power(terms: np.ndarray, p: int) -> np.ndarray:
    """p-th powers of the sums of stacked fold terms (..., k, p): basis powers plus every step's summands."""
    power = np.zeros(terms.shape[:-2] + (p,), dtype=np.int64)
    power[..., 1] = terms[..., 1].sum(axis=-1)  # (a e_0)^{[p]} = a^p e_0 = a e_0, other basis powers vanish
    if terms.shape[-2] > 1:
        prefixes, nexts = fold_steps(terms, p)
        steps = summands_total(prefixes, right_bracket_matrix(prefixes, p), right_bracket_matrix(nexts, p), p)
        power += steps.sum(axis=-2)
    return power % p


def pth_power_rows(gs: np.ndarray, p: int) -> np.ndarray:
    """Fold p-th powers of stacked coefficient rows (..., p), as rows."""
    return fold_rows(_fold_power, gs, p)


def pth_power(g: WittElement, term_order=None) -> WittElement:
    """p-th power by folding the summand expansion over g's basis terms.

    Each fold step applies the sum axiom to (prefix sum, next term); this is
    the one-row call of the fold kernel.  term_order may be any permutation
    of g.support(); the result does not depend on it (checked by tests),
    ascending order is the default.
    """
    power = _fold_power(fold_terms(g, term_order), g.p)
    return WittElement(g.field, tuple(power.tolist()))


@lru_cache(maxsize=None)
def _shift_index(p: int) -> np.ndarray:
    """S[j, m] = (m - j + 1) mod p."""
    return (np.arange(p)[None, :] - np.arange(p)[:, None] + 1) % p


def pth_power_via_derivation_rows(gs: np.ndarray, p: int) -> np.ndarray:
    """Derivation-route p-th powers of stacked coefficient rows (..., p), as rows.

    A row g is the coefficient vector of f with g = f * d/dx (e_i maps to
    x^{i+1}, the same position), and D: q -> f * dq/dx is q @ M with
    M[j, m] = j * f[(m - j + 1) mod p]: d/dx sends x^j to j x^{j-1} and the
    product with f is a cyclic convolution.  g^{[p]} sends x to D^{p-1}(f),
    so it is f @ M^{p-1}, taken as p - 1 stacked vector-matrix products.
    """
    gs = gs % p
    step = np.arange(p)[:, None] * gs[..., _shift_index(p)] % p
    q = gs
    for _ in range(p - 1):
        q = (q[..., None, :] @ step)[..., 0, :] % p
    return q


def pth_power_via_derivation(g: WittElement) -> WittElement:
    """Independent p-th power: apply D: q -> f * dq/dx to f a total of p-1 times (one-row call)."""
    power = pth_power_via_derivation_rows(np.array(g.coeffs, dtype=np.int64), g.p)
    return WittElement(g.field, tuple(power.tolist()))


def gamma(g: WittElement) -> int:
    """The scalar with g^{[p]} = gamma(g) * g; defined for nonzero g."""
    if g.is_zero():
        raise ValueError("gamma is defined for nonzero elements only")
    field = g.field
    power = pth_power(g)
    i = g.support()[0]
    scalar = (power.coeff(i) * field.inv(g.coeff(i))) % field.p
    if power != scalar * g:
        raise ProportionalityError(f"p-th power of {g!r} is not proportional to it")
    return scalar
