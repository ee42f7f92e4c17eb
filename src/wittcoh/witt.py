"""The modular Witt algebra over GF(p).

W = Der(A) for A = GF(p)[x]/(x^p - 1) has basis e_{-1}, ..., e_{p-2} with
e_i = x^{i+1} d/dx and bracket [e_i, e_j] = (j - i) e_{i+j}, the index sum
taken mod p and normalized back into the window {-1, ..., p-2}.  Its
elements (WittElement) are gfp.Coordinates, p coefficients.

W carries a restricted structure, its basis powers one table (basis_powers:
e_0^{[p]} = e_0, e_i^{[p]} = 0 for i != 0), and the p-th power of a general
element is determined from the basis values by the summand expansion

    (g + h)^{[p]} = g^{[p]} + h^{[p]} + sum_{i=1}^{p-1} s_i(g, h),

where i * s_i(g, h) is the coefficient of lambda^{i-1} in the iterated
bracket [g, lambda*g + h, ..., lambda*g + h] with p - 1 bracket
applications (brackets taken from the right, so [x, a] is one
application of a to x).

Two independent p-th power algorithms are provided, each a row kernel on
stacked coefficient arrays (..., p) with a one-row entry point:

* the fold over basis terms driven by that expansion (pth_power_rows,
  pth_power), each row in ascending or its own order.  Each step joins the
  prefix sum with the next term, and one fold (fold) builds the steps of
  every row straight from the rows, runs summands_total on them in blocks
  and sums each row's; restricted's omega functionals take the same fold;
* (p-1)-fold composition of the underlying derivation with itself, using
  that the p-th power of D = f*d/dx is the derivation sending x to
  D^{p-1}(f) (pth_power_via_derivation_rows, pth_power_via_derivation):
  p - 1 stacked products with each row's matrix of q -> f * dq/dx.

Agreement of the two routes is a strong consistency check, made by
verify's witt.pth_power_oracle and exercised heavily by the test suite.
The derivation kernel's own oracle, composition of cyclic polynomials one
product at a time, lives in tests/oracles.py.  Every chain
[e_a, e_b, ..., e_b] is one scalar recurrence (basis_chains), which
restricted's ind2 reads with p - 1 factors and verify's
witt.adjoint_power_on_w with p; dense matrix powers are its test oracle.

Every bracket takes the formula route: right_bracket_matrix builds stacked
right-bracket matrices by index arithmetic, and bracket_rows (with bracket
its one-row call) and the stacked kernels multiply by them.  The structure
tensor (_bracket_tensor) is built apart from them, the independent side
that verify's witt.antisymmetry_jacobi compares bracket_rows with.

Random samples are drawn in bulk with the values and the generator state
of one rng.randrange call per value: randbelow reads many draws off one
getrandbits call, and random_records is the stacked form of samples drawn
part by part (a part that must be nonzero redrawn while zero), with
random_rows, the stacked form of random_element, its one-part call.
first_failure and first_failures test a batch of samples at once and wind
the generator back to where a loop testing them one by one would stop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gfp import Coordinates, PrimeField, as_int, as_int_array, check_same_field


class ProportionalityError(ArithmeticError):
    """A p-th power failed to be a scalar multiple of its argument."""


def normalize_index(m: int, p: int) -> int:
    """Reduce an integer mod p into the basis-index window {-1, ..., p-2}."""
    return (m + 1) % p - 1


def _check_index(i: int, p: int) -> None:
    """Refuse a basis index outside the window {-1, ..., p-2} with ValueError naming it."""
    if not -1 <= i <= p - 2:
        raise ValueError(f"basis index {i} out of range for p={p}")


@dataclass(frozen=True)
class WittElement(Coordinates):
    """Element of W as a coefficient vector; coeffs[i + 1] multiplies e_i."""

    coeffs: tuple[int, ...]
    not_integer = "coefficients must be integers, got {entries!r}"

    @property
    def p(self) -> int:
        return self.field.p

    def coeff(self, i: int) -> int:
        """Coefficient of e_i, for i in {-1, ..., p-2}."""
        _check_index(i, self.p)
        return self.coeffs[i + 1]

    def support(self) -> list[int]:
        """Basis indices with nonzero coefficient, ascending."""
        return [t - 1 for t, c in enumerate(self.coeffs) if c]

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
    _check_index(i, field.p)
    coeffs = [0] * field.p
    coeffs[i + 1] = coefficient
    return WittElement(field, tuple(coeffs))


# The methods behind Random.randrange whose draws randbelow reads off getrandbits.
_DRAW_METHODS = ("randrange", "getrandbits", "_randbelow")


def randbelow(rng, n: int, count: int) -> np.ndarray:
    """The values of count calls of rng.randrange(n), 0 < n < 2^32, as one int64 array; rng ends where they leave it.

    randrange(n) is getrandbits(n.bit_length()), the top bits of one 32-bit
    word of the generator, redrawn while it is not below n; and
    getrandbits(32 m) is the next m words, least significant first.  So
    one call gives the words of many draws: each is shifted, the values not
    below n are dropped, and exactly the shortfall is drawn again, never
    more.  The last few values, fewer than 32, are drawn one at a time
    as randrange draws them, which costs less than another round.  A
    generator whose class replaces randrange, getrandbits or _randbelow is
    called once per value instead.
    """
    n, count = as_int(n, "the bound"), as_int(count, "the count")
    if not 0 < n < 2**32 or count < 0:
        raise ValueError(f"randbelow needs 0 < n < 2^32 and count >= 0, got n = {n}, count = {count}")
    if type(rng) is not random.Random and any(
        getattr(type(rng), name, None) is not getattr(random.Random, name) for name in _DRAW_METHODS
    ):
        return np.array([rng.randrange(n) for _ in range(count)], dtype=np.int64).reshape(count)
    bits, getrandbits = n.bit_length(), rng.getrandbits
    parts, need = [], count
    while need >= 32:
        words = np.frombuffer(getrandbits(32 * need).to_bytes(4 * need, "little"), dtype="<u4") >> (32 - bits)
        parts.append(words[words < n])
        need -= len(parts[-1])
    last = []
    for _ in range(need):
        value = getrandbits(bits)
        while value >= n:
            value = getrandbits(bits)
        last.append(value)
    return np.concatenate(parts + [np.array(last, dtype=np.int64)])


def random_rows(rng, p: int, count: int, nonzero: bool = False, width: int | None = None) -> np.ndarray:
    """count rows (count, width) of draws below p, width p by default, each drawn as random_element draws one.

    The one-part call of random_records: with nonzero, a zero row is
    redrawn at once, as random_element redraws it.
    """
    return random_records(rng, p, count, [(p if width is None else width, nonzero)])[0]


def random_records(rng, p: int, count: int, parts) -> list[np.ndarray]:
    """count records of parts (width, nonzero) drawn in turn, each part width draws below p; an array per part.

    The whole batch is drawn in one call.  A part that must be nonzero and
    came out zero (rare: about p^-width) is redrawn at once by a loop over
    the records, so then the values drawn are read again in that loop's
    order, and only what it needs beyond them is drawn.
    """
    widths = [width for width, _ in parts]
    values = randbelow(rng, p, count * sum(widths))
    drawn = np.split(values.reshape(count, sum(widths)), np.cumsum(widths)[:-1], axis=1)
    if all(rows.any(axis=1).all() for rows, (_, nonzero) in zip(drawn, parts) if nonzero):
        return drawn
    records, at = [[] for _ in parts], 0
    for k in range(count):
        for part, (width, nonzero) in enumerate(parts):
            while True:
                if at + width > len(values):  # the least the loop still draws: this part and all after it
                    rest = sum(widths[part:]) + (count - k - 1) * sum(widths)
                    values = np.concatenate([values, randbelow(rng, p, rest - (len(values) - at))])
                row, at = values[at : at + width], at + width
                if not nonzero or row.any():
                    break
            records[part].append(row)
    return [np.array(rows).reshape(count, width) for rows, width in zip(records, widths)]


def elements(field: PrimeField, rows) -> list[WittElement]:
    """The elements of stacked coefficient rows (..., p), in row-major order."""
    return [WittElement(field, tuple(row)) for row in np.reshape(rows, (-1, field.p)).tolist()]


def random_element(field: PrimeField, rng, nonzero: bool = False) -> WittElement:
    """A random element of W: the one-row call of random_rows."""
    return elements(field, random_rows(rng, field.p, 1, nonzero))[0]


def shuffled_support(g: WittElement, rng) -> list[int]:
    """g.support() in a random order, one rng.shuffle of it."""
    order = g.support()
    rng.shuffle(order)
    return order


class RowError(ValueError):
    """A stacked call refused one of its rows; index is the row's position in the stack (0 in a one-row call)."""

    def __init__(self, message: str, index: int = 0) -> None:
        super().__init__(message)
        self.index = index


def first_failure(rng, draw, count: int, failing) -> tuple[list, int | None]:
    """Draw count samples with draw(count), test them all at once; (samples, first failing index or None).

    failing(samples) gives one flag per sample.  A loop testing each sample
    as it is drawn stops drawing after the first failure, at sample j, so
    rng is wound back and draw(j + 1) redraws what that loop drew: every
    later draw is unchanged.  If failing raises a RowError, the sample it
    names fails, and the samples before it are tested again.
    """

    def flags(samples):
        try:
            return failing(samples)
        except RowError as err:
            return [*(flags(samples[: err.index]) if err.index else []), True]

    samples, (k,) = first_failures([rng], lambda _, m: draw(m), count, lambda drawn: [flags(drawn[0])])
    return samples[0], k


def first_failures(rngs, draw, count: int, failing) -> tuple[list, list[int | None]]:
    """first_failure for several generators whose samples are tested together.

    draw(rng, m) draws m samples from rng, and failing takes the count
    samples of every generator, one batch each, and gives one row of flags
    per generator.  Each generator is wound back as first_failure winds
    back its one, so its draws are those of its own loop.
    """
    states = [rng.getstate() for rng in rngs]
    samples = [draw(rng, count) for rng in rngs]
    flags = failing(samples) if count and rngs else [[]] * len(rngs)
    firsts: list[int | None] = []
    for rng, state, row in zip(rngs, states, flags):
        bad = np.flatnonzero(row)
        firsts.append(int(bad[0]) if bad.size else None)
        if bad.size:
            rng.setstate(state)
            draw(rng, firsts[-1] + 1)
    return samples, firsts


@lru_cache(maxsize=None)
def _bracket_tensor(p: int) -> np.ndarray:
    """T[s, t, m] with [e_{s-1}, e_{t-1}] = sum_m T[s, t, m] e_{m-1}, scattered over the index pairs (s, t)."""
    s, t = np.indices((p, p))
    tensor = np.zeros((p, p, p), dtype=np.int64)
    tensor[s, t, (s + t - 1) % p] = (t - s) % p
    return tensor


@lru_cache(maxsize=None)
def _shift_index(p: int) -> np.ndarray:
    """S[j, m] = (m - j + 1) mod p."""
    return (np.arange(p)[None, :] - np.arange(p)[:, None] + 1) % p


def right_bracket_matrix(v, p: int) -> np.ndarray:
    """Matrix B with (x @ B) = [x, v] on coefficient row vectors of W; v may be stacked (..., p), any integers.

    Straight from [e_{s-1}, e_{t-1}] = (t - s) e_{s+t-2}: row s is [e_{s-1}, v],
    whose position m reads v's position t = m - s + 1 mod p weighted t - s, off
    a table of residue products, all in index arithmetic with no structure
    constants.  v is reduced mod p first, and B is C-contiguous, the layout
    lambda_rows' stacked products take at full speed.
    """
    t = _shift_index(p)  # t[s, m]
    at = np.take(as_int_array(v, p) % p, t, axis=-1)  # v's entry at position t[s, m]
    at += (t - np.arange(p)[:, None]) % p * p  # its weight t - s picks the table's row
    return np.take(np.arange(p)[:, None] * np.arange(p) % p, at)


def bracket_rows(xs, ys, p: int) -> np.ndarray:
    """[x, y] of stacked coefficient rows (..., p), broadcast against each other, as rows reduced mod p.

    x's row times y's right_bracket_matrix, so any integers will do and no
    structure constants are read; every sum stays below p^3.
    """
    return (as_int_array(xs, p)[..., None, :] % p @ right_bracket_matrix(ys, p))[..., 0, :] % p


def bracket(x: WittElement, y: WittElement) -> WittElement:
    """Lie bracket, the bilinear extension of [e_i, e_j] = (j - i) e_{i+j}: the one-row call of bracket_rows."""
    check_same_field(x, y)
    return WittElement(x.field, tuple(bracket_rows(np.array(x.coeffs), np.array(y.coeffs), x.p).tolist()))


def basis_chains(p: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Every chain [e_a, e_b, ..., e_b] with `steps` factors e_b, as c * e_m: (c, m), (p, p) arrays over [a + 1, b + 1].

    m is a position, like a + 1 and b + 1; [c e_m, e_b] = c (b - m) e_{m+b} keeps one basis vector.
    """
    a, b = np.indices((p, p))
    c, m = np.ones_like(a), a
    for _ in range(steps):
        c, m = c * (b - m) % p, (m + b - 1) % p
    return c, m


@lru_cache(maxsize=None)
def basis_powers(p: int) -> np.ndarray:
    """Read-only (p, p) table whose row i + 1 is e_i^{[p]}: e_0^{[p]} = e_0, and every other e_i^{[p]} vanishes."""
    powers = np.zeros((p, p), dtype=np.int64)
    powers[1, 1] = 1
    powers.setflags(write=False)
    return powers


def pth_power_basis(field: PrimeField, i: int) -> WittElement:
    """e_i^{[p]}: row i + 1 of basis_powers."""
    _check_index(i, field.p)
    return WittElement.from_vector(field, basis_powers(field.p)[i + 1])


# float64 holds every integer below this exactly.
_EXACT_FLOAT = 2**53

# Memory bound on one block of every blocked scan (sweep_blocks): the real
# steps of a fold (behind both p-maps), the lambda rows of the extension
# axioms' basis-pair sweep, the Jacobi sums of jacobi_scan, the gathered
# terms of ordinary's term tables, and the chain rows of the exhaustive **
# oracle in tests/oracles.py.
_SWEEP_BYTES = 64 << 20


def sweep_blocks(n: int, item_bytes: int) -> list[slice]:
    """range(n) as the fewest slices of at most _SWEEP_BYTES // item_bytes items (one at least), sized evenly.

    Even slices take as many calls as full ones and hold fewer items at
    once.  None is empty, except the one slice of n = 0.
    """
    count = -(-n // max(1, _SWEEP_BYTES // item_bytes)) or 1
    size = -(-n // count)
    return [slice(k * size, (k + 1) * size) for k in range(count)]


def jacobi_scan(t: np.ndarray, p: int) -> tuple[int, int, int] | None:
    """The first basis triple (u, v, w), in row-major order, whose Jacobi sum is nonzero mod p; None if none is.

    t[u, v, m] is the coefficient of b_m in [b_u, b_v] for any algebra given
    by structure constants (W's _bracket_tensor, or an extension's table),
    and the Jacobi sum is [[b_u, b_v], b_w] + [[b_v, b_w], b_u] + [[b_w, b_u], b_v].
    For a block of u the three terms are products of the tensor with a slice
    of itself, in float64, which is exact: every entry of the sum stays below
    3 n (p - 1)^2 < 2^53.  Blocks of u (sweep_blocks) keep the four
    (block, n, n, n) arrays alive at once within _SWEEP_BYTES, so the whole
    n^4 tensor is never held.
    """
    n = t.shape[0]
    tf = (t % p).astype(np.float64)
    by_first = tf.reshape(n * n, n)  # [(x, y), s]
    by_last = tf.reshape(n, n * n)  # [s, (y, m)]
    for us in sweep_blocks(n, 32 * n**3):
        part = tf[:, us]  # t[:, u, :] for u in the block
        k = part.shape[1]
        total = (tf[us].reshape(k * n, n) @ by_last).reshape(k, n, n, n)  # [[b_u, b_v], b_w]
        total += (by_first @ part.reshape(n, k * n)).reshape(n, n, k, n).transpose(2, 0, 1, 3)  # [[b_v, b_w], b_u]
        total += (part.reshape(n * k, n) @ by_last).reshape(n, k, n, n).transpose(1, 2, 0, 3)  # [[b_w, b_u], b_v]
        bad = np.argwhere((total.astype(np.int64) % p).any(axis=3))
        if bad.size:
            u, v, w = (int(i) for i in bad[0])
            return us.start + u, v, w
    return None


@lru_cache(maxsize=None)
def _inverse_vector(p: int) -> np.ndarray:
    """inv[i] = i^{-1} mod p for i >= 1, and inv[0] = 0."""
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
    leave that range.  That bound needs every entry of start, bg and bh an
    integer in [0, p), as every caller passes them; an entry outside or a
    float raises ValueError instead of being reduced here again.
    """
    start, bg, bh = (as_int_array(a) for a in (start, bg, bh))
    lead = np.broadcast_shapes(start.shape[:-1], bg.shape[:-2], bh.shape[:-2])
    n = start.shape[-1]
    growth = 2 * n * (p - 1)
    if (p - 1) * growth >= _EXACT_FLOAT:
        raise ValueError(f"p = {p} is too large for exact float64 products")
    if any(a.size and (a.min() < 0 or a.max() >= p) for a in (start, bg, bh)):
        raise ValueError(f"lambda_rows needs entries reduced into [0, {p})")
    bg, bh = bg.astype(np.float64), bh.astype(np.float64)
    rows = np.zeros(lead + (steps + 1, n))
    rows[..., 0, :] = start
    top = p - 1  # bound on every entry of the rows so far
    for k in range(1, steps + 1):
        if top * growth >= _EXACT_FLOAT:
            rows[..., :k, :] = rows[..., :k, :].astype(np.int64) % p
            top = p - 1
        done = rows[..., :k, :]
        from_g = done @ bg
        rows[..., :k, :] = done @ bh
        rows[..., 1 : k + 1, :] += from_g
        del from_g  # not alive into the next step's products
        top *= growth
    return rows.astype(np.int64) % p


def summands_from_rows(rows: np.ndarray, p: int) -> np.ndarray:
    """sum_{i=1}^{p-1} s_i(g, h) from the lambda rows (..., p, n) of [g, lambda*g + h, ...] with p - 1 applications."""
    return (_inverse_vector(p)[1:, None] * rows[..., : p - 1, :]).sum(axis=-2) % p


def summands_total(gv: np.ndarray, bg: np.ndarray, bh: np.ndarray, p: int) -> np.ndarray:
    """sum_{i=1}^{p-1} s_i(g, h) as a coefficient vector, s_i from lambda^{i-1} / i; stacks like lambda_rows."""
    return summands_from_rows(lambda_rows(gv, bg, bh, p - 1, p), p)


def jacobson_s(g: WittElement, h: WittElement) -> list[WittElement]:
    """The summands s_1, ..., s_{p-1}.

    i * s_i is the lambda^{i-1} coefficient of the lambda-polynomial
    [g, lambda*g + h, ..., lambda*g + h] with p-1 applications, one call of
    the lambda_rows kernel.
    """
    check_same_field(g, h)
    field, p = g.field, g.p
    gv = np.array(g.coeffs, dtype=np.int64)
    hv = np.array(h.coeffs, dtype=np.int64)
    rows = lambda_rows(gv, right_bracket_matrix(gv, p), right_bracket_matrix(hv, p), p - 1, p)
    return [field.inv(i) * WittElement(field, tuple(rows[i - 1].tolist())) for i in range(1, p)]


def _ordered_positions(flat: np.ndarray, orders, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, positions) of the terms of coefficient rows flat (N, p), row after row, each row's in its order.

    orders holds one list of basis indices per row, which must be a
    permutation of the row's support.
    """
    listed = [i for order in orders for i in order]
    indices = np.fromiter(listed, dtype=np.int64, count=len(listed))  # truncates a non-integer, which tolist then shows
    lengths = np.array([len(order) for order in orders], dtype=np.int64)
    if len(lengths) == len(flat) and indices.tolist() == listed and ((indices >= -1) & (indices < p - 1)).all():
        rows, positions = np.repeat(np.arange(len(flat)), lengths), indices + 1
        met = np.zeros(flat.shape, dtype=bool)
        met[rows, positions] = True
        # Every term met, and no more indices than terms in all: each order a permutation of its row's support.
        if (met == (flat != 0)).all() and len(rows) == np.count_nonzero(flat):
            return rows, positions
    raise ValueError("the fold order must be a permutation of the support")


def fold(step, gs, p: int, orders=None) -> np.ndarray:
    """Each row's sum of step(prefix sums, next terms) over the fold steps of stacked coefficient rows gs (..., p).

    A row folds over its basis terms a*e_i in its order, ascending or given
    in orders (one permutation of its support per row of gs, row-major):
    step k joins the sum of terms 0..k-1 with term k, so a row of k terms
    takes k - 1 steps and single-term and zero rows take none.  The steps
    of all rows, each row's in a run, go to step in blocks (sweep_blocks),
    a block's (prefix sum, next term) pairs built from the rows as it runs;
    reduceat sums a block's values per row, and a row whose steps straddle
    two blocks collects from both.

    Blocks are sized for nine (p, p) float64 arrays per step.  A block holds
    up to eight at once (the int64 and float64 bracket matrices of both step
    factors, the lambda rows and the step products), measured (tracemalloc,
    20 shuffled rows) at 7.05 to 7.21 for the p-th power and 5.87 to 6.24
    for the correction weights at p = 13, 31, 67 and 103.  Nothing is cached
    beside them, so the spare array keeps a fold within _SWEEP_BYTES at
    every prime up to the cap: 48.5 MiB at p = 103.
    """
    flat = as_int_array(gs, p).reshape(-1, p) % p
    rows, positions = np.nonzero(flat) if orders is None else _ordered_positions(flat, orders, p)
    slots = np.arange(len(rows)) - np.searchsorted(rows, rows)  # each term's place in its row's order
    rank = np.full(flat.shape, p)
    rank[rows, positions] = slots
    real = slots > 0  # a row's first term starts its sum and takes no step
    rows, positions, slots = rows[real], positions[real], slots[real]
    sums = None
    for block in sweep_blocks(len(rows), 9 * 8 * p * p):
        own, at = rows[block], positions[block]
        prefixes = np.where(rank[own] < slots[block, None], flat[own], 0)  # the terms before the step's own
        nexts = np.zeros_like(prefixes)
        nexts[np.arange(len(own)), at] = flat[own, at]
        starts = np.flatnonzero(np.diff(own, prepend=-1))
        part = np.add.reduceat(step(prefixes, nexts), starts)  # the block's values die here
        if sums is None:
            sums = np.zeros((len(flat),) + part.shape[1:], dtype=part.dtype)
        sums[own[starts]] += part
    return sums.reshape(np.shape(gs)[:-1] + sums.shape[1:])


def pth_power_rows(gs: np.ndarray, p: int, orders=None) -> np.ndarray:
    """Fold p-th powers of stacked coefficient rows (..., p), as rows, each folded in its order (see fold).

    (a e_i)^{[p]} = a^p e_i^{[p]} = a e_i^{[p]}, so a row's power is its terms'
    basis powers (basis_powers) plus the summands of every fold step.
    """
    gs = as_int_array(gs, p)
    step = lambda g, h: summands_total(g, right_bracket_matrix(g, p), right_bracket_matrix(h, p), p)  # noqa: E731
    power = fold(step, gs, p, orders)
    power += gs % p @ basis_powers(p)
    power %= p
    return power


def pth_power(g: WittElement, term_order=None) -> WittElement:
    """p-th power by folding the summand expansion over g's basis terms.

    Each fold step applies the sum axiom to (prefix sum, next term); this is
    the one-row call of pth_power_rows.  term_order may be any permutation
    of g.support(); the result does not depend on it (checked by tests),
    ascending order is the default.
    """
    power = pth_power_rows(np.array(g.coeffs), g.p, None if term_order is None else [term_order])
    return WittElement(g.field, tuple(power.tolist()))


def pth_power_via_derivation_rows(gs: np.ndarray, p: int) -> np.ndarray:
    """Derivation-route p-th powers of stacked coefficient rows (..., p), as rows.

    A row g is the coefficient vector of f with g = f * d/dx (e_i maps to
    x^{i+1}, the same position), and D: q -> f * dq/dx is q @ M with
    M[j, m] = j * f[(m - j + 1) mod p]: d/dx sends x^j to j x^{j-1} and the
    product with f is a cyclic convolution.  g^{[p]} sends x to D^{p-1}(f),
    so it is f @ M^{p-1}, taken as p - 1 stacked vector-matrix products.
    """
    gs = as_int_array(gs, p) % p
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
