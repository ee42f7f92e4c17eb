"""Independent brute-force oracles the tests freeze expected values from.

Everything here enumerates sequences with itertools and evaluates cochains
by explicit double/triple loops, or composes CyclicPoly objects one
product at a time, deliberately avoiding the library's stacked numpy
kernels, so agreement is meaningful.  sample_rows gives the kernels'
test inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from wittcoh.gfp import PrimeField
from wittcoh.ordinary import Cochain2Ord, Cochain3Ord
from wittcoh.restricted import Cochain2Res
from wittcoh.witt import (
    WittElement,
    basis_element,
    bracket_chain,
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


def star_sum_naive(phi: Cochain2Ord, g: WittElement, h: WittElement) -> int:
    """Literal sequence sum over the 2^{p-2} choices, no sharing."""
    p = phi.field.p
    field = phi.field
    total = 0
    for choice in itertools.product([g, h], repeat=p - 2):
        seq = [g, h, *choice]
        chain = bracket_chain(seq[0], seq[1 : p - 1])
        last = seq[p - 1]
        count = sum(1 for s in seq if s is g)
        val = 0
        for i in chain.support():
            for j in last.support():
                val += chain.coeff(i) * last.coeff(j) * phi.value(i, j)
        total += field.inv(count) * val
    return total % p


def starstar_sum_naive(
    alpha: Cochain3Ord, g: WittElement, h1: WittElement, h2: WittElement
) -> int:
    p = alpha.field.p
    field = alpha.field
    total = 0
    for choice in itertools.product([1, 2], repeat=p - 2):
        labels = [1, 2, *choice]
        hs = [h1 if l == 1 else h2 for l in labels]
        chain = bracket_chain(hs[0], hs[1 : p - 1])
        last = hs[p - 1]
        count = sum(1 for l in labels if l == 1)
        val = 0
        for m in g.support():
            for i in chain.support():
                for j in last.support():
                    val += g.coeff(m) * chain.coeff(i) * last.coeff(j) * alpha.value(m, i, j)
        total += field.inv(count) * val
    return total % p


def jacobi_failure_by_loops(t: np.ndarray, p: int) -> tuple[int, int, int] | None:
    """First basis triple (u, v, w), row-major, whose Jacobi sum from structure constants t is nonzero mod p."""
    n = len(t)
    for u, v, w in itertools.product(range(n), repeat=3):
        if ((t[u, v] @ t[:, w] + t[v, w] @ t[:, u] + t[w, u] @ t[:, v]) % p).any():
            return u, v, w
    return None


def first_axiom_failure(t: np.ndarray, field: PrimeField) -> str | None:
    """What a loop over W's basis triples reports first for structure constants t, or None.

    Antisymmetry of (x, y) is tested before Jacobi on each (x, y, z), and
    every bracket is contracted from t for one pair of elements.
    """
    p = field.p

    def br(x, y):
        return WittElement(field, tuple(int(v) for v in np.einsum("s,t,stm->m", x.coeffs, y.coeffs, t) % p))

    basis = [basis_element(field, i) for i in range(-1, p - 1)]
    for x, y, z in itertools.product(basis, repeat=3):
        if not (br(x, y) + br(y, x)).is_zero():
            return "antisymmetry fails"
        if not (br(br(x, y), z) + br(br(y, z), x) + br(br(z, x), y)).is_zero():
            return f"Jacobi fails on {x!r}, {y!r}, {z!r}"
    return None


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
