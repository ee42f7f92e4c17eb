"""Exact dense linear algebra over prime fields GF(p).

Matrices are numpy int64 arrays in row-major layout with every entry
reduced to the canonical range [0, p).  Elimination is Gauss-Jordan with
the first nonzero entry in column order as pivot, so ranks, echelon forms
and kernel bases are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def is_prime(n: int) -> bool:
    """Primality by trial division."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PrimeField:
    """The prime field GF(p) for p >= 3; scalars are residues in [0, p)."""

    p: int

    def __post_init__(self) -> None:
        if self.p < 3:
            raise ValueError(f"modulus must be at least 3, got {self.p}")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def inv(self, a: int) -> int:
        """Multiplicative inverse via Fermat; raises on zero input."""
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def matrix(self, rows) -> np.ndarray:
        """Reduce a 2-D array-like into a canonical GF(p) matrix."""
        m = np.array(rows, dtype=np.int64)
        if m.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
        return m % self.p

    def rref(self, m) -> tuple[np.ndarray, list[int]]:
        """Reduced row echelon form and the (strictly increasing) pivot columns."""
        a = self.matrix(m)
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
            a[r] = (a[r] * self.inv(int(a[r, c]))) % self.p
            col = a[:, c].copy()
            col[r] = 0
            a = (a - np.outer(col, a[r])) % self.p
            pivots.append(c)
            r += 1
        return a, pivots

    def rank(self, m) -> int:
        return len(self.rref(m)[1])

    def kernel_basis(self, m) -> list[np.ndarray]:
        """Basis of the right kernel {v : m v = 0}, one vector per free column."""
        a = self.matrix(m)
        _, cols = a.shape
        r, pivots = self.rref(a)
        free = [c for c in range(cols) if c not in set(pivots)]
        basis = []
        for f in free:
            v = np.zeros(cols, dtype=np.int64)
            v[f] = 1
            for row, c in enumerate(pivots):
                v[c] = (-int(r[row, f])) % self.p
            basis.append(v)
        return basis
