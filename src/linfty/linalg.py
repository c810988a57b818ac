"""Exact linear algebra over the rationals.

Small dense routines on lists of Fractions: reduced row echelon form,
span/membership bookkeeping, and a deterministic pseudo-inverse used to
choose canonical preimages.  Everything is exact; no floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rref(rows: Iterable[Sequence[Fraction]]):
    """Reduced row echelon form.

    Returns (rows, pivots): the nonzero rows with leading ones and the
    list of pivot column indices, pivots chosen leftmost-first.
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return [], []
    width = len(work[0])
    pivots: list[int] = []
    row = 0
    for col in range(width):
        pivot_row = None
        for r in range(row, len(work)):
            if work[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[row], work[pivot_row] = work[pivot_row], work[row]
        lead = work[row][col]
        if lead != 1:
            work[row] = [v / lead for v in work[row]]
        for r in range(len(work)):
            if r != row and work[r][col]:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[row])]
        pivots.append(col)
        row += 1
        if row == len(work):
            break
    return [r for r in work[:row]], pivots


class Subspace:
    """Span of rational vectors of a fixed width, kept in RREF."""

    def __init__(self, width: int, vectors: Iterable[Sequence[Fraction]] = ()):
        self.width = width
        self.rows, self.pivots = rref(vectors)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def contains(self, vector: Sequence[Fraction]) -> bool:
        return not any(self.reduce(vector))

    def reduce(self, vector: Sequence[Fraction]):
        """Remainder of a vector modulo the span (canonical coset rep)."""
        v = list(vector)
        for row, pivot in zip(self.rows, self.pivots):
            if v[pivot]:
                factor = v[pivot]
                v = [a - factor * b for a, b in zip(v, row)]
        return v

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.width == other.width
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Subspace(width={self.width}, dim={self.dim})"


def solve_linear(columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]):
    """Solve sum_j x_j * columns[j] = target.

    Returns the canonical solution with free variables zero and pivots
    preferred in column order, or None if the system is inconsistent.
    """
    height = len(target)
    width = len(columns)
    augmented = []
    for i in range(height):
        augmented.append([Fraction(col[i]) for col in columns] + [Fraction(target[i])])
    rows, pivots = rref(augmented)
    solution = [_ZERO] * width
    for row, pivot in zip(rows, pivots):
        if pivot == width:
            return None
        solution[pivot] = row[width]
    return solution


def kernel_basis(columns: Sequence[Sequence[Fraction]], height: int):
    """Basis of the kernel of the matrix with the given columns."""
    width = len(columns)
    rows_in = [[columns[j][i] for j in range(width)] for i in range(height)]
    rows, pivots = rref(rows_in)
    pivot_set = set(pivots)
    basis = []
    for free in range(width):
        if free in pivot_set:
            continue
        vec = [_ZERO] * width
        vec[free] = _ONE
        for row, pivot in zip(rows, pivots):
            vec[pivot] = -row[free]
        basis.append(vec)
    return basis
