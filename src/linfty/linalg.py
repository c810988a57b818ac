"""Exact linear algebra over the rationals on sparse term dicts.

A vector is a kernel term dict {column: Fraction}; absent columns are
zero.  An explicit column order (a sequence of column keys) decides
which pivots come first, so the reduced row echelon form, and with it
every span, canonical solution and kernel basis below, is unique.  The
one row operation is ``kernel.add_into``.  Everything is exact; no
floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from linfty import kernel


def _eliminate(v: dict, rows: Mapping) -> dict:
    """In place: clear v at every pivot of rows (pivot -> row, each row
    zero at the other pivots) by subtracting that multiple of the row;
    returns v.  A subtraction leaves v's other pivot entries unchanged,
    so one pass over the pivots present in v clears them all."""
    for pivot in [p for p in v if p in rows]:
        kernel.add_into(v, rows[pivot].items(), -v[pivot])
    return v


def rref(rows: Iterable[Mapping], columns: Sequence):
    """Reduced row echelon form of the span of term dicts.

    Inserts one row at a time: it is reduced by the kept rows whose
    pivots it holds, normalised at its leftmost column in the given
    order, and then eliminated from the kept rows that hold that
    column.  Returns (rows, pivots): the nonzero rows, each with a 1 at
    its pivot and 0 at every other pivot, and their pivot columns,
    sorted by rank in columns.  Input rows are not modified.
    """
    rank = {col: i for i, col in enumerate(columns)}
    kept: dict = {}  # pivot -> row
    for row in rows:
        v = _eliminate(kernel.drop_zeros(row), kept)
        if not v:
            continue
        lead = min(v, key=rank.__getitem__)
        if v[lead] != 1:
            v = kernel.scale_terms(v, 1 / v[lead])
        for other in kept.values():
            c = other.get(lead)
            if c:
                kernel.add_into(other, v.items(), -c)
        kept[lead] = v
    pivots = sorted(kept, key=rank.__getitem__)
    return [kept[p] for p in pivots], pivots


class Subspace:
    """Span of term dicts over a fixed column order, kept in RREF."""

    def __init__(self, columns: Sequence, vectors: Iterable[Mapping] = ()):
        self.columns = tuple(columns)
        self.rows, self.pivots = rref(vectors, self.columns)
        self._by_pivot = dict(zip(self.pivots, self.rows))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def contains(self, vector: Mapping) -> bool:
        return not self.reduce(vector)

    def reduce(self, vector: Mapping) -> dict:
        """Remainder of a vector modulo the span (canonical coset rep)."""
        return _eliminate(kernel.drop_zeros(vector), self._by_pivot)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.columns == other.columns
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Subspace(width={len(self.columns)}, dim={self.dim})"


def _transposed(columns: Sequence[Mapping]):
    """The rows {j: columns[j][i]} of the matrix with the given columns."""
    rows: dict = {}
    for j, col in enumerate(columns):
        for i, c in col.items():
            rows.setdefault(i, {})[j] = c
    return rows


def solve_linear(columns: Sequence[Mapping], target: Mapping):
    """Solve sum_j x_j * columns[j] = target.

    Returns the canonical solution {j: x_j} with free variables zero and
    pivots preferred in column order, or None if the system is
    inconsistent.
    """
    width = len(columns)
    rows = _transposed(columns)
    for i, c in target.items():
        rows.setdefault(i, {})[width] = c
    reduced, pivots = rref(rows.values(), range(width + 1))
    if pivots and pivots[-1] == width:
        return None
    return {p: row[width] for p, row in zip(pivots, reduced) if width in row}


def kernel_basis(columns: Sequence[Mapping]):
    """Basis {j: x_j} of the kernel of the matrix with the given
    columns, one vector per free column in column order."""
    width = len(columns)
    rows, pivots = rref(_transposed(columns).values(), range(width))
    pivot_set = set(pivots)
    basis = []
    for free in range(width):
        if free in pivot_set:
            continue
        vec = {free: Fraction(1)}
        for row, pivot in zip(rows, pivots):
            if free in row:
                vec[pivot] = -row[free]
        basis.append(vec)
    return basis
