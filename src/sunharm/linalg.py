"""Sparse exact linear algebra over Q(i).

A matrix stores one dict per row, mapping a column in 0..cols - 1 to its
nonzero entry; no zero entry is ever stored.  Such a dict, a ``Row``, is
also the one coordinate form of a vector: the span test takes rows, and the
harmonic layer writes cocycles and tuples of values as rows.  Matrices are
built from rows (``from_rows``), immutable by convention.  The elimination
raises ``ValueError`` for a pivot row with a column out of range or a zero
lead, and reads no row after it stops at full rank.

``kernel_basis`` alone returns dense vectors, and ``row(i)`` gives a dense
view of one row.  ``sparse_vector`` turns such a vector into a row; its zero
test ``x is not ZERO and x`` skips the shared ``ZERO`` that ``kernel_basis``
fills its vectors with, without a method call.  ``column_block`` restricts
rows to a list of columns, relabelled in that order: the n = 1 split takes
nullities of such blocks, and the harmonic kernel is solved on the block of
the columns that its presolve leaves free.

Every rank, kernel and span comes from one elimination, run over the
Gaussian integers Z[i] so that no rank builds a rational.  It takes the
rows one at a time, scales each to Gaussian-integer entries, reduces it
against the pivot rows found so far (in increasing pivot column) by integer
combinations, and makes the first nonzero column of what is left a new
pivot.  A pivot row is kept primitive: its leading entry is a positive int
and the gcd of that and every component of the row is 1, so its entries
stay bounded by the minors of the input (the fraction-free elimination of
Bareiss, row by row).  A leading entry that is a unit becomes 1, so about
half the pivot rows of the lemma battery are monic.  Only the kernel divides
each pivot row by its leading entry, once, before back-substituting.  The
reduced row-echelon form is unique, so ranks and kernels do not depend on
the order of the rows and are reproducible bit for bit.
Kernel bases are canonical: free columns are taken in increasing order and
each basis vector carries a 1 in its free position.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Sequence

from .exactfield import GaussianRational, ZERO, ONE, _make, _raw, gq, sub_mul

#: A sparse row: column -> nonzero entry.
Row = dict[int, GaussianRational]
#: An echelon form: pivot column -> (positive int lead, Gaussian-integer tail).
Pivots = dict[int, tuple[int, Row]]


def sparse_vector(v: Sequence[GaussianRational]) -> Row:
    """The nonzero entries of a dense vector of Gaussian rationals."""
    return {j: x for j, x in enumerate(v) if x is not ZERO and x}


def _sub_mul_row(r: Row, f: GaussianRational, tail: Row) -> None:
    """r -= f * tail in place, dropping the entries that cancel; f != 0."""
    for j, x in tail.items():
        a = r.get(j)
        if a is None:
            r[j] = sub_mul(ZERO, f, x)
        else:
            a = sub_mul(a, f, x)
            if a:
                r[j] = a
            else:
                del r[j]


class ExactMatrix:
    """A rows x cols matrix of Gaussian rationals, stored by nonzero entries."""

    __slots__ = ("rows", "cols", "_d")

    @classmethod
    def from_rows(cls, rows: Iterable[Row], cols: int) -> "ExactMatrix":
        """A matrix from sparse rows {column: nonzero entry}, taken as they
        are: entries are not coerced, and rows may be empty or absent."""
        M = cls.__new__(cls)
        M._d = list(rows)
        M.rows = len(M._d)
        M.cols = cols
        return M

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls.from_rows([{} for _ in range(rows)], cols)

    @classmethod
    def diagonal(cls, entries: Sequence) -> "ExactMatrix":
        entries = [gq(x) for x in entries]
        return cls.from_rows(
            [{i: x} if x else {} for i, x in enumerate(entries)], len(entries)
        )

    def at(self, i: int, j: int) -> GaussianRational:
        """The entry in row i, column j; raises ``IndexError`` outside
        0..rows - 1 or 0..cols - 1."""
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside a {self.rows}x{self.cols} matrix")
        return self._d[i].get(j, ZERO)

    def row(self, i: int) -> list[GaussianRational]:
        out = [ZERO] * self.cols
        for j, x in self._d[i].items():
            out[j] = x
        return out

    def sparse_rows(self) -> list[Row]:
        """The stored rows, one {column: nonzero entry} dict each; read only."""
        return self._d

    # -- algebra ---------------------------------------------------------

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("incompatible shapes for matrix product")
        out = []
        for row in self._d:
            r: Row = {}  # r += a * (row k of other), dropping what cancels
            for k, a in row.items():
                for j, x in other._d[k].items():
                    re, im = a.re * x.re - a.im * x.im, a.re * x.im + a.im * x.re
                    b = r.get(j)
                    if b is not None:
                        re += b.re
                        im += b.im
                        if not (re or im):
                            del r[j]
                            continue
                    r[j] = _make(re, im)
            out.append(r)
        return ExactMatrix.from_rows(out, other.cols)

    def scale(self, s) -> "ExactMatrix":
        s = gq(s)
        if not s:
            return ExactMatrix.zeros(self.rows, self.cols)
        return ExactMatrix.from_rows(
            [{j: s * x for j, x in r.items()} for r in self._d], self.cols
        )

    def transpose(self) -> "ExactMatrix":
        out: list[Row] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self._d):
            for j, x in row.items():
                out[j][i] = x
        return ExactMatrix.from_rows(out, self.rows)

    def is_zero(self) -> bool:
        return not any(self._d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self._d == other._d

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"


def _integral(row: Row) -> Row:
    """``row`` scaled by the lcm of its denominators, so that every entry is
    a Gaussian integer."""
    d = 1
    for x in row.values():
        if type(x.re) is not int:
            d = lcm(d, x.re.denominator)
        if type(x.im) is not int:
            d = lcm(d, x.im.denominator)
    return {j: _raw(int(x.re * d), int(x.im * d)) for j, x in row.items()}


def _primitive(lead: GaussianRational, r: Row) -> tuple[int, Row]:
    """The pivot ``(N, tail)`` of the Gaussian-integer row ``lead, r``: the
    row times conj(lead), whose leading entry |lead|^2 is a positive int,
    divided by the gcd of that and every component.  A real lead needs only
    its sign (scaling by the lead itself gives the same row once the gcd is
    divided out), and a unit lead gives N = 1."""
    a, b = lead.re, lead.im
    if not b:
        N = abs(a)
        tail = r if a > 0 else {j: -x for j, x in r.items()}
    else:
        N = a * a + b * b
        tail = {j: _raw(x.re * a + x.im * b, x.im * a - x.re * b) for j, x in r.items()}
    g = N
    for x in tail.values():
        if g == 1:
            break
        g = gcd(g, x.re, x.im)
    if g == 1:
        return N, tail
    return N // g, {j: _raw(x.re // g, x.im // g) for j, x in tail.items()}


def _echelon(rows: Iterable[Row], cols: int) -> Pivots:
    """Row echelon form of the span of ``rows`` over Z[i]: pivot column ->
    ``(N, tail)``, a primitive pivot row with leading entry the positive
    int N and the Gaussian-integer entries ``tail`` right of it.

    Each row is copied, and scaled to Gaussian-integer entries when one of
    its components is not an int (``_integral``).  It is then reduced
    against the pivots found so far in increasing pivot column: its entry f
    at a pivot column c becomes 0 by r <- N r - f tail, with N and f
    divided by their common factor first, so no rational is ever built.  A
    pivot row has entries only right of its pivot, so a step never brings
    back a column already passed.  What is left makes a new pivot at its
    first column (``_primitive``).  Once all ``cols`` columns are pivots,
    every later row is in the span and none is read.  The input rows are
    not modified.
    """
    pivots: Pivots = {}
    for row in rows:
        r = dict(row)
        for x in r.values():
            if type(x.re) is not int or type(x.im) is not int:
                r = _integral(r)
                break
        todo = [c for c in r if c in pivots]
        heapify(todo)
        while todo:
            c = heappop(todo)
            f = r.pop(c, None)
            if f is not None:  # None: cancelled, or queued twice
                N, tail = pivots[c]
                if N != 1:
                    g = gcd(N, f.re, f.im)
                    if g != 1:
                        N //= g
                        f = _raw(f.re // g, f.im // g)
                    if N != 1:
                        r = {j: _raw(N * x.re, N * x.im) for j, x in r.items()}
                _sub_mul_row(r, f, tail)
                for j in tail:
                    if j in pivots:
                        heappush(todo, j)
        if r:
            p = min(r)
            lead = r.pop(p)
            if p < 0 or not (lead.re or lead.im) or (max(r) if r else p) >= cols:
                raise ValueError(f"row with a zero lead or a column outside 0..{cols - 1}")
            pivots[p] = _primitive(lead, r)
            if len(pivots) == cols:
                break
    return pivots


def _reduced_echelon(rows: Iterable[Row], cols: int) -> dict[int, Row]:
    """Reduced row-echelon form: pivot column -> the rest of its pivot row,
    whose pivot entry is an implicit 1 and which is 0 in every other pivot
    column.  Each pivot row of ``_echelon`` is divided by its lead once,
    then the rows are back-substituted."""
    pivots = {}
    for c, (N, tail) in _echelon(rows, cols).items():
        if N != 1:
            inv = gq(N).inverse()
            tail = {j: x * inv for j, x in tail.items()}
        pivots[c] = tail
    for c in sorted(pivots, reverse=True):
        tail = pivots[c]
        # pivot rows right of c are already reduced: no pivot columns return
        for j in [j for j in tail if j in pivots]:
            _sub_mul_row(tail, tail.pop(j), pivots[j])
    return pivots


def rank(M: ExactMatrix) -> int:
    return len(_echelon(M._d, M.cols))


def kernel_basis(M: ExactMatrix) -> list[list[GaussianRational]]:
    """Canonical basis of the right nullspace of M.

    One vector per free column, free columns in increasing order, each
    vector with a 1 in its own free position; M @ v == 0 exactly.
    """
    # dense on purpose: perfbench/spans.py reads the entries of the output
    pivots = _reduced_echelon(M._d, M.cols)
    basis = {}
    for f in range(M.cols):
        if f not in pivots:
            basis[f] = v = [ZERO] * M.cols
            v[f] = ONE
    # after back-substitution every tail entry sits in a free column
    for c, tail in pivots.items():
        for f, x in tail.items():
            basis[f][c] = -x
    return list(basis.values())


def column_block(rows: Iterable[Row], cols: Sequence[int]) -> ExactMatrix:
    """The block of ``rows`` on the columns ``cols``, column ``cols[i]``
    relabelled i; entries in any other column are left out."""
    index = {c: i for i, c in enumerate(cols)}
    block = [{index[j]: x for j, x in r.items() if j in index} for r in rows]
    return ExactMatrix.from_rows(block, len(index))


def _in_range(rows: Iterable[Row], cols: int) -> list[Row]:
    rows = list(rows)
    for r in rows:
        if r and (min(r) < 0 or max(r) >= cols):
            raise ValueError(f"row with a column outside 0..{cols - 1}")
    return rows


def same_span(a: Iterable[Row], b: Iterable[Row], cols: int) -> bool:
    """True when the two families of rows span the same subspace of Q(i)^cols.

    Every column of both families is checked before any elimination.  The
    spans agree exactly when rank(a) = rank(b) = rank(a + b).
    """
    rows_a, rows_b = _in_range(a, cols), _in_range(b, cols)
    r = len(_echelon(rows_a, cols))
    return r == len(_echelon(rows_b, cols)) == len(_echelon(rows_a + rows_b, cols))
