"""Matrix realization of su(n,1) and its Cartan decomposition.

Conventions.  V = C^{n+1} carries the signature-(n,1) Hermitian form given by
J = diag(1, ..., 1, -1); su(n,1) is the traceless matrices X with
X*J + JX = 0.  The compact part k consists of the block-diagonal elements
(a copy of u(n)); its complement p is spanned by the Hermitian matrices

    xi(v) = [[0, v], [v*, 0]] = xi_plus(v) + xi_minus(v),   v in C^n,

with complex-linear half xi_plus(v) = [[0, v], [0, 0]] and conjugate-linear
half xi_minus(v) = [[0, 0], [v*, 0]].  The certifier works in p (x) C, with
the complex tangents Z_j = xi_plus(e_j) and Zbar_j = xi_minus(e_j) as basis.
The central element h0 = i/(n+1) * diag(1, ..., 1, -n) of k acts by +i on
p+ and -i on p-; the tests build xi itself and h0 (``tests/reference.py``),
since the certifier only needs the halves and the generators of k.  Every
element is returned as its exact ``ExactMatrix``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .exactfield import GaussianRational, I, ONE, ZERO, gq
from .linalg import ExactMatrix, sparse_vector

Vector = list[GaussianRational]


def _vec(v: Sequence) -> Vector:
    return [x if type(x) is GaussianRational else gq(x) for x in v]


def e_vec(j: int, n: int) -> Vector:
    """Standard basis vector e_j (0-based) of C^n."""
    v = [ZERO] * n
    v[j] = ONE
    return v


def j_form(n: int) -> ExactMatrix:
    return ExactMatrix.diagonal([ONE] * n + [-ONE])


def _p_element(v: Sequence, upper: bool, lower: bool) -> ExactMatrix:
    """The corner blocks of [[0, v], [v*, 0]] that are asked for, built from
    the nonzero components of v only."""
    v = _vec(v)
    n = len(v)
    nz = sparse_vector(v)
    rows = [{n: nz[j]} if upper and j in nz else {} for j in range(n)]
    rows.append({j: x.conjugate() for j, x in nz.items()} if lower else {})
    return ExactMatrix.from_rows(rows, n + 1)


def xi_plus(v: Sequence) -> ExactMatrix:
    """Complex-linear half of xi(v): the strictly upper corner block."""
    return _p_element(v, upper=True, lower=False)


def xi_minus(v: Sequence) -> ExactMatrix:
    """Conjugate-linear half of xi(v): the strictly lower corner block."""
    return _p_element(v, upper=False, lower=True)


def compact_element(block: ExactMatrix, corner) -> ExactMatrix:
    """Block-diagonal element diag(block, corner) of k, validated."""
    n = block.rows
    corner = corner if type(corner) is GaussianRational else gq(corner)
    rows = block.sparse_rows() + [{n: corner} if corner else {}]
    M = ExactMatrix.from_rows(rows, n + 1)
    if not in_su(M):
        raise ValueError("not an element of su(n,1)")
    return M


# -- membership (exact) ---------------------------------------------------


def in_su(M: ExactMatrix) -> bool:
    """X*J + JX = 0 and trace zero."""
    n = M.rows - 1
    Jm = j_form(n)
    if not (M.conj_transpose() * Jm + Jm * M).is_zero():
        return False
    tr = ZERO
    for i in range(M.rows):
        tr = tr + M.at(i, i)
    return not tr


@lru_cache(maxsize=None)
def k_generators(n: int) -> tuple[ExactMatrix, ...]:
    """A Lie-algebra generating set of the compact subalgebra k = u(n).

    The n elements diag(i E_aa, -i), then, for each adjacent pair
    (a, a + 1), the two real root elements diag(E_ab - E_ba, 0) and
    diag(i (E_ab + E_ba), 0) with b = a + 1: 3n - 2 elements, every entry
    a Gaussian integer.  The diagonal ones span the Cartan subalgebra and
    the root elements generate every root space (J. E. Humphreys,
    *Introduction to Lie Algebras and Representation Theory*, section 18),
    so iterated brackets span all of k.  Built and validated once per n;
    the tuple keeps the cached set immutable.
    """
    out = []
    for a in range(n):
        rows = [{} for _ in range(n)]
        rows[a] = {a: I}
        out.append(compact_element(ExactMatrix.from_rows(rows, n), -I))
    for a in range(n - 1):
        b = a + 1
        for x, y in ((ONE, -ONE), (I, I)):
            rows = [{} for _ in range(n)]
            rows[a], rows[b] = {b: x}, {a: y}
            out.append(compact_element(ExactMatrix.from_rows(rows, n), ZERO))
    return tuple(out)
