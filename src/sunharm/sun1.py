"""Matrix realization of su(n,1), its complexification and its Cartan
decomposition.

Conventions.  V = C^{n+1} carries the signature-(n,1) Hermitian form given by
J = diag(1, ..., 1, -1); su(n,1) is the traceless matrices X with
X*J + JX = 0, and its complexification is sl(n+1, C).  The compact part k
consists of the block-diagonal elements (a copy of u(n)), and its
complexification k_C of the traceless block-diagonal matrices diag(B, c)
(a copy of gl(n)).  The complement p is spanned by the Hermitian matrices

    xi(v) = [[0, v], [v*, 0]] = xi_plus(v) + xi_minus(v),   v in C^n,

with complex-linear half xi_plus(v) = [[0, v], [0, 0]] and conjugate-linear
half xi_minus(v) = [[0, 0], [v*, 0]].  The certifier works in p (x) C, with
the complex tangents Z_j = xi_plus(e_j) and Zbar_j = xi_minus(e_j) as basis,
and acts on them by generators of k_C: every identity it checks is
complex-linear in the acting element, so k_C-invariance of a complex
subspace is k-invariance.  The central element h0 = i/(n+1) *
diag(1, ..., 1, -n) of k acts by +i on p+ and -i on p-; the tests build xi
itself, h0, the form J and a real generating set of k
(``tests/reference.py``).  Every element is returned as its exact
``ExactMatrix``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .exactfield import GaussianRational, ONE, ZERO, gq
from .linalg import ExactMatrix

Vector = list[GaussianRational]


def e_vec(j: int, n: int) -> Vector:
    """Standard basis vector e_j (0-based) of C^n; ``ValueError`` unless
    0 <= j < n."""
    if not 0 <= j < n:
        raise ValueError(f"no basis vector e_{j} in C^{n}")
    v = [ZERO] * n
    v[j] = ONE
    return v


def _p_element(v: Sequence, upper: bool, lower: bool) -> ExactMatrix:
    """The corner blocks of [[0, v], [v*, 0]] that are asked for, built from
    the nonzero components of v only."""
    n = len(v)
    nz = {j: z for j, z in enumerate(map(gq, v)) if z}
    rows = [{n: nz[j]} if upper and j in nz else {} for j in range(n)]
    rows.append({j: x.conjugate() for j, x in nz.items()} if lower else {})
    return ExactMatrix.from_rows(rows, n + 1)


def xi_plus(v: Sequence) -> ExactMatrix:
    """Complex-linear half of xi(v): the strictly upper corner block."""
    return _p_element(v, upper=True, lower=False)


def xi_minus(v: Sequence) -> ExactMatrix:
    """Conjugate-linear half of xi(v): the strictly lower corner block."""
    return _p_element(v, upper=False, lower=True)


@lru_cache(maxsize=None)
def k_generators(n: int) -> tuple[ExactMatrix, ...]:
    """A Lie-algebra generating set of k_C = gl(n), the complexified k.

    The central element diag(I_n, -n), then, for each adjacent pair
    (a, a + 1), the elementary matrices E_{a,a+1} and E_{a+1,a}: 2n - 1
    elements, each diagonal or with a single nonzero entry.  The E's
    generate sl(n) (J. E. Humphreys, *Introduction to Lie Algebras and
    Representation Theory*, section 18), and the central element completes
    it to all of k_C.  Built once per n; the tuple keeps the cached set
    immutable.
    """
    out = [ExactMatrix.diagonal([ONE] * n + [gq(-n)])]
    for a in range(n - 1):
        for i, j in ((a, a + 1), (a + 1, a)):
            rows = [{} for _ in range(n + 1)]
            rows[i] = {j: ONE}
            out.append(ExactMatrix.from_rows(rows, n + 1))
    return tuple(out)
