"""Matrix realization of su(n,1) and its Cartan decomposition.

Conventions.  V = C^{n+1} carries the signature-(n,1) Hermitian form given by
J = diag(1, ..., 1, -1); su(n,1) is the traceless matrices X with
X*J + JX = 0.  The compact part k consists of the block-diagonal elements
(a copy of u(n)); its complement p is spanned by the Hermitian matrices

    xi(v) = [[0, v], [v*, 0]],   v in C^n,

whose complex-linear / conjugate-linear halves in v are

    xi_plus(v)  = (xi(v) - i xi(iv))/2 = [[0, v], [0, 0]],
    xi_minus(v) = (xi(v) + i xi(iv))/2 = [[0, 0], [v*, 0]].

A unitary A in U(n) embeds into the group as diag(A, det(A)^{-1}); its
adjoint action on the holomorphic half p+ is v -> det(A) * A v.  The central
element h0 = i/(n+1) * diag(1, ..., 1, -n) acts by +i on p+ and -i on p-.

All entries are Gaussian rationals, so "unitary" means exactly unitary; the
test corpus below sticks to signed/unit-scaled permutations and Pythagorean
rotations, which are unitary inside Q(i).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from . import linalg
from .exactfield import GaussianRational, I, ONE, ZERO, gq
from .linalg import ExactMatrix

Vector = list[GaussianRational]


def _vec(v: Sequence) -> Vector:
    return [x if type(x) is GaussianRational else gq(x) for x in v]


def e_vec(j: int, n: int) -> Vector:
    """Standard basis vector e_j (0-based) of C^n."""
    v = [ZERO] * n
    v[j] = ONE
    return v


def scale_vec(s, v: Sequence) -> Vector:
    s = s if type(s) is GaussianRational else gq(s)
    return [s * x for x in _vec(v)]


def j_form(n: int) -> ExactMatrix:
    return ExactMatrix.diagonal([ONE] * n + [-ONE])


@dataclass(frozen=True)
class LieElement:
    """An (n+1)x(n+1) matrix with a tag recording where it lives."""

    matrix: ExactMatrix
    kind: str  # compact | xi | xi-plus | xi-minus | general

    @property
    def n(self) -> int:
        return self.matrix.rows - 1


def xi(v: Sequence) -> LieElement:
    """The tangent element [[0, v], [v*, 0]] of p."""
    v = _vec(v)
    n = len(v)
    rows = [[ZERO] * (n + 1) for _ in range(n + 1)]
    for j, x in enumerate(v):
        rows[j][n] = x
        rows[n][j] = x.conjugate()
    return LieElement(ExactMatrix(rows), "xi")


def xi_plus(v: Sequence) -> LieElement:
    """Complex-linear half of xi(v): the strictly upper corner block."""
    v = _vec(v)
    n = len(v)
    rows = [[ZERO] * (n + 1) for _ in range(n + 1)]
    for j, x in enumerate(v):
        rows[j][n] = x
    return LieElement(ExactMatrix(rows), "xi-plus")


def xi_minus(v: Sequence) -> LieElement:
    """Conjugate-linear half of xi(v): the strictly lower corner block."""
    v = _vec(v)
    n = len(v)
    rows = [[ZERO] * (n + 1) for _ in range(n + 1)]
    for j, x in enumerate(v):
        rows[n][j] = x.conjugate()
    return LieElement(ExactMatrix(rows), "xi-minus")


def h0(n: int) -> LieElement:
    """Central element of k defining the complex structure."""
    if n < 1:
        raise ValueError("n must be >= 1")
    c = I / (n + 1)
    entries = [c] * n + [c * gq(-n)]
    return LieElement(ExactMatrix.diagonal(entries), "compact")


def compact_element(block: ExactMatrix, corner) -> LieElement:
    """Block-diagonal element diag(block, corner) of k, validated."""
    n = block.rows
    corner = corner if type(corner) is GaussianRational else gq(corner)
    rows = [[ZERO] * (n + 1) for _ in range(n + 1)]
    for i in range(n):
        for j in range(n):
            rows[i][j] = block.at(i, j)
    rows[n][n] = corner
    M = ExactMatrix(rows)
    if not in_su(M):
        raise ValueError("not an element of su(n,1)")
    return LieElement(M, "compact")


def bracket(X: LieElement, Y: LieElement) -> LieElement:
    """Matrix commutator XY - YX, with the kind re-classified."""
    M = X.matrix * Y.matrix - Y.matrix * X.matrix
    return LieElement(M, classify_kind(M))


# -- membership predicates (all exact) -----------------------------------


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


def is_compact(M: ExactMatrix) -> bool:
    n = M.rows - 1
    if any(M.at(i, n) for i in range(n)) or any(M.at(n, j) for j in range(n)):
        return False
    return in_su(M)


def is_xi_shape(M: ExactMatrix) -> bool:
    n = M.rows - 1
    for i in range(n):
        for j in range(n):
            if M.at(i, j):
                return False
    if M.at(n, n):
        return False
    return all(M.at(n, j) == M.at(j, n).conjugate() for j in range(n))


def is_xi_plus_shape(M: ExactMatrix) -> bool:
    n = M.rows - 1
    for i in range(n + 1):
        for j in range(n + 1):
            if M.at(i, j) and not (j == n and i < n):
                return False
    return True


def is_xi_minus_shape(M: ExactMatrix) -> bool:
    n = M.rows - 1
    for i in range(n + 1):
        for j in range(n + 1):
            if M.at(i, j) and not (i == n and j < n):
                return False
    return True


def classify_kind(M: ExactMatrix) -> str:
    if is_compact(M):
        return "compact"
    if is_xi_plus_shape(M):
        return "xi-plus"
    if is_xi_minus_shape(M):
        return "xi-minus"
    if is_xi_shape(M):
        return "xi"
    return "general"


# -- the compact group --------------------------------------------------


def is_unitary(A: ExactMatrix) -> bool:
    if A.rows != A.cols:
        return False
    return A * A.conj_transpose() == ExactMatrix.identity(A.rows)


def embed_k(A: ExactMatrix) -> ExactMatrix:
    """diag(A, det(A)^{-1}): the group embedding of U(n); rejects non-unitary A."""
    if not is_unitary(A):
        raise ValueError("matrix is not exactly unitary")
    n = A.rows
    c = linalg.det(A).inverse()
    rows = [[ZERO] * (n + 1) for _ in range(n + 1)]
    for i in range(n):
        for j in range(n):
            rows[i][j] = A.at(i, j)
    rows[n][n] = c
    return ExactMatrix(rows)


def group_inverse(g: ExactMatrix) -> ExactMatrix:
    """Inverse of an embedded unitary (it is unitary, so this is g*)."""
    return g.conj_transpose()


def adjoint_on_p_plus(A: ExactMatrix, v: Sequence) -> Vector:
    """The vector w with  embed_k(A) xi_plus(v) embed_k(A)^{-1} = xi_plus(w).

    Concretely w = det(A) * A v; the determinant twist is what makes the
    covariance identity hold.
    """
    if not is_unitary(A):
        raise ValueError("matrix is not exactly unitary")
    d = linalg.det(A)
    return [d * x for x in A.apply(_vec(v))]


def canonical_weight(A: ExactMatrix) -> GaussianRational:
    """Action of A on the top exterior power of p+, checked against det^{n+1}.

    The adjoint-action matrix on p+ is recovered literally by conjugating
    each xi_plus(e_j); its determinant must equal det(A)^{n+1}.
    """
    if not is_unitary(A):
        raise ValueError("matrix is not exactly unitary")
    n = A.rows
    g = embed_k(A)
    ginv = group_inverse(g)
    cols = []
    for j in range(n):
        M = g * xi_plus(e_vec(j, n)).matrix * ginv
        if not is_xi_plus_shape(M):
            raise AssertionError("conjugation left p+; structure bug")
        cols.append([M.at(i, n) for i in range(n)])
    action = ExactMatrix([[cols[j][i] for j in range(n)] for i in range(n)])
    weight = linalg.det(action)
    expected = linalg.det(A) ** (n + 1)
    if weight != expected:
        raise AssertionError("top exterior weight differs from det^(n+1)")
    return weight


# -- exact test corpora ---------------------------------------------------


def unitary_corpus(n: int) -> list[ExactMatrix]:
    """Exactly unitary matrices over Q(i) spanning enough of U(n) for tests.

    Signed/unit-scaled permutations (entries 0, +-1, +-i) plus rational
    rotations built from Pythagorean triples.
    """
    mats = [ExactMatrix.identity(n)]
    d = [ONE] * n
    d[0] = I
    mats.append(ExactMatrix.diagonal(d))
    if n == 1:
        mats.append(ExactMatrix([[gq(-1)]]))
        mats.append(ExactMatrix([[gq("3/5", "4/5")]]))
        return mats
    d = [ONE] * n
    d[0], d[1] = I, -I
    mats.append(ExactMatrix.diagonal(d))
    # transposition of the first two coordinates, with a sign
    perm = [[ZERO] * n for _ in range(n)]
    perm[0][1] = ONE
    perm[1][0] = -ONE
    for i in range(2, n):
        perm[i][i] = ONE
    mats.append(ExactMatrix(perm))
    # i-scaled cycle on the first two coordinates
    sc = [[ZERO] * n for _ in range(n)]
    sc[0][1] = I
    sc[1][0] = I
    for i in range(2, n):
        sc[i][i] = ONE
    mats.append(ExactMatrix(sc))
    # 3-4-5 rotation in the (1,2) plane
    rot = [[ZERO] * n for _ in range(n)]
    rot[0][0] = gq("3/5")
    rot[0][1] = gq("4/5")
    rot[1][0] = gq("-4/5")
    rot[1][1] = gq("3/5")
    for i in range(2, n):
        rot[i][i] = ONE
    mats.append(ExactMatrix(rot))
    # complex Pythagorean rotation
    crot = [[ZERO] * n for _ in range(n)]
    crot[0][0] = gq("3/5")
    crot[0][1] = gq(0, "4/5")
    crot[1][0] = gq(0, "4/5")
    crot[1][1] = gq("3/5")
    for i in range(2, n):
        crot[i][i] = ONE
    mats.append(ExactMatrix(crot))
    if n >= 3:
        # 5-12-13 rotation in the (2,3) plane
        r2 = [[ZERO] * n for _ in range(n)]
        r2[0][0] = ONE
        r2[1][1] = gq("5/13")
        r2[1][2] = gq("12/13")
        r2[2][1] = gq("-12/13")
        r2[2][2] = gq("5/13")
        for i in range(3, n):
            r2[i][i] = ONE
        mats.append(ExactMatrix(r2))
    return mats


def tangent_samples(n: int) -> list[Vector]:
    """Deterministic sample vectors in C^n used by structure checks."""
    out = [e_vec(j, n) for j in range(n)]
    out.append(scale_vec(I, e_vec(0, n)))
    if n >= 2:
        v = e_vec(0, n)
        v[1] = I
        out.append(v)
        w = scale_vec(gq(1, 1), e_vec(0, n))
        w[n - 1] = gq("1/2")
        out.append(w)
    else:
        out.append([gq("2/3", "-1/2")])
    return out


@lru_cache(maxsize=None)
def k_basis(n: int) -> tuple[LieElement, ...]:
    """A spanning set of the compact subalgebra k inside su(n,1).

    Built and validated once per n; the tuple keeps the cached set immutable.
    """
    out = [h0(n)]
    for a in range(n):
        block = [[ZERO] * n for _ in range(n)]
        block[a][a] = I
        out.append(compact_element(ExactMatrix(block), -I))
    for a in range(n):
        for b in range(a + 1, n):
            block = [[ZERO] * n for _ in range(n)]
            block[a][b] = ONE
            block[b][a] = -ONE
            out.append(compact_element(ExactMatrix(block), ZERO))
            block = [[ZERO] * n for _ in range(n)]
            block[a][b] = I
            block[b][a] = I
            out.append(compact_element(ExactMatrix(block), ZERO))
    return tuple(out)


def p_basis(n: int) -> list[LieElement]:
    """The 2n real basis tangents xi(e_j), xi(i e_j)."""
    out = [xi(e_vec(j, n)) for j in range(n)]
    out.extend(xi(scale_vec(I, e_vec(j, n))) for j in range(n))
    return out
