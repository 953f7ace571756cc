"""Group-level and dense reference implementations the tests compare against.

The certifier in ``sunharm`` works in the Lie algebra: it checks compact
invariance on complex generators of k_C, applying each generator's
monomial action to the rows of the polarization map P, and never builds a
group element, a determinant, a pairing, the form J, or a spanning set or
a real generating set of k.  This module keeps those objects, outside the
package, so the tests can check the algebra against the group it
integrates to, the complex generators against the real ones they
replaced, and the identity against the elimination-based check it
replaced.  It also keeps the identity in the matrix form the row check
replaced: ``matrix_intertwines`` on P split by tangent
(``polarization_blocks``), with a rho(X) matrix and two block products
per tangent.  The package eliminates over the Gaussian integers:
``linalg._echelon`` keeps each pivot row primitive with a positive integer
lead, and only ``_reduced_echelon`` divides by it, for the kernel.  The
elimination over the field Q(i) that it replaced is kept here as an
independent oracle: ``field_echelon`` divides each non-monic pivot row
through by its leading entry, ``field_reduced_echelon`` back-substitutes,
and ``field_kernel_basis`` reads the canonical kernel basis off the result.
``rref`` returns that reduced form as a matrix with its pivot columns, and
``dense_rank_of_rows`` and the three-pass span test rank with
``field_echelon``, so none of them runs the package's elimination.  The
matrix of rho(X) is built here a second way, as a sum of derivations
(``derivation_matrix``), apart from the package's monomial action, and
between any two monomial bases for any X (``rho_matrix_restricted``),
apart from the tangents' cached actions the package reads.  The
module also keeps the dense forms the package no longer takes: matrices
written as dense literals, the span test that converts and ranks each
family twice, the p-elements written into dense arrays, the n = 1 split
that combines the kernel through dense vectors, the n = 1 split that solves
for the kernels of the Z and Zbar column blocks, where the package takes
their nullities, the complex- and conjugate-linear parts of a cocycle on
any tangent, symmetric-component membership by the hook projection of each
form, where the package compares one rank against the polarization rows,
the lemma checks that solve for a relation subspace or a hook component and
compare or apply to its basis, where the package decides the same claims by
rank and annihilation, and the contraction isometry applied tensor by
tensor, where the package checks one matrix identity.

The package's one form of a vector of W is the coefficient map
{multi-index: nonzero coefficient}.  The tensor types it no longer has are
kept here as references: ``SymTensor`` and ``DualSymTensor``, with the
sums, scalings and grades the references compute with, and ``rho_apply``,
which applies X to a tensor through the package's monomial action.
``tensor`` is the one bridge from a map to a tensor, and a tensor's
``coeffs`` is its map; ``tensor_values`` and ``tensor_cocycle`` apply the
bridge to the values of a cocycle.  The zero cocycle and its test,
``zero_cocycle`` and ``is_zero_cocycle``, are kept here too, since the
package never builds or tests a zero cocycle.

The package writes the polarization family from exponents alone
(``symrep.polarization_family``) and decides T a = 0 and T* a = 0 without
forming either operator.  The tensor calculus it no longer runs lives
here as their references: ``derivative``, ``shift_down``,
``multiply_var`` and the polarization section ``polarization``, from which
``tensor_polarization_family``, ``tensor_polarization_cocycles`` and
``multiplication_rows`` rebuild the family, the columns of P and the
multiplication map tensor by tensor; and ``TwoForm``, ``t_op`` and
``tstar_op``, which build the two operators' values in full.
``conj_transpose`` is the conjugate transpose of a matrix, and
``matrix_add``, ``matrix_sub`` and ``matrix_neg`` the matrix sum,
difference and negation, which only the references and the tests need.

The package stores the constraint system presolved: the columns that
one-entry rows force to zero, one row each, then the other rows struck of
those columns.  ``formal_assemble_system`` builds it in the formal layout
that ``system_shape`` and the report count, every row included, on
``formal_relation_rows``, and ``presolved_rows`` finds the forced columns
by a plain fixed-point loop, not the package's worklist.  The references
that eliminate a relation system build it from ``formal_relation_rows``,
less the empty rows, so they do not share the package's builder.

The package stores a cocycle by its values on the complex tangents Z_j and
Zbar_j, which it builds as matrix units.  This module keeps the general
complex directions they specialize: ``e_vec``, the halves ``xi_plus(v)``
and ``xi_minus(v)`` of xi(v) for any v in C^n, the matrix ``rho_matrix`` of
the action on a whole symmetric power, and the imaginary unit ``I``.  Its
own tangents, ``complex_tangent``, come from them, so no reference shares
the package's builder.  The references here work in
the real coordinates A_j = a(xi(e_j)) and B_j = a(xi(i e_j)) instead, and
reach the package's cocycles only through one conversion pair,
``real_values`` and ``from_real_values``.  That includes the constraint
system assembled on the real tangents, ``real_assemble_system``.

A unitary A in U(n) embeds into the group as diag(A, det(A)^{-1}); its
adjoint action on the holomorphic half p+ is v -> det(A) * A v.  Tensors
transform under it by the substitution e_i -> g e_i, dual tensors by
(g . lam)(v) = lam(g^{-1} v), and a cocycle by (k . a)(xi_v) =
rho(k) a(xi_w) with w = Ad(k)^{-1} v.

All entries are Gaussian rationals, so "unitary" means exactly unitary; the
corpus below sticks to signed/unit-scaled permutations and Pythagorean
rotations, which are unitary inside Q(i).
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import Sequence

from sunharm import Cocycle, ExactMatrix, ONE, RepContext, ZERO, gq
from sunharm.exactfield import GaussianRational, sub_mul
from sunharm.harmonic import (
    cocycle_from_vector,
    polarization_rows,
    system_shape,
    values_from_vector,
    values_to_vector,
)
from sunharm.linalg import (
    Row,
    _sub_mul_row,
    kernel_basis,
    rank,
    same_span,
    sparse_vector,
)
from sunharm.symrep import (
    MultiIndex,
    _action,
    _extend,
    _map_matrix,
    graded_monomials,
    monomial_index,
    monomials,
)

Vector = list[GaussianRational]

#: The imaginary unit of Q(i).
I = gq(0, 1)


# -- dense views and the elimination over the field Q(i) --------------------


def dense_matrix(rows: Sequence[Sequence]) -> ExactMatrix:
    """A matrix from a dense literal: equal-length rows of scalars, each
    entry coerced as the package coerces scalars."""
    d = [[gq(x) for x in r] for r in rows]
    if not d or not d[0]:
        raise ValueError("matrix must have at least one row and column")
    if any(len(r) != len(d[0]) for r in d):
        raise ValueError("ragged rows")
    return ExactMatrix.from_rows([sparse_vector(r) for r in d], len(d[0]))


def apply(M: ExactMatrix, v: Row) -> Row:
    """M times the column vector whose nonzero entries are ``v``."""
    out = {}
    for i, row in enumerate(M.sparse_rows()):
        s = ZERO
        for j, a in row.items():
            x = v.get(j)
            if x is not None:
                s = s + a * x
        if s:
            out[i] = s
    return out


def identity(n: int) -> ExactMatrix:
    return ExactMatrix.diagonal([ONE] * n)


def column(M: ExactMatrix, j: int) -> Vector:
    return [M.at(i, j) for i in range(M.rows)]


def dense_rows(M: ExactMatrix) -> list[Vector]:
    return [M.row(i) for i in range(M.rows)]


def conj_transpose(M: ExactMatrix) -> ExactMatrix:
    return ExactMatrix.from_rows(
        [{j: x.conjugate() for j, x in r.items()} for r in M.transpose().sparse_rows()],
        M.rows,
    )


def matrix_sub(A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    """A - B, for matrices of one shape."""
    if A.rows != B.rows or A.cols != B.cols:
        raise ValueError("shape mismatch")
    out = []
    for ra, rb in zip(A.sparse_rows(), B.sparse_rows()):
        r = dict(ra)
        _sub_mul_row(r, ONE, rb)
        out.append(r)
    return ExactMatrix.from_rows(out, A.cols)


def matrix_neg(A: ExactMatrix) -> ExactMatrix:
    return A.scale(-ONE)


def matrix_add(A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    return matrix_sub(A, matrix_neg(B))


def field_echelon(rows, pivots: dict[int, Row] | None = None) -> dict[int, Row]:
    """Row echelon form of the span of ``rows`` over the field Q(i): pivot
    column -> the rest of its pivot row, whose pivot entry is an implicit 1.

    Each row is reduced against the pivots found so far in increasing pivot
    column; a pivot row has entries only right of its pivot, so a step never
    brings back a column already passed.  Given ``pivots``, an echelon form
    of other rows, the result is that of their span together with ``rows``.
    Neither the input rows nor ``pivots`` are modified.
    """
    pivots = dict(pivots) if pivots else {}
    for row in rows:
        r = dict(row)
        todo = [c for c in r if c in pivots]
        heapify(todo)
        while todo:
            c = heappop(todo)
            f = r.pop(c, None)
            if f is not None:  # None: cancelled, or queued twice
                tail = pivots[c]
                _sub_mul_row(r, f, tail)
                for j in tail:
                    if j in pivots:
                        heappush(todo, j)
        if r:
            p = min(r)
            lead = r.pop(p)
            if lead.re == 1 and not lead.im:
                pivots[p] = r  # monic: r is already a fresh dict
            else:
                inv = lead.inverse()
                pivots[p] = {j: x * inv for j, x in r.items()}
    return pivots


def field_reduced_echelon(rows) -> dict[int, Row]:
    """Reduced row-echelon form: ``field_echelon`` back-substituted, so each
    pivot row is 0 in every other pivot column."""
    pivots = field_echelon(rows)
    for c in sorted(pivots, reverse=True):
        tail = pivots[c]
        # pivot rows right of c are already reduced: no pivot columns return
        for j in [j for j in tail if j in pivots]:
            _sub_mul_row(tail, tail.pop(j), pivots[j])
    return pivots


def field_kernel_basis(M: ExactMatrix) -> list[Vector]:
    """The canonical kernel basis of ``linalg.kernel_basis``, from
    ``field_reduced_echelon``: one vector per free column, in increasing
    order, each with a 1 in its own free position."""
    pivots = field_reduced_echelon(M.sparse_rows())
    basis = {}
    for f in range(M.cols):
        if f not in pivots:
            basis[f] = v = [ZERO] * M.cols
            v[f] = ONE
    for c, tail in pivots.items():
        for f, x in tail.items():
            basis[f][c] = -x
    return list(basis.values())


def rref(M: ExactMatrix) -> tuple[ExactMatrix, list[int]]:
    """Reduced row-echelon form and the list of pivot columns."""
    pivots = field_reduced_echelon(M.sparse_rows())
    cs = sorted(pivots)
    rows = [{c: ONE, **pivots[c]} for c in cs]
    rows.extend({} for _ in range(M.rows - len(cs)))
    return ExactMatrix.from_rows(rows, M.cols), cs


# -- the three-pass span test ---------------------------------------------------


def dense_rank_of_rows(vectors, cols: int) -> int:
    """Rank of coordinate vectors of length cols, each made sparse by the
    value test of its entries."""
    rows = []
    for v in vectors:
        if len(v) != cols:
            raise ValueError(f"vector of length {len(v)} in a space of dimension {cols}")
        rows.append({j: x for j, x in enumerate(v) if x})
    return len(field_echelon(rows))


def three_pass_same_span(a: Sequence, b: Sequence, cols: int) -> bool:
    """Same span by three separate ranks: a, b and their union.  Takes
    lists: an iterator would be exhausted before the union is formed."""
    r = dense_rank_of_rows(a, cols)
    return r == dense_rank_of_rows(b, cols) == dense_rank_of_rows(list(a) + list(b), cols)


# -- the Lie algebra -----------------------------------------------------------


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


def complex_tangent(n: int, p: int) -> ExactMatrix:
    """The p-th complex tangent (0 <= p < 2n) from the complex directions:
    Z_p = xi_plus(e_p), then Zbar_{p-n} = xi_minus(e_{p-n})."""
    if p < n:
        return xi_plus(e_vec(p, n))
    return xi_minus(e_vec(p - n, n))


def scale_vec(s, v: Sequence) -> Vector:
    s = gq(s)
    return [s * gq(x) for x in v]


def xi(v: Sequence) -> ExactMatrix:
    """The tangent element [[0, v], [v*, 0]] of p."""
    return _p_element(v, upper=True, lower=True)


def dense_p_element(v: Sequence, upper: bool, lower: bool) -> ExactMatrix:
    """xi(v) (both corners), xi_plus(v) (upper) or xi_minus(v) (lower),
    written into a dense (n+1) x (n+1) array and converted."""
    v = [gq(x) for x in v]
    n = len(v)
    rows = [[ZERO] * (n + 1) for _ in range(n + 1)]
    for j, x in enumerate(v):
        if upper:
            rows[j][n] = x
        if lower:
            rows[n][j] = x.conjugate()
    return dense_matrix(rows)


def j_form(n: int) -> ExactMatrix:
    """The Hermitian form J = diag(1, ..., 1, -1) of signature (n, 1)."""
    return ExactMatrix.diagonal([ONE] * n + [-ONE])


def in_su(M: ExactMatrix) -> bool:
    """X*J + JX = 0 and trace zero."""
    n = M.rows - 1
    Jm = j_form(n)
    if not matrix_add(conj_transpose(M) * Jm, Jm * M).is_zero():
        return False
    tr = ZERO
    for i in range(M.rows):
        tr = tr + M.at(i, i)
    return not tr


def compact_element(block: ExactMatrix, corner) -> ExactMatrix:
    """Block-diagonal element diag(block, corner) of k, validated."""
    n = block.rows
    corner = gq(corner)
    rows = block.sparse_rows() + [{n: corner} if corner else {}]
    M = ExactMatrix.from_rows(rows, n + 1)
    if not in_su(M):
        raise ValueError("not an element of su(n,1)")
    return M


def real_k_generators(n: int) -> list[ExactMatrix]:
    """A real Lie-algebra generating set of k = u(n), the set the package's
    complex generators of k_C replaced.

    The n elements diag(i E_aa, -i), then, for each adjacent pair
    (a, a + 1), the two real root elements diag(E_ab - E_ba, 0) and
    diag(i (E_ab + E_ba), 0) with b = a + 1: 3n - 2 elements of k, each
    validated, every entry a Gaussian integer.
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
    return out


def bracket(X: ExactMatrix, Y: ExactMatrix) -> ExactMatrix:
    """Matrix commutator XY - YX."""
    return matrix_sub(X * Y, Y * X)


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


def h0(n: int) -> ExactMatrix:
    """Central element of k defining the complex structure."""
    if n < 1:
        raise ValueError("n must be >= 1")
    c = I / (n + 1)
    entries = [c] * n + [c * gq(-n)]
    return ExactMatrix.diagonal(entries)


def k_basis(n: int) -> list[ExactMatrix]:
    """A spanning set of k: h0, the n elements diag(i E_aa, -i) and the two
    real root elements of every pair a < b; n^2 + 1 elements."""
    out = [h0(n)]
    for a in range(n):
        block = [[ZERO] * n for _ in range(n)]
        block[a][a] = I
        out.append(compact_element(dense_matrix(block), -I))
    for a in range(n):
        for b in range(a + 1, n):
            for x, y in ((ONE, -ONE), (I, I)):
                block = [[ZERO] * n for _ in range(n)]
                block[a][b] = x
                block[b][a] = y
                out.append(compact_element(dense_matrix(block), ZERO))
    return out


def p_basis(n: int) -> list[ExactMatrix]:
    """The 2n real basis tangents xi(e_j), xi(i e_j)."""
    out = [xi(e_vec(j, n)) for j in range(n)]
    out.extend(xi(scale_vec(I, e_vec(j, n))) for j in range(n))
    return out


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


# -- dense determinant ---------------------------------------------------------


def det(M: ExactMatrix) -> GaussianRational:
    """Determinant by dense Gaussian elimination with row swaps."""
    if M.rows != M.cols:
        raise ValueError("determinant of a non-square matrix")
    rows = dense_rows(M)
    n = M.rows
    sign = ONE
    acc = ONE
    for c in range(n):
        pr = -1
        for i in range(c, n):
            if rows[i][c]:
                pr = i
                break
        if pr < 0:
            return ZERO
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            sign = -sign
        p = rows[c][c]
        acc = acc * p
        inv = p.inverse()
        for i in range(c + 1, n):
            f = rows[i][c]
            if not f:
                continue
            f = f * inv
            prow = rows[c]
            row = rows[i]
            for j in range(c, n):
                if prow[j]:
                    row[j] = sub_mul(row[j], f, prow[j])
    return sign * acc


# -- the compact group -----------------------------------------------------------


def is_unitary(A: ExactMatrix) -> bool:
    if A.rows != A.cols:
        return False
    return A * conj_transpose(A) == identity(A.rows)


def embed_k(A: ExactMatrix) -> ExactMatrix:
    """diag(A, det(A)^{-1}): the group embedding of U(n); rejects non-unitary A."""
    if not is_unitary(A):
        raise ValueError("matrix is not exactly unitary")
    n = A.rows
    c = det(A).inverse()
    rows = [[ZERO] * (n + 1) for _ in range(n + 1)]
    for i in range(n):
        for j in range(n):
            rows[i][j] = A.at(i, j)
    rows[n][n] = c
    return dense_matrix(rows)


def adjoint_on_p_plus(A: ExactMatrix, v: Sequence) -> Vector:
    """The vector w with  embed_k(A) xi_plus(v) embed_k(A)^{-1} = xi_plus(w).

    Concretely w = det(A) * A v; the determinant twist is what makes the
    covariance identity hold.
    """
    if not is_unitary(A):
        raise ValueError("matrix is not exactly unitary")
    d = det(A)
    w = apply(A, sparse_vector([gq(x) for x in v]))
    return [d * w.get(i, ZERO) for i in range(A.rows)]


def canonical_weight(A: ExactMatrix) -> GaussianRational:
    """Action of A on the top exterior power of p+, checked against det^{n+1}.

    The adjoint-action matrix on p+ is recovered literally by conjugating
    each xi_plus(e_j); its determinant must equal det(A)^{n+1}.
    """
    if not is_unitary(A):
        raise ValueError("matrix is not exactly unitary")
    n = A.rows
    g = embed_k(A)
    ginv = conj_transpose(g)
    cols = []
    for j in range(n):
        M = g * xi_plus(e_vec(j, n)) * ginv
        if not is_xi_plus_shape(M):
            raise AssertionError("conjugation left p+; structure bug")
        cols.append([M.at(i, n) for i in range(n)])
    action = dense_matrix([[cols[j][i] for j in range(n)] for i in range(n)])
    weight = det(action)
    expected = det(A) ** (n + 1)
    if weight != expected:
        raise AssertionError("top exterior weight differs from det^(n+1)")
    return weight


def unitary_corpus(n: int) -> list[ExactMatrix]:
    """Exactly unitary matrices over Q(i) spanning enough of U(n) for tests.

    Signed/unit-scaled permutations (entries 0, +-1, +-i) plus rational
    rotations built from Pythagorean triples.
    """
    mats = [identity(n)]
    d = [ONE] * n
    d[0] = I
    mats.append(ExactMatrix.diagonal(d))
    if n == 1:
        mats.append(dense_matrix([[gq(-1)]]))
        mats.append(dense_matrix([[gq("3/5", "4/5")]]))
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
    mats.append(dense_matrix(perm))
    # i-scaled cycle on the first two coordinates
    sc = [[ZERO] * n for _ in range(n)]
    sc[0][1] = I
    sc[1][0] = I
    for i in range(2, n):
        sc[i][i] = ONE
    mats.append(dense_matrix(sc))
    # 3-4-5 rotation in the (1,2) plane
    rot = [[ZERO] * n for _ in range(n)]
    rot[0][0] = gq("3/5")
    rot[0][1] = gq("4/5")
    rot[1][0] = gq("-4/5")
    rot[1][1] = gq("3/5")
    for i in range(2, n):
        rot[i][i] = ONE
    mats.append(dense_matrix(rot))
    # complex Pythagorean rotation
    crot = [[ZERO] * n for _ in range(n)]
    crot[0][0] = gq("3/5")
    crot[0][1] = gq(0, "4/5")
    crot[1][0] = gq(0, "4/5")
    crot[1][1] = gq("3/5")
    for i in range(2, n):
        crot[i][i] = ONE
    mats.append(dense_matrix(crot))
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
        mats.append(dense_matrix(r2))
    return mats


# -- tensors: the reference form of a vector of W ------------------------------


class _CoeffPoly:
    """Shared coefficient-map machinery for primal and dual tensors."""

    __slots__ = ("n", "degree", "coeffs")

    def __init__(self, n: int, degree: int, coeffs: dict | None = None):
        self.n = n
        self.degree = degree
        self.coeffs: dict[MultiIndex, GaussianRational] = {}
        if coeffs:
            for alpha, c in coeffs.items():
                if len(alpha) != n + 1 or sum(alpha) != degree:
                    raise ValueError(f"bad multi-index {alpha} for degree {degree}")
                c = gq(c)
                if c:
                    self.coeffs[tuple(alpha)] = c

    @classmethod
    def zero(cls, n: int, degree: int):
        return cls(n, degree)

    @classmethod
    def monomial(cls, alpha: Sequence[int], coeff=1):
        alpha = tuple(alpha)
        return cls(len(alpha) - 1, sum(alpha), {alpha: gq(coeff)})

    def _like(self, coeffs: dict, degree: int | None = None):
        out = type(self).__new__(type(self))
        out.n = self.n
        out.degree = self.degree if degree is None else degree
        out.coeffs = {a: c for a, c in coeffs.items() if c}
        return out

    def _check_compatible(self, other):
        if type(self) is not type(other):
            raise TypeError("cannot mix primal and dual tensors")
        if self.n != other.n or self.degree != other.degree:
            raise ValueError("degree/dimension mismatch")

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            s = out.get(a)
            out[a] = c if s is None else s + c
        return self._like(out)

    def __sub__(self, other):
        self._check_compatible(other)
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            s = out.get(a)
            out[a] = -c if s is None else s - c
        return self._like(out)

    def __neg__(self):
        return self._like({a: -c for a, c in self.coeffs.items()})

    def scale(self, s):
        s = gq(s)
        if not s:
            return self._like({})
        return self._like({a: s * c for a, c in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        return (
            self.n == other.n
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((type(self).__name__, self.n, self.degree,
                     tuple(sorted(self.coeffs.items(), key=lambda t: t[0]))))

    def support_grades(self) -> set[int]:
        return {self.degree - a[-1] for a in self.coeffs}

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for a in sorted(self.coeffs):
            mono = "*".join(
                f"e{i + 1}^{k}" if k > 1 else f"e{i + 1}"
                for i, k in enumerate(a)
                if k
            ) or "1"
            parts.append(f"({self.coeffs[a]})*{mono}")
        return " + ".join(parts)


class SymTensor(_CoeffPoly):
    """Element of S^m(C^{n+1}) over the monomial basis."""


class DualSymTensor(_CoeffPoly):
    """Element of S^m(C^{n+1})' over the dual monomial basis."""


def rho_apply(X: ExactMatrix, w: _CoeffPoly) -> _CoeffPoly:
    """Apply the Lie algebra element X to w (derivation action; dual action
    on dual tensors) through the package's monomial action.  Preserves the
    total degree."""
    if X.rows != w.n + 1:
        raise ValueError("matrix size does not match tensor dimension")
    return w._like(_extend(_action(X, isinstance(w, DualSymTensor)), w.coeffs))


def tensor(ctx: RepContext, w: dict) -> _CoeffPoly:
    """The bridge from the package's coefficient map w, a vector of ctx's
    W, to the tensor of ctx's side; a tensor's ``coeffs`` is its map."""
    return (DualSymTensor if ctx.dual else SymTensor)(ctx.n, ctx.m, w)


def tensor_values(a: Cocycle) -> list[_CoeffPoly]:
    """The 2n values of a as tensors, in tangent order: Z_j, then Zbar_j."""
    return [tensor(a.ctx, w) for w in a.values]


def tensor_cocycle(ctx: RepContext, values: Sequence) -> Cocycle:
    """The cocycle with the given tensor values in tangent order, read
    through ``coeffs``."""
    return Cocycle(ctx, [w.coeffs for w in values])


def zero_cocycle(ctx: RepContext) -> Cocycle:
    """The zero cocycle of ctx: 2n empty coefficient maps, each its own."""
    return Cocycle(ctx, [{} for _ in range(2 * ctx.n)])


def is_zero_cocycle(a: Cocycle) -> bool:
    return not any(a.values)


# -- tensor calculus, the polarization section and the two-form operators ------


def derivative(w: _CoeffPoly, var: int) -> _CoeffPoly:
    """Formal partial derivative in coordinate ``var`` (0-based)."""
    out: dict[MultiIndex, GaussianRational] = {}
    for a, c in w.coeffs.items():
        k = a[var]
        if not k:
            continue
        b = a[:var] + (k - 1,) + a[var + 1 :]
        add = c * k
        s = out.get(b)
        out[b] = add if s is None else s + add
    return w._like(out, degree=w.degree - 1)


def multiply_var(w: _CoeffPoly, var: int) -> _CoeffPoly:
    """Multiplication by coordinate ``var`` (exponent bump, no factor)."""
    out = {}
    for a, c in w.coeffs.items():
        b = a[:var] + (a[var] + 1,) + a[var + 1 :]
        out[b] = c
    return w._like(out, degree=w.degree + 1)


def shift_down(w: _CoeffPoly, var: int) -> _CoeffPoly:
    """Exponent shift alpha -> alpha - d_var with no combinatorial factor."""
    out = {}
    for a, c in w.coeffs.items():
        if a[var]:
            out[a[:var] + (a[var] - 1,) + a[var + 1 :]] = c
    return w._like(out, degree=w.degree - 1)


def polarization(s: _CoeffPoly) -> list[_CoeffPoly]:
    """The polarization section s -> (d_k s)_k over the first n variables:
    partial derivatives of a primal tensor, exponent shifts of a dual one."""
    step = shift_down if isinstance(s, DualSymTensor) else derivative
    return [step(s, k) for k in range(s.n)]


def tensor_polarization_family(n: int, m: int, g: int, dual: bool, index: dict) -> list[Row]:
    """``symrep.polarization_family`` built from tensors: the polarization
    section of each monomial e^sigma e_{n+1}^(m-g), sigma of degree g+1 in
    the first n variables, written as a row over n blocks of ``index``."""
    cls = DualSymTensor if dual else SymTensor
    return [
        values_to_vector(
            [w.coeffs for w in polarization(cls.monomial(sigma + (m - g,)))], index
        )
        for sigma in monomials(n, g + 1)
    ]


def tensor_polarization_cocycles(ctx: RepContext) -> list[Cocycle]:
    """The columns of P built from tensors.  Primal: conjugate-linear
    cocycles whose Zbar values are the partial derivatives of a
    degree-(m+1) monomial in the first n variables.  Dual: complex-linear
    cocycles whose Z values are the exponent shifts of a dual monomial."""
    cls = DualSymTensor if ctx.dual else SymTensor
    out = []
    for sigma in monomials(ctx.n, ctx.m + 1):
        pol = [w.coeffs for w in polarization(cls.monomial(sigma + (0,)))]
        zero = [{} for _ in pol]
        out.append(Cocycle(ctx, pol + zero if ctx.dual else zero + pol))
    return out


def multiplication_rows(n: int, m: int, j: int) -> list[Row]:
    """The multiplication map (w_k)_k -> sum_k e_k w_k from n copies of
    grade j into degree j+1, one row per product monomial in lex order,
    built tensor by tensor from ``multiply_var``."""
    in_basis = graded_monomials(n, m, j)
    d_in = len(in_basis)
    prod_index = {mu + (m - j,): i for i, mu in enumerate(monomials(n, j + 1))}
    rows = [{} for _ in prod_index]
    for k in range(n):
        for cidx, alpha in enumerate(in_basis):
            (beta, c), = multiply_var(SymTensor.monomial(alpha), k).coeffs.items()
            rows[prod_index[beta]][k * d_in + cidx] = c
    return rows


class TwoForm:
    """Antisymmetric table over unordered pairs of the 2n complex tangents."""

    def __init__(self, n: int, values: dict):
        self.n = n
        self.values = values  # keys (p, q) with p < q

    def value(self, p: int, q: int):
        if p == q:
            raise ValueError("a two-form needs two distinct directions")
        if p < q:
            return self.values[(p, q)]
        return -self.values[(q, p)]

    def is_zero(self) -> bool:
        return all(w.is_zero() for w in self.values.values())


def t_op(a: Cocycle) -> TwoForm:
    """The two-form T a; zero exactly when rho(xi_u)a(xi_v) is symmetric."""
    n = a.ctx.n
    vals = {}
    mats = [complex_tangent(n, p) for p in range(2 * n)]
    values = tensor_values(a)
    for p in range(2 * n):
        for q in range(p + 1, 2 * n):
            vals[(p, q)] = rho_apply(mats[p], values[q]) - rho_apply(
                mats[q], values[p]
            )
    return TwoForm(n, vals)


def tstar_op(a: Cocycle):
    """The trace: each complex tangent acting on the value of its conjugate,
    sum_j rho(Z_j) a(Zbar_j) + rho(Zbar_j) a(Z_j)."""
    n = a.ctx.n
    values = tensor_values(a)
    out = tensor(a.ctx, {})
    for p in range(2 * n):
        out = out + rho_apply(complex_tangent(n, p), values[(p + n) % (2 * n)])
    return out



# -- the group action on tensors -------------------------------------------------


def _poly_mul(d1: dict, d2: dict) -> dict:
    out: dict = {}
    for a1, c1 in d1.items():
        for a2, c2 in d2.items():
            b = tuple(x + y for x, y in zip(a1, a2))
            add = c1 * c2
            s = out.get(b)
            out[b] = add if s is None else s + add
    return {a: c for a, c in out.items() if c}


def substitute(g: ExactMatrix, w: SymTensor) -> SymTensor:
    """Multiplicative substitution e_i -> g e_i, expanded in monomials."""
    nvars = w.n + 1
    if g.rows != nvars:
        raise ValueError("matrix size does not match tensor dimension")
    images = []
    for i in range(nvars):
        col = {}
        for j in range(nvars):
            x = g.at(j, i)
            if x:
                key = tuple(1 if t == j else 0 for t in range(nvars))
                col[key] = x
        images.append(col)
    unit = {tuple([0] * nvars): ONE}
    powers: dict[tuple[int, int], dict] = {}

    def image_power(i: int, e: int) -> dict:
        if e == 0:
            return unit
        got = powers.get((i, e))
        if got is None:
            got = _poly_mul(image_power(i, e - 1), images[i])
            powers[(i, e)] = got
        return got

    out: dict = {}
    for a, c in w.coeffs.items():
        term = unit
        for i, e in enumerate(a):
            if e:
                term = _poly_mul(term, image_power(i, e))
        for b, x in term.items():
            add = c * x
            s = out.get(b)
            out[b] = add if s is None else s + add
    return SymTensor(w.n, w.degree, out)


def group_matrix(g: ExactMatrix, n: int, m: int) -> ExactMatrix:
    """Matrix of the substitution action of g on S^m(C^{n+1})."""
    basis = monomials(n + 1, m)
    return _map_matrix(
        lambda a: substitute(g, SymTensor.monomial(a)).coeffs, basis, basis
    )


def derivation_matrix(X: ExactMatrix, n: int, m: int) -> ExactMatrix:
    """Matrix of rho(X) on S^m(C^{n+1}) as the derivation
    sum_{i,j} X[j][i] (multiply by e_j) o d/de_i, built tensor by tensor
    from ``derivative`` and ``multiply_var``; only nonzero entries are
    stored."""
    basis = monomials(n + 1, m)
    index = monomial_index(n + 1, m)
    rows = [{} for _ in basis]
    for col, alpha in enumerate(basis):
        w = SymTensor.monomial(alpha)
        image = SymTensor.zero(n, m)
        for j in range(n + 1):
            for i in range(n + 1):
                x = X.at(j, i)
                if x:
                    image = image + multiply_var(derivative(w, i), j).scale(x)
        for beta, c in image.coeffs.items():
            rows[index[beta]][col] = c
    return ExactMatrix.from_rows(rows, len(basis))


def rho_matrix(X: ExactMatrix, n: int, m: int, dual: bool = False) -> ExactMatrix:
    """Matrix of the action on S^m (or its dual) in the lex monomial basis.
    Raises on an invalid case (``RepContext``) or if X is not an
    (n+1) x (n+1) matrix."""
    basis = RepContext(n, m, dual).basis()
    if X.rows != n + 1 or X.cols != n + 1:
        raise ValueError("matrix size does not match the monomials")
    return _map_matrix(_action(X, dual), basis, basis)


def rho_matrix_restricted(
    X: ExactMatrix, in_basis: Sequence, out_basis: Sequence, dual: bool = False
) -> ExactMatrix:
    """Matrix of rho(X) (the dual action when ``dual``) from span(in_basis)
    into span(out_basis), from a monomial action of X's own, where the
    package reads the tangents' cached ones; raises if an image leaves
    span(out_basis)."""
    return _map_matrix(_action(X, dual), in_basis, out_basis)


def k_group_action(A: ExactMatrix, w):
    """Action of the embedded unitary diag(A, det(A)^{-1}) on w.

    Primal tensors transform by substitution; dual tensors by
    (g . lam)(v) = lam(g^{-1} v).
    """
    g = embed_k(A)
    if isinstance(w, SymTensor):
        return substitute(g, w)
    n, m = w.n, w.degree
    # lam(g^{-1} v) on coordinates: the transpose of g^{-1}'s matrix
    Minv = group_matrix(conj_transpose(g), n, m)
    vec = values_to_vector([w.coeffs], monomial_index(n + 1, m))
    image = apply(Minv.transpose(), vec)
    basis = monomials(n + 1, m)
    return DualSymTensor(n, m, {basis[j]: x for j, x in image.items()})


def transform_cocycle(A: ExactMatrix, a: Cocycle) -> Cocycle:
    """Induced action of an embedded unitary on a cocycle.

    (k . a)(xi_v) = rho(k) a(xi_{w}) with w = Ad(k)^{-1} v; on p the adjoint
    action of k = embed(A) is v -> det(A) A v, so its inverse is
    v -> conj(det(A)) A* v.
    """
    n = a.ctx.n
    dinv = det(A).conjugate()
    Ainv = conj_transpose(A)
    new_a = []
    new_b = []
    for j in range(n):
        u = [dinv * x for x in column(Ainv, j)]
        new_a.append(k_group_action(A, evaluate(a, u)))
        new_b.append(k_group_action(A, evaluate(a, scale_vec(I, u))))
    return from_real_values(a.ctx, new_a, new_b)


# -- real coordinates of cocycles ------------------------------------------------


def real_values(a: Cocycle) -> tuple[list, list]:
    """(A, B), the values on the real tangents:
    A_j = a(xi(e_j)) = a(Z_j) + a(Zbar_j) and
    B_j = a(xi(i e_j)) = i (a(Z_j) - a(Zbar_j))."""
    values = tensor_values(a)
    pairs = list(zip(values[: a.ctx.n], values[a.ctx.n :]))
    return [z + w for z, w in pairs], [(z - w).scale(I) for z, w in pairs]


def from_real_values(ctx, A: Sequence, B: Sequence) -> Cocycle:
    """Inverse of ``real_values``: a(Z_j) = (A_j - i B_j) / 2 and
    a(Zbar_j) = (A_j + i B_j) / 2."""
    half = gq("1/2")
    return tensor_cocycle(
        ctx,
        [(x - y.scale(I)).scale(half) for x, y in zip(A, B)]
        + [(x + y.scale(I)).scale(half) for x, y in zip(A, B)],
    )


def real_vector(a: Cocycle) -> Row:
    """Coordinates of a in the real basis: the A blocks, then the B blocks."""
    A, B = real_values(a)
    return values_to_vector([w.coeffs for w in A + B], a.ctx.basis_index())


def from_real_vector(ctx, vec: Row) -> Cocycle:
    """Inverse of ``real_vector``."""
    n = ctx.n
    vals = [tensor(ctx, w) for w in values_from_vector(ctx.basis(), vec, 2 * n)]
    return from_real_values(ctx, vals[:n], vals[n:])


def formal_relation_rows(ops: Sequence[ExactMatrix]) -> list[Row]:
    """The relations Op_a x_b = Op_b x_a in full: one row per output
    coordinate of every pair a < b, the relation 0 = 0 included."""
    d_in = ops[0].cols
    mats = [M.sparse_rows() for M in ops]
    rows = []
    for a in range(len(ops)):
        for b in range(a + 1, len(ops)):
            for ra, rb in zip(mats[a], mats[b]):
                row = {b * d_in + s: x for s, x in ra.items()}
                row.update((a * d_in + s, -x) for s, x in rb.items())
                rows.append(row)
    return rows


def presolved_rows(rows: Sequence[Row]) -> list[Row]:
    """The layout of ``assemble_system``: one row {c: 1} per forced column c
    in increasing order, then the rows with two or more unforced columns,
    in order, less their forced ones.  A column is forced when a row has it
    as its one unforced column; the set grows round by round until no row
    adds a column."""
    forced: set[int] = set()
    while True:
        left = [r.keys() - forced for r in rows]
        more = {c for cols in left if len(cols) == 1 for c in cols}
        if not more:
            break
        forced |= more
    return [{c: ONE} for c in sorted(forced)] + [
        {j: x for j, x in r.items() if j not in forced}
        for r in rows
        if len(r.keys() - forced) > 1
    ]


def formal_assemble_system(ctx) -> ExactMatrix:
    """The constraint system in its formal layout, of shape
    ``system_shape(ctx)``: dim W rows for each pair (p, q) of complex
    tangents in lex order, empty ones included, then the trace block.
    ``assemble_system`` stores ``presolved_rows`` of these rows."""
    n, d = ctx.n, ctx.dim_w
    mats = [rho_matrix(complex_tangent(n, p), n, ctx.m, ctx.dual) for p in range(2 * n)]
    rows = formal_relation_rows(mats)
    # trace block: block Z_j carries rho(Zbar_j) and block Zbar_j rho(Z_j)
    blocks = [M.sparse_rows() for M in mats[n:] + mats[:n]]
    rows.extend(
        {p * d + s: x for p, B in enumerate(blocks) for s, x in B[r].items()}
        for r in range(d)
    )
    return ExactMatrix.from_rows(rows, 2 * n * d)


def real_assemble_system(ctx) -> ExactMatrix:
    """The constraint system on the real tangents xi(e_j), xi(i e_j).

    Columns: the real coordinates of ``real_vector``.  Rows: the two-form
    blocks for the pairs of real tangents in lex order, then the trace
    block sum_p rho(Y_p) a(Y_p).  Its kernel is the real form of the
    package's kernel.
    """
    d = ctx.dim_w
    mats = [rho_matrix(Y, ctx.n, ctx.m, ctx.dual) for Y in p_basis(ctx.n)]
    rows = [r for r in formal_relation_rows(mats) if r]
    blocks = [M.sparse_rows() for M in mats]
    rows.extend(
        {p * d + s: x for p, B in enumerate(blocks) for s, x in B[r].items()}
        for r in range(d)
    )
    return ExactMatrix.from_rows(rows, 2 * ctx.n * d)


# -- cocycles and the elimination-based invariance check ------------------------


def evaluate(a: Cocycle, v: Sequence):
    """Value of the cocycle a on xi(v) for any complex tangent vector v."""
    A, B = real_values(a)
    out = tensor(a.ctx, {})
    for j, x in enumerate([gq(x) for x in v]):
        if x.re:
            out = out + A[j].scale(gq(x.re))
        if x.im:
            out = out + B[j].scale(gq(x.im))
    return out


def _linear_part(a: Cocycle, values: Sequence, v: Sequence, conj: bool):
    """sum_j v_j values[j], or conj(v_j) values[j] when ``conj``: the one
    body of ``plus_part`` and ``minus_part``."""
    out = tensor(a.ctx, {})
    for w, x in zip(values, v):
        x = gq(x)
        if x:
            out = out + w.scale(x.conjugate() if conj else x)
    return out


def plus_part(a: Cocycle, v: Sequence):
    """Complex-linear component of a(xi_v): sum_j v_j a(Z_j)."""
    return _linear_part(a, tensor_values(a)[: a.ctx.n], v, conj=False)


def minus_part(a: Cocycle, v: Sequence):
    """Conjugate-linear component of a(xi_v): sum_j conj(v_j) a(Zbar_j)."""
    return _linear_part(a, tensor_values(a)[a.ctx.n :], v, conj=True)


def rank_is_invariant(ctx, kernel: Sequence[Cocycle]) -> bool:
    """k maps the span of ``kernel`` into itself, by elimination.

    For X = diag(B, c) in ``k_basis(n)``, which spans k, the infinitesimal
    action on a cocycle is (X.a)(Y) = rho(X) a(Y) - a([X, Y]) with
    [X, xi(v)] = xi((B - c) v); every X.a must lie in the span, so adding
    them all to the (independent) kernel vectors leaves the rank unchanged.
    """
    n = ctx.n
    index = ctx.basis_index()
    reals = [real_values(a) for a in kernel]
    vecs = [values_to_vector([w.coeffs for w in A + B], index) for A, B in reals]
    for X in k_basis(n):
        c = X.at(n, n)
        # column j of B - c: the bracket [X, xi(e_j)] = xi((B - c) e_j)
        cols = [
            [X.at(i, j) - c if i == j else X.at(i, j) for i in range(n)]
            for j in range(n)
        ]
        shifts = cols + [scale_vec(I, v) for v in cols]
        for a, (A, B) in zip(kernel, reals):
            moved = [
                rho_apply(X, w) - evaluate(a, v) for w, v in zip(A + B, shifts)
            ]
            vecs.append(values_to_vector([w.coeffs for w in moved], index))
    return rank(ExactMatrix.from_rows(vecs, system_shape(ctx)[1])) == len(kernel)


def polarization_blocks(ctx, rows: Sequence[Row] | None = None) -> list[ExactMatrix]:
    """The polarization map P as a sparse matrix, split by tangent.

    Column s of P is row s of ``rows``, by default
    ``harmonic.polarization_rows(ctx)``, with s running over S^{m+1}(C^n)
    in lex order (last exponent 0); block p, the p-th slice of dim W rows
    of P, holds the values on the p-th complex tangent.
    """
    d = ctx.dim_w
    rows = polarization_rows(ctx) if rows is None else rows
    P = ExactMatrix.from_rows(rows, 2 * ctx.n * d).transpose()
    cols = P.sparse_rows()
    return [
        ExactMatrix.from_rows(cols[p * d : (p + 1) * d], P.cols)
        for p in range(2 * ctx.n)
    ]


def bracket_mix(X: ExactMatrix) -> list[Row]:
    """Row p holds the coefficients R_pq of a([X, W_p]) = sum_q R_pq a(W_q)
    over the complex tangents W, for X = diag(B, c) in k_C and any cocycle
    a.  Both halves are matrix brackets: [X, Z_j] = sum_i w_ij Z_i and
    [X, Zbar_i] = -sum_j w_ij Zbar_j, with w = B - c."""
    n = X.rows - 1
    c = X.at(n, n)
    mix: list[Row] = [{} for _ in range(2 * n)]
    for j in range(n):
        for i in range(n):
            w = X.at(i, j) - c if i == j else X.at(i, j)
            if w:
                mix[j][i] = w
                mix[n + i][n + j] = -w
    return mix


def matrix_intertwines(
    ctx, blocks: Sequence[ExactMatrix], X: ExactMatrix, chi, mix: list[Row] | None = None
) -> bool:
    """A_X P = P (rho(X) + chi) on S^{m+1}(C^n), as an identity of sparse
    matrices: the matrix form of ``harmonic.intertwines``.

    ``blocks`` is ``polarization_blocks(ctx)``.  A_X is rho(X) on each of
    the 2n blocks minus the block mix, ``bracket_mix(X)`` unless ``mix`` is
    given: two products per block, rho(X) * block and block * target,
    where target is rho(X) on the degree-(m + 1) monomials with last
    exponent 0 (or their duals) plus the scalar chi.
    """
    n, m = ctx.n, ctx.m
    top = [s + (0,) for s in monomials(n, m + 1)]
    rho = rho_matrix(X, n, m, ctx.dual)
    target = matrix_add(
        rho_matrix_restricted(X, top, top, ctx.dual), ExactMatrix.diagonal([chi] * len(top))
    )
    for block, row in zip(blocks, bracket_mix(X) if mix is None else mix):
        moved = rho * block
        for q, r in row.items():
            moved = matrix_sub(moved, blocks[q].scale(r))
        if moved != block * target:
            return False
    return True


def real_generators_intertwine(ctx, blocks: Sequence[ExactMatrix]) -> bool:
    """P intertwines k, checked on ``real_k_generators(n)``: the identity
    A_X P = P (rho(X) + chi(X)) of ``matrix_intertwines``, with the
    bracket on the Zbar half taken in the conjugated form that holds for X
    in k only, [X, Zbar_j] = sum_i conj(w_ij) Zbar_i with w = B - c.
    ``blocks`` is P split by tangent, as ``polarization_blocks`` gives
    it."""
    n = ctx.n
    for X in real_k_generators(n):
        c = X.at(n, n)
        mix = [{} for _ in range(2 * n)]
        for j in range(n):
            for i in range(n):
                w = X.at(i, j) - c if i == j else X.at(i, j)
                if w:
                    mix[j][i] = w
                    mix[n + j][n + i] = w.conjugate()
        if not matrix_intertwines(ctx, blocks, X, c if ctx.dual else -c, mix):
            return False
    return True


# -- the n = 1 split by kernel solves ------------------------------------------


def dense_part_sub_basis(ctx, kernel: Sequence[Cocycle], plus: bool) -> list[Cocycle]:
    """Basis, as cocycles, of the a in span(kernel) whose complex-linear part
    (``plus``) or conjugate-linear part vanishes: residuals and kernel
    written as dense matrices in real coordinates, each sub-basis vector a
    dense combination of the kernel vectors.  The complex-linear part of a
    on xi(e_j) is (A_j - i B_j) / 2, the conjugate-linear part
    (A_j + i B_j) / 2."""
    if not kernel:
        return []
    n = ctx.n
    index = ctx.basis_index()
    cols = system_shape(ctx)[1]
    twist = -I if plus else I
    half = gq("1/2")

    def dense(row: Row, length: int) -> list:
        return [row.get(j, ZERO) for j in range(length)]

    reals = [real_values(a) for a in kernel]
    residuals = dense_matrix(
        [dense(values_to_vector([(x + y.scale(twist)).scale(half).coeffs
                                 for x, y in zip(A, B)], index),
               n * ctx.dim_w)
         for A, B in reals]
    ).transpose()
    vecs = [dense(values_to_vector([w.coeffs for w in A + B], index), cols)
            for A, B in reals]
    out = []
    for combo in kernel_basis(residuals):
        v = [ZERO] * cols
        for f, u in zip(combo, vecs):
            if f:
                v = [x + f * y for x, y in zip(v, u)]
        out.append(from_real_vector(ctx, sparse_vector(v)))
    return out


def split_halves(
    ctx: RepContext, A: ExactMatrix
) -> tuple[list[Cocycle], list[Cocycle]]:
    """The complex-linear and conjugate-linear halves of ker A, as cocycles.

    ``A`` is ``assemble_system(ctx)``.  A cocycle is complex-linear when
    its Zbar values vanish, so that half is ker A restricted to the Z
    columns, and the conjugate-linear half is ker A restricted to the Zbar
    columns; each basis is the canonical kernel basis of that column block.
    """
    h = ctx.n * ctx.dim_w
    halves = []
    for lo in (0, h):
        block = [
            {j - lo: x for j, x in r.items() if lo <= j < lo + h}
            for r in A.sparse_rows()
        ]
        halves.append([
            cocycle_from_vector(ctx, {lo + j: x for j, x in sparse_vector(v).items()})
            for v in kernel_basis(ExactMatrix.from_rows(block, h))
        ])
    return halves[0], halves[1]


# -- symmetric-component membership by the hook projection ---------------------


def raise_weighted(w, var: int):
    """The transpose of ``derivative``: alpha -> alpha + d_var weighted by
    the new exponent."""
    out = {}
    for a, c in w.coeffs.items():
        b = a[:var] + (a[var] + 1,) + a[var + 1 :]
        out[b] = c * b[var]
    return w._like(out, degree=w.degree + 1)


def _uniform_grade(values: Sequence) -> int | None:
    grades = set()
    for w in values:
        grades |= w.support_grades()
    if not grades:
        return None
    if len(grades) > 1:
        raise ValueError("grading mismatch: values span several grades")
    return grades.pop()


def symmetric_component_membership(values: Sequence) -> tuple[bool, GaussianRational]:
    """Whether a graded form lies in the leading (symmetric) component.

    ``values`` are the n values of the form on the basis directions, all
    supported in a single grade g.  The leading component of
    C^n (x) S^g(C^n) is realized as the image of the polarization section of
    the multiplication map; the hook component is that map's kernel.  Returns
    the membership verdict together with the exact squared norm of the hook
    projection (zero iff member).
    """
    values = list(values)
    n = len(values)
    g = _uniform_grade(values)
    cert = ZERO
    if g is None:
        return True, cert
    # multiply the values up into one tensor of degree g + 1; dual values
    # use raise_weighted, the transpose of derivative
    lift = raise_weighted if isinstance(values[0], DualSymTensor) else multiply_var
    s = values[0]._like({}, degree=values[0].degree + 1)
    for k in range(n):
        s = s + lift(values[k], k)
    section = polarization(s)
    inv = gq(1) / (g + 1)
    member = True
    for k in range(n):
        hook = values[k] - section[k].scale(inv)
        for c in hook.coeffs.values():
            cert = cert + c.norm_sq()
        if hook.coeffs:
            member = False
    return member, cert


# -- the lemma checks by elimination -----------------------------------------------


def elimination_relation_subspace(
    n: int, m: int, g: int, half, dual: bool
) -> tuple[int, str]:
    """Dimension and status of a relation-subspace check, by elimination:
    a kernel basis of the relation matrix, compared by ``same_span`` with the
    polarizations of the degree-(g+1) monomials in the first n variables."""
    in_basis = graded_monomials(n, m, g)
    out_basis = graded_monomials(n, m, g - 1)
    ops = [
        rho_matrix_restricted(half(e_vec(a, n)), in_basis, out_basis, dual)
        for a in range(n)
    ]
    cols = n * len(in_basis)
    rows = [r for r in formal_relation_rows(ops) if r]
    ker = [sparse_vector(v) for v in kernel_basis(ExactMatrix.from_rows(rows, cols))]
    in_index = {a: i for i, a in enumerate(in_basis)}
    span = tensor_polarization_family(n, m, g, dual, in_index)
    ok = len(ker) == math.comb(n + g, g + 1) and same_span(ker, span, cols)
    return len(ker), "pass" if ok else "fail"


def elimination_contraction_hook(n: int, m: int, j: int) -> tuple[int, bool]:
    """Dimension of the hook component of grade-j forms, the kernel of the
    multiplication map into degree j+1, and whether the contraction
    beta -> sum_k rho(xi+_k) beta_k vanishes on each vector of a kernel
    basis of that map, each vector turned back into tensors."""
    in_basis = graded_monomials(n, m, j)
    mult = ExactMatrix.from_rows(multiplication_rows(n, m, j), n * len(in_basis))
    hook = kernel_basis(mult)
    plus_ops = [xi_plus(e_vec(k, n)) for k in range(n)]

    def contraction(values):
        out = rho_apply(plus_ops[0], values[0])
        for k in range(1, n):
            out = out + rho_apply(plus_ops[k], values[k])
        return out

    killed = all(
        contraction(
            [SymTensor(n, m, w) for w in values_from_vector(in_basis, h, n)]
        ).is_zero()
        for h in map(sparse_vector, hook)
    )
    return len(hook), killed


def tensor_contraction_isometry(n: int, m: int, j: int) -> tuple:
    """The adjoint-composition part of the contraction check, tensor by
    tensor: the contraction beta -> sum_k rho(xi+_k) beta_k applied to each
    polarization of grade j, then each rho(xi-_k) applied to the image.
    Returns the scalar read off the first nonzero value, and whether every
    value came back as that one real positive multiple of itself."""
    plus_ops = [xi_plus(e_vec(k, n)) for k in range(n)]
    minus_ops = [xi_minus(e_vec(k, n)) for k in range(n)]

    def contraction(values):
        out = rho_apply(plus_ops[0], values[0])
        for k in range(1, n):
            out = out + rho_apply(plus_ops[k], values[k])
        return out

    scalar = None
    ok = True
    for sigma in monomials(n, j + 1):
        values = polarization(SymTensor.monomial(sigma + (m - j,)))
        image = contraction(values)
        for w, X in zip(values, minus_ops):
            u = rho_apply(X, image)
            if w.is_zero():
                ok = ok and u.is_zero()
                continue
            alpha = next(iter(w.coeffs))
            c = u.coeffs.get(alpha, ZERO) / w.coeffs[alpha]
            if scalar is None:
                scalar = c
            if c != scalar or u != w.scale(scalar):
                ok = False
    ok = ok and scalar is not None and scalar.is_real() and scalar.re > 0
    return scalar, ok


# -- pairings and gradings ---------------------------------------------------------


def inner(w1: SymTensor, w2: SymTensor) -> GaussianRational:
    """<e^a, e^a> = a!; monomials orthogonal; conjugate-linear in w2."""
    if not isinstance(w1, SymTensor) or not isinstance(w2, SymTensor):
        raise TypeError("inner product is defined on primal tensors")
    if w1.n != w2.n or w1.degree != w2.degree:
        raise ValueError("degree/dimension mismatch")
    s = ZERO
    for a, c1 in w1.coeffs.items():
        c2 = w2.coeffs.get(a)
        if c2:
            s = s + c1 * c2.conjugate() * math.prod(map(math.factorial, a))
    return s


def pair(lam: DualSymTensor, w: SymTensor) -> GaussianRational:
    """Canonical bilinear pairing: dual monomials hit matching monomials."""
    if not isinstance(lam, DualSymTensor) or not isinstance(w, SymTensor):
        raise TypeError("pair() takes a dual tensor and a primal tensor")
    if lam.n != w.n or lam.degree != w.degree:
        raise ValueError("degree mismatch")
    s = ZERO
    for a, c in lam.coeffs.items():
        d = w.coeffs.get(a)
        if d:
            s = s + c * d
    return s


def power_of_vector(vec: Sequence, m: int) -> SymTensor:
    """(sum_i v_i e_i)^m expanded with multinomial coefficients."""
    v = [gq(x) for x in vec]
    n = len(v) - 1
    out = {}
    for alpha in monomials(n + 1, m):
        c = gq(math.factorial(m))
        ok = True
        for vi, ai in zip(v, alpha):
            if ai == 0:
                continue
            if not vi:
                ok = False
                break
            c = c * (vi ** ai) / math.factorial(ai)
        if ok and c:
            out[alpha] = c
    return SymTensor(n, m, out)


def project_grade(w, k: int):
    """Orthogonal projection onto grade k (last exponent = degree - k)."""
    if k < 0 or k > w.degree:
        raise ValueError(f"grade {k} out of range for degree {w.degree}")
    keep = w.degree - k
    return w._like({a: c for a, c in w.coeffs.items() if a[-1] == keep})
