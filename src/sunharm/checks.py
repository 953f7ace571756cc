"""Exact verifiers for the graded-operator structure of the representation.

Each check here is an independent computation: spanning sets are written
down explicitly.  ``lemma_battery`` is the one entry point: it validates
the case, builds the grade-restricted operators once (``graded_operators``)
and passes each check the operators it reads.  Every verdict on them is a
rank test or an exact matrix identity, and no subspace is solved for.  A
relation subspace is the span of an explicit set when the relation matrix
annihilates the set, the set is independent and its size is the nullity of
the matrix.  A map kills the kernel of another when stacking its matrix
under the other's leaves the rank unchanged.  The contraction is a
proportional isometry on the symmetric part when S C^T L^T is a positive
multiple of the polarization rows S.  The relation spanning sets, S and the
multiplication map whose kernel is the hook component all come from
``symrep.polarization_family`` (its primal or its dual family), written
from exponents.  Every operator comes from the complex tangents' cached
monomial actions, ``harmonic._tangent_action``: the graded and the dual
operators are written from them with ``symrep._map_matrix``, and the hook
counterexample, the pinned value and extreme linearity read their images.
The n = 1 split solves for no kernel either: the dimension of each half,
and of its part in its extreme grade, is the nullity of the constraint
matrix restricted to the columns that part may occupy, and the kernel
dimension is the nullity of the whole matrix.  The entries returned are
plain dicts ``{"name", "j", "status", "details"}`` built by
``symrep.check_entry``, with status ``pass``, ``fail`` or ``vacuous``
(empty parameter range).
"""

from __future__ import annotations

import math
from typing import Sequence

from .linalg import ExactMatrix, Row, column_block, rank
from .symrep import (
    RepContext,
    _map_matrix,
    check_entry,
    grade_of,
    graded_monomials,
    polarization_family,
)
from .harmonic import _tangent_action, assemble_system, pairwise_relation_rows


# -- the table of graded operators ------------------------------------------


def graded_operators(n: int, m: int) -> tuple[dict, dict, tuple]:
    """``(raising, lowering, dual_top)``: ``raising[k]`` holds
    rho(Z_a) = rho(xi+(e_a)) from grade k to grade k+1 for 1 <= k < m,
    ``lowering[k]`` holds rho(Zbar_a) = rho(xi-(e_a)) from grade k to
    grade k-1 for 1 <= k <= m, each a tuple over a < n written from the
    primal tangent actions p = a and p = n + a, and ``dual_top`` holds the
    dual rho'(Z_a) from grade m to grade m-1 for n >= 2 (empty for n = 1).

    Raises ``ValueError`` if an image leaves the adjacent grade.
    """

    def restricted(tangents, k, step, dual=False):
        src, dst = graded_monomials(n, m, k), graded_monomials(n, m, k + step)
        return tuple(_map_matrix(_tangent_action(n, p, dual), src, dst) for p in tangents)

    return (
        {k: restricted(range(n), k, 1) for k in range(1, m)},
        {k: restricted(range(n, 2 * n), k, -1) for k in range(1, m + 1)},
        restricted(range(n) if n >= 2 else (), m, -1, True),
    )


def _stack_vertically(mats: Sequence[ExactMatrix]) -> ExactMatrix:
    return ExactMatrix.from_rows(
        [r for M in mats for r in M.sparse_rows()], mats[0].cols
    )


# -- grading and injectivity of the raising/lowering operators --------------


def _independent(mats: Sequence[ExactMatrix]) -> bool:
    """Whether the matrices, flattened to vectors, are linearly independent."""
    cols = mats[0].cols
    flat = [
        {r * cols + c: x for r, row in enumerate(M.sparse_rows()) for c, x in row.items()}
        for M in mats
    ]
    return rank(ExactMatrix.from_rows(flat, mats[0].rows * cols)) == len(mats)


def _operator_grading(n: int, m: int, raising: dict, lowering: dict) -> list[dict]:
    """Grade shifts, nonvanishing, joint injectivity, extreme linearity.

    For 1 <= k <= m-1 the complex-linear half of xi(v) must send grade k to
    grade k+1 and the conjugate-linear half to grade k-1, each restriction
    nonzero for v != 0, and the stacked maps over a basis of directions must
    have trivial kernel.  On the extreme grades the action collapses to a
    single linearity type.  ``raising`` and ``lowering`` are those of
    ``graded_operators``; building them already proved the grade shifts.

    v -> rho(xi+(v)) is complex-linear and v -> rho(xi-(v)) conjugate-linear,
    so the basis e_a settles each claim for every v: a restriction vanishes
    for some v != 0 exactly when its n basis restrictions are linearly
    dependent.  That of xi(v) = xi+(v) + xi-(v) is then nonzero as well,
    since its two halves land in different grades.

    Extreme linearity: each raising operator's monomial action
    (``harmonic._tangent_action``) sends every top-grade monomial to an
    empty image, each lowering operator's every bottom one.
    """
    entries = []
    for k in range(1, m):
        halves = (raising[k], lowering[k])
        ok = False
        if not all(map(_independent, halves)):
            detail = "restriction vanished for a nonzero direction"
        elif any(rank(_stack_vertically(ops)) < ops[0].cols for ops in halves):
            detail = "stacked raising/lowering map has a kernel"
        else:
            ok = True
            detail = (
                "grade shifts, nonvanishing for every v != 0 and joint"
                " injectivity verified"
            )
        entries.append(check_entry("operator-grading", ok, detail, j=k))
    extreme_ok = all(
        not _tangent_action(n, p, False)(a)
        for p in range(2 * n)
        for a in graded_monomials(n, m, m if p < n else 0)
    )
    entries.append(
        check_entry(
            "extreme-linearity",
            extreme_ok,
            "for every v != 0 the top grade sees only the conjugate-linear half,"
            " the bottom grade only the complex-linear half",
            j=None,
        )
    )
    return entries


# -- relation subspaces ------------------------------------------------------


def _grade_index(n: int, m: int, g: int) -> dict:
    return {a: i for i, a in enumerate(graded_monomials(n, m, g))}


def _relation_subspace_entry(
    name: str, n: int, m: int, g: int, ops: Sequence[ExactMatrix], dual: bool,
    j: int | None,
) -> dict:
    """Compare the relation subspace with its explicit symmetric spanning set.

    ``ops`` are the n operators rho(half(e_a)) from grade g to grade g-1.
    The subspace {x : ops[a] x_b = ops[b] x_a for all a < b} inside n copies
    of grade g is the kernel of the relation matrix R, and S is the family
    of polarizations of the degree-(g+1) monomials in the first n variables.
    Three exact facts prove span(S) = ker R with dimension C(n+g, g+1):
    cols - rank(R) is C(n+g, g+1), R S^T is zero (S lies in ker R) and
    rank(S) is C(n+g, g+1) (S spans a subspace of full dimension).  The
    reported dimension is cols - rank(R).
    """
    index = _grade_index(n, m, g)
    cols = n * len(index)
    R = ExactMatrix.from_rows(pairwise_relation_rows(ops), cols)
    S = ExactMatrix.from_rows(polarization_family(n, m, g, dual, index), cols)
    expected = math.comb(n + g, g + 1)
    dimension = cols - rank(R)
    ok = dimension == expected and (R * S.transpose()).is_zero() and rank(S) == expected
    return check_entry(
        name,
        ok,
        f"relation subspace dimension {dimension}, expected {expected}, span equality {ok}",
        j=j,
        dimension=dimension,
        expected=expected,
    )


def _dual_symmetry(n: int, m: int, dual_top: tuple) -> dict:
    """Complex-linear dual forms with a symmetric pairwise relation fill
    exactly the fully symmetric subspace.

    The relation subspace {C : rho'(xi+_a) C_b = rho'(xi+_b) C_a} inside
    n copies of the top dual grade is compared, by rank and annihilation,
    with the explicit symmetric spanning set (exponent shifts of dual
    monomials of degree m+1).  ``dual_top`` holds the rho'(xi+_a) from
    grade m.
    """
    if n < 2:
        return check_entry("dual-symmetry", None, "needs n >= 2", j=None)
    return _relation_subspace_entry("dual-symmetry", n, m, m, dual_top, True, None)


def _symmetric_forcing(n: int, m: int, j: int, lowering: tuple) -> list[dict]:
    """A symmetric pairwise relation on a grade-j form forces membership in
    the leading component; the hook component violates it.

    (a) The relation subspace {w : rho(xi-_a) w_b = rho(xi-_b) w_a} equals,
    by rank and annihilation, the span of derivative polarizations of
    degree-(j+1) polynomials.  (b) The explicit hook witness
    ``eps_2 (x) e1^j r - eps_1 (x) e1^(j-1) e2 r`` (r the residual last-
    coordinate power) evaluates the two sides of the relation to
    -1 and j times the same monomial, which differ for every j >= 1.
    ``lowering`` holds the rho(xi-_a) from grade j.
    """
    entries = [_relation_subspace_entry("symmetric-forcing", n, m, j, lowering, False, j)]

    if n < 2:
        entries.append(check_entry("hook-counterexample", None, "needs n >= 2", j=j))
        return entries
    # the witness's values are -e1^(j-1) e2 r and e1^j r, so each side is
    # the image of one monomial under the monomial action, the first negated
    r = (m - j,)
    lhs = _tangent_action(n, n + 1, False)((j - 1, 1) + (0,) * (n - 2) + r)
    lhs = {b: -c for b, c in lhs.items()}
    rhs = _tangent_action(n, n, False)((j,) + (0,) * (n - 1) + r)
    target = (j - 1, 0) + (0,) * (n - 2) + (m - j + 1,)
    ok = lhs == {target: -1} and rhs == {target: j} and lhs != rhs
    entries.append(
        check_entry(
            "hook-counterexample",
            ok,
            "two sides evaluate to -1 and j times the same monomial",
            j=j,
        )
    )
    return entries


def _contraction_isometry(n: int, m: int, j: int, raising: tuple, lowering: tuple) -> dict:
    """The contraction  beta -> sum_k rho(xi+_k) beta(xi-_k)  from grade-j
    forms into grade j+1 kills the hook component and is a proportional
    isometry on the symmetric component.

    Let C be the matrix of the contraction (block k is rho(xi+_k) from
    grade j to grade j+1), L the blocks rho(xi-_k) from grade j+1 to grade j
    stacked, and S the polarizations of grade j, one per row.  The
    multiplication map M into degree j+1, (w_k)_k -> sum_k e_k w_k, is the
    dual polarization family of grade j: both S and M are rows of
    ``polarization_family``.  Verified as: (a) the contraction vanishes on
    the hook component, the kernel of M: the rows of C lie in the row space
    of M, so rank([M; C]) = rank(M), and the hook has dimension
    n * d_in - rank(M); (b) composing with the exact adjoint is one positive
    rational multiple of the identity on the polarization basis,
    S C^T L^T = scalar S, the scalar read off the first entry of S; (c) the
    pinned witness value contraction(eps_1 (x) e1^j r) = (m-j) e1^(j+1) r'
    holds exactly.  ``raising`` holds the rho(xi+_k) from grade j, and
    ``lowering`` the rho(xi-_k) from grade j+1.
    """
    index = _grade_index(n, m, j)
    cols = n * len(index)

    # hook component: kernel of the multiplication map M into degree j+1,
    # the dual polarization family of grade j; the contraction kills it
    # when its rows lie in the row space of M
    M = ExactMatrix.from_rows(polarization_family(n, m, j, True, index), cols)
    Ct = _stack_vertically([X.transpose() for X in raising])  # C^T
    mult_rank = rank(M)
    hook_dim = cols - mult_rank
    hook_ok = rank(_stack_vertically([M, Ct.transpose()])) == mult_rank

    # adjoint composition on the symmetric (polarization) basis
    S = ExactMatrix.from_rows(polarization_family(n, m, j, False, index), cols)
    back = S * Ct * _stack_vertically(lowering).transpose()
    col, first = next(iter(S.sparse_rows()[0].items()))
    scalar = back.at(0, col) / first
    iso_ok = scalar.is_real() and scalar.re > 0 and back == S.scale(scalar)

    pinned = _tangent_action(n, 0, False)((j,) + (0,) * (n - 1) + (m - j,))
    pin_ok = pinned == {(j + 1,) + (0,) * (n - 1) + (m - j - 1,): m - j}

    ok = hook_ok and iso_ok and pin_ok
    return check_entry(
        "contraction-isometry",
        ok,
        f"hook kernel dim {hook_dim} annihilated: {hook_ok}; "
        f"adjoint composition scalar {scalar}: {iso_ok}; pinned value: {pin_ok}",
        j=j,
        hook_dim=hook_dim,
        scalar=str(scalar),
    )


# -- the n = 1 (Riemann surface) split ---------------------------------------


def _nullity(rows: Sequence[Row], cols: Sequence[int]) -> int:
    """The nullity of the block of ``rows`` on the columns ``cols``."""
    return len(cols) - rank(column_block(rows, cols))


def riemann_split_report(ctx: RepContext) -> dict:
    """Split of the joint kernel into complex- and conjugate-linear halves.

    For n = 1 the kernel decomposes as a direct sum of a complex-linear and
    a conjugate-linear subspace of equal dimension, each supported in the
    extreme grade its linearity type can reach.  Running the same report on
    n >= 2 shows the split failing (the complex-linear half is trivial),
    which is exactly why those kernels are one-sided.

    Every verdict is a nullity of the assembled system A; no kernel is
    solved for.  A vector of the kernel of A restricted to a column set S,
    padded with zeros, is in ker A, so that nullity is the dimension of the
    part of ker A supported in S.  A cocycle is complex-linear when its
    Zbar values vanish, so the complex-linear half has the dimension of the
    nullity on the Z columns, and the conjugate-linear half that on the
    Zbar columns.  A half lies in grade g exactly when its nullity on its
    grade-g columns equals its own.  The two halves have disjoint supports,
    so they form a direct sum of ker A exactly when their dimensions add up
    to cols - rank(A).
    """
    m = ctx.m
    A = assemble_system(ctx)
    rows = A.sparse_rows()
    kdim = A.cols - rank(A)
    grades = [grade_of(a, m) for a in ctx.basis()] * ctx.n
    h = len(grades)

    def half(lo: int, g: int) -> tuple[int, bool]:
        dim = _nullity(rows, range(lo, lo + h))
        graded = [lo + j for j, k in enumerate(grades) if k == g]
        return dim, _nullity(rows, graded) == dim

    complex_grade = m if ctx.dual else 0
    conj_grade = 0 if ctx.dual else m
    complex_dim, complex_ok = half(0, complex_grade)
    conj_dim, conj_ok = half(h, conj_grade)
    checks = [
        check_entry(
            "equal-dimensions",
            complex_dim == conj_dim,
            f"complex-linear {complex_dim}, conjugate-linear {conj_dim}",
        ),
        check_entry(
            "direct-sum",
            complex_dim + conj_dim == kdim,
            f"parts sum to {complex_dim + conj_dim} of {kdim}",
        ),
        check_entry(
            "complex-part-extreme-grade",
            complex_ok,
            f"complex-linear part supported in grade {complex_grade}",
        ),
        check_entry(
            "conjugate-part-extreme-grade",
            conj_ok,
            f"conjugate-linear part supported in grade {conj_grade}",
        ),
    ]
    return {
        "kernel_dim": kdim,
        "complex_linear_dim": complex_dim,
        "conjugate_linear_dim": conj_dim,
        "split": all(c["status"] == "pass" for c in checks),
        "checks": checks,
    }


# -- the full battery for one case -------------------------------------------


def lemma_battery(n: int, m: int) -> list[dict]:
    """All structure checks for one (n, m): grading, dual symmetry,
    symmetric forcing for every grade, contraction isometry for every
    applicable grade.  Rejects n < 1 or m < 1 as ``RepContext`` does.

    The operator table is built once and passed to the checks.  If an
    image leaves its adjacent grade, the battery is one failing
    ``operator-grading`` entry per grade 1 <= k < m (one with no grade
    when m = 1) and nothing else.
    """
    RepContext(n, m)
    try:
        raising, lowering, dual_top = graded_operators(n, m)
    except ValueError:
        return [
            check_entry("operator-grading", False, "image escaped the adjacent grades", j=k)
            for k in range(1, m) or (None,)
        ]
    entries = _operator_grading(n, m, raising, lowering)
    entries.append(_dual_symmetry(n, m, dual_top))
    for j in range(1, m + 1):
        entries.extend(_symmetric_forcing(n, m, j, lowering[j]))
    if m == 1:
        entries.append(
            check_entry("contraction-isometry", None, "no grade with 1 <= j < m", j=None)
        )
    else:
        for j in range(1, m):
            entries.append(_contraction_isometry(n, m, j, raising[j], lowering[j + 1]))
    return entries
