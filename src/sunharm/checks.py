"""Exact verifiers for the graded-operator structure of the representation.

Each check here is an independent computation: relation subspaces come out
of fresh eliminations, spanning sets are written down explicitly, and every
comparison is an exact rank or zero test.  The entries returned are plain
dicts ``{"name", "j", "status", "details"}`` with status ``pass``, ``fail``
or ``vacuous`` (empty parameter range), ready for the report layer.
"""

from __future__ import annotations

import math
from typing import Sequence

from .exactfield import GaussianRational
from .linalg import ExactMatrix, kernel_basis, rank, same_span
from .sun1 import e_vec, tangent_samples, xi, xi_minus, xi_plus
from .symrep import (
    DualSymTensor,
    RepContext,
    SymTensor,
    derivative,
    graded_monomials,
    monomials,
    multiply_var,
    rho_apply,
    rho_matrix_restricted,
    shift_down,
)
from .harmonic import (
    cocycle_from_vector,
    cocycle_to_vector,
    harmonic_kernel,
    minus_part,
    pairwise_relation_rows,
    plus_part,
    values_from_vector,
    values_to_vector,
)


def _entry(name: str, j, passed: bool | None, detail: str, **extra) -> dict:
    status = "vacuous" if passed is None else ("pass" if passed else "fail")
    out = {"name": name, "j": j, "status": status, "details": detail}
    out.update(extra)
    return out


def _stack_vertically(mats: Sequence[ExactMatrix]) -> ExactMatrix:
    return ExactMatrix.from_rows(
        [r for M in mats for r in M.sparse_rows()], mats[0].cols
    )


# -- grading and injectivity of the raising/lowering operators --------------


def check_operator_grading(n: int, m: int) -> list[dict]:
    """Grade shifts, nonvanishing, joint injectivity, extreme linearity.

    For 1 <= k <= m-1 the complex-linear half of xi(v) must send grade k to
    grade k+1 and the conjugate-linear half to grade k-1, each restriction
    nonzero for v != 0, and the stacked maps over a basis of directions must
    have trivial kernel.  On the extreme grades the action collapses to a
    single linearity type.
    """
    entries = []
    samples = [v for v in tangent_samples(n) if any(v)]
    for k in range(1, m):
        mid = graded_monomials(n, m, k)
        up = graded_monomials(n, m, k + 1)
        down = graded_monomials(n, m, k - 1)
        ok = True
        detail = []
        for v in samples:
            try:
                Mp = rho_matrix_restricted(xi_plus(v), mid, up)
                Mm = rho_matrix_restricted(xi_minus(v), mid, down)
                full = rho_matrix_restricted(xi(v), mid, tuple(up) + tuple(down))
            except ValueError:
                ok = False
                detail.append("image escaped the adjacent grades")
                break
            if Mp.is_zero() or Mm.is_zero() or full.is_zero():
                ok = False
                detail.append("restriction vanished for a nonzero direction")
                break
        if ok:
            dk = len(mid)
            plus_stack = _stack_vertically(
                [rho_matrix_restricted(xi_plus(e_vec(a, n)), mid, up) for a in range(n)]
            )
            minus_stack = _stack_vertically(
                [
                    rho_matrix_restricted(xi_minus(e_vec(a, n)), mid, down)
                    for a in range(n)
                ]
            )
            inj = rank(plus_stack) == dk and rank(minus_stack) == dk
            if not inj:
                ok = False
                detail.append("stacked raising/lowering map has a kernel")
        entries.append(
            _entry(
                "operator-grading",
                k,
                ok,
                "; ".join(detail) if detail else "grade shifts, nonvanishing and joint injectivity verified",
            )
        )
    top = graded_monomials(n, m, m)
    bottom = graded_monomials(n, m, 0)
    extreme_ok = True
    for v in samples:
        if any(rho_apply(xi_plus(v), SymTensor.monomial(a)) for a in top):
            extreme_ok = False
        if any(rho_apply(xi_minus(v), SymTensor.monomial(a)) for a in bottom):
            extreme_ok = False
    entries.append(
        _entry(
            "extreme-linearity",
            None,
            extreme_ok,
            "top grade sees only the conjugate-linear half, bottom grade only the complex-linear half",
        )
    )
    return entries


# -- relation subspaces ------------------------------------------------------


def _pairwise_relation_kernel(ops: Sequence[ExactMatrix]) -> list[list[GaussianRational]]:
    """Kernel of {(x_1..x_n) : Op_a x_b = Op_b x_a for all a < b}."""
    rows = pairwise_relation_rows(ops)
    return kernel_basis(ExactMatrix.from_rows(rows, len(ops) * ops[0].cols))


def check_dual_symmetry(n: int, m: int) -> dict:
    """Complex-linear dual forms with a symmetric pairwise relation fill
    exactly the fully symmetric subspace.

    The relation subspace {C : rho'(xi+_a) C_b = rho'(xi+_b) C_a} inside
    n copies of the top dual grade is computed by elimination and compared,
    by mutual rank, with the explicit symmetric spanning set (exponent
    shifts of dual monomials of degree m+1).
    """
    if n < 2:
        return _entry("dual-symmetry", None, None, "needs n >= 2")
    in_basis = graded_monomials(n, m, m)
    out_basis = graded_monomials(n, m, m - 1)
    in_index = {a: i for i, a in enumerate(in_basis)}
    ops = [
        rho_matrix_restricted(xi_plus(e_vec(a, n)), in_basis, out_basis, dual=True)
        for a in range(n)
    ]
    ker = _pairwise_relation_kernel(ops)
    d_in = len(in_basis)
    span = []
    for nu in monomials(n, m + 1):
        tau = DualSymTensor.monomial(nu + (0,))
        span.append(values_to_vector([shift_down(tau, k) for k in range(n)], in_index))
    expected = math.comb(n + m, m + 1)
    ok = len(ker) == expected and same_span(ker, span, n * d_in)
    return _entry(
        "dual-symmetry",
        None,
        ok,
        f"relation subspace dimension {len(ker)}, expected {expected}, span equality {ok}",
        dimension=len(ker),
        expected=expected,
    )


def check_symmetric_forcing(n: int, m: int, j: int) -> list[dict]:
    """A symmetric pairwise relation on a grade-j form forces membership in
    the leading component; the hook component violates it.

    (a) The relation subspace {w : rho(xi-_a) w_b = rho(xi-_b) w_a} equals,
    by mutual rank, the span of derivative polarizations of degree-(j+1)
    polynomials.  (b) The explicit hook witness
    ``eps_2 (x) e1^j r - eps_1 (x) e1^(j-1) e2 r`` (r the residual last-
    coordinate power) evaluates the two sides of the relation to
    -1 and j times the same monomial, which differ for every j >= 1.
    """
    if not 1 <= j <= m:
        raise ValueError("j out of range")
    entries = []
    in_basis = graded_monomials(n, m, j)
    out_basis = graded_monomials(n, m, j - 1)
    in_index = {a: i for i, a in enumerate(in_basis)}
    ops = [
        rho_matrix_restricted(xi_minus(e_vec(a, n)), in_basis, out_basis)
        for a in range(n)
    ]
    ker = _pairwise_relation_kernel(ops)
    d_in = len(in_basis)
    span = []
    for sigma in monomials(n, j + 1):
        s = SymTensor.monomial(sigma + (m - j,))
        span.append(values_to_vector([derivative(s, k) for k in range(n)], in_index))
    expected = math.comb(n + j, j + 1)
    ok = len(ker) == expected and same_span(ker, span, n * d_in)
    entries.append(
        _entry(
            "symmetric-forcing",
            j,
            ok,
            f"relation subspace dimension {len(ker)}, expected {expected}, span equality {ok}",
            dimension=len(ker),
            expected=expected,
        )
    )

    if n < 2:
        entries.append(
            _entry("hook-counterexample", j, None, "needs n >= 2")
        )
        return entries
    w1 = -SymTensor.monomial((j - 1, 1) + (0,) * (n - 2) + (m - j,))
    w2 = SymTensor.monomial((j,) + (0,) * (n - 1) + (m - j,))
    lhs = rho_apply(xi_minus(e_vec(1, n)), w1)
    rhs = rho_apply(xi_minus(e_vec(0, n)), w2)
    target = (j - 1, 0) + (0,) * (n - 2) + (m - j + 1,)
    lhs_expected = SymTensor.monomial(target, -1)
    rhs_expected = SymTensor.monomial(target, j)
    ok = lhs == lhs_expected and rhs == rhs_expected and lhs != rhs
    entries.append(
        _entry(
            "hook-counterexample",
            j,
            ok,
            "two sides evaluate to -1 and j times the same monomial",
        )
    )
    return entries


def check_contraction_isometry(n: int, m: int, j: int) -> dict:
    """The contraction  beta -> sum_k rho(xi+_k) beta(xi-_k)  from grade-j
    forms into grade j+1 kills the hook component and is a proportional
    isometry on the symmetric component.

    Verified as: (a) the contraction vanishes on an elimination-built basis
    of the hook component (kernel of the multiplication map); (b) composing
    with the exact adjoint gives one positive rational multiple of the
    identity on the polarization basis; (c) the pinned witness value
    contraction(eps_1 (x) e1^j r) = (m-j) e1^(j+1) r' holds exactly.
    """
    if not 1 <= j < m:
        raise ValueError("j out of range")
    in_basis = graded_monomials(n, m, j)
    d_in = len(in_basis)

    # hook component: kernel of the multiplication map into degree j+1
    prod_basis = tuple(mu + (m - j,) for mu in monomials(n, j + 1))
    prod_index = {a: i for i, a in enumerate(prod_basis)}
    rows = [{} for _ in prod_basis]
    for k in range(n):
        for cidx, alpha in enumerate(in_basis):
            image = multiply_var(SymTensor.monomial(alpha), k)
            (beta, c), = image.coeffs.items()
            rows[prod_index[beta]][k * d_in + cidx] = c
    hook = kernel_basis(ExactMatrix.from_rows(rows, n * d_in))

    def contraction(values):
        out = None
        for k in range(n):
            t = rho_apply(xi_plus(e_vec(k, n)), values[k])
            out = t if out is None else out + t
        return out

    hook_ok = all(
        contraction(values_from_vector(SymTensor, n, m, in_basis, h)).is_zero()
        for h in hook
    )

    # adjoint composition on the symmetric (polarization) basis
    scalar = None
    iso_ok = True
    for sigma in monomials(n, j + 1):
        s = SymTensor.monomial(sigma + (m - j,))
        values = [derivative(s, k) for k in range(n)]
        image = contraction(values)
        back = [rho_apply(xi_minus(e_vec(k, n)), image) for k in range(n)]
        for k in range(n):
            w = values[k]
            u = back[k]
            if w.is_zero():
                if not u.is_zero():
                    iso_ok = False
                continue
            alpha = next(iter(w.coeffs))
            c = u.coefficient(alpha) / w.coefficient(alpha)
            if scalar is None:
                scalar = c
            if c != scalar or u != w.scale(scalar):
                iso_ok = False
    iso_ok = iso_ok and scalar is not None and scalar.is_real() and scalar.re > 0

    pin_in = SymTensor.monomial((j,) + (0,) * (n - 1) + (m - j,))
    pinned = rho_apply(xi_plus(e_vec(0, n)), pin_in)
    pin_expected = SymTensor.monomial((j + 1,) + (0,) * (n - 1) + (m - j - 1,), m - j)
    pin_ok = pinned == pin_expected

    ok = hook_ok and iso_ok and pin_ok
    return _entry(
        "contraction-isometry",
        j,
        ok,
        f"hook kernel dim {len(hook)} annihilated: {hook_ok}; "
        f"adjoint composition scalar {scalar}: {iso_ok}; pinned value: {pin_ok}",
        hook_dim=len(hook),
        scalar=str(scalar),
    )


# -- the n = 1 (Riemann surface) split ---------------------------------------


def riemann_split_report(ctx: RepContext) -> dict:
    """Split of the joint kernel into complex- and conjugate-linear halves.

    For n = 1 the kernel decomposes as a direct sum of a complex-linear and
    a conjugate-linear subspace of equal dimension, each supported in the
    extreme grade its linearity type can reach.  Running the same report on
    n >= 2 shows the split failing (the complex-linear half is trivial),
    which is exactly why those kernels are one-sided.
    """
    n, m = ctx.n, ctx.m
    kernel = harmonic_kernel(ctx)
    kdim = len(kernel)
    vecs = [cocycle_to_vector(a) for a in kernel]
    index = ctx.basis_index()

    def part_sub_basis(part):
        """Basis (as cocycles) of {a in kernel : part(a) = 0}."""
        if not kernel:
            return []
        # column r: the residuals part(a_r, e_j) of kernel element r over all j
        residuals = ExactMatrix(
            [values_to_vector([part(a, e_vec(j, n)) for j in range(n)], index)
             for a in kernel]
        ).transpose()
        combine = ExactMatrix(vecs).transpose()
        return [
            cocycle_from_vector(ctx, combine.apply(combo))
            for combo in kernel_basis(residuals)
        ]

    complex_sub = part_sub_basis(minus_part)  # minus part vanishes
    conj_sub = part_sub_basis(plus_part)  # plus part vanishes
    complex_grade = m if ctx.dual else 0
    conj_grade = 0 if ctx.dual else m

    def supported_in(cos, g):
        return all(
            w.support_grades() <= {g}
            for a in cos
            for w in (*a.a_values, *a.b_values)
        )

    checks = [
        {
            "name": "equal-dimensions",
            "status": "pass" if len(complex_sub) == len(conj_sub) else "fail",
            "details": f"complex-linear {len(complex_sub)}, conjugate-linear {len(conj_sub)}",
        },
        {
            "name": "direct-sum",
            "status": "pass" if len(complex_sub) + len(conj_sub) == kdim else "fail",
            "details": f"parts sum to {len(complex_sub) + len(conj_sub)} of {kdim}",
        },
        {
            "name": "complex-part-extreme-grade",
            "status": "pass" if supported_in(complex_sub, complex_grade) else "fail",
            "details": f"complex-linear part supported in grade {complex_grade}",
        },
        {
            "name": "conjugate-part-extreme-grade",
            "status": "pass" if supported_in(conj_sub, conj_grade) else "fail",
            "details": f"conjugate-linear part supported in grade {conj_grade}",
        },
    ]
    return {
        "kernel_dim": kdim,
        "complex_linear_dim": len(complex_sub),
        "conjugate_linear_dim": len(conj_sub),
        "split": all(c["status"] == "pass" for c in checks),
        "checks": checks,
    }


# -- the full battery for one case -------------------------------------------


def lemma_battery(n: int, m: int) -> list[dict]:
    """All structure checks for one (n, m): grading, dual symmetry,
    symmetric forcing for every grade, contraction isometry for every
    applicable grade."""
    entries = list(check_operator_grading(n, m))
    entries.append(check_dual_symmetry(n, m))
    for j in range(1, m + 1):
        entries.extend(check_symmetric_forcing(n, m, j))
    if m == 1:
        entries.append(
            _entry("contraction-isometry", None, None, "no grade with 1 <= j < m")
        )
    else:
        for j in range(1, m):
            entries.append(check_contraction_isometry(n, m, j))
    return entries
