"""Acceptance suite: every exit criterion exercised at its stated tolerance.

All comparisons are exact (zero residual); there are no numeric tolerances
anywhere.  Run with ``pytest tests/test_acceptance.py -s`` to see one
pass/fail line per criterion.
"""

import json
import math
from functools import lru_cache

import pytest

from sunharm import RepContext, harmonic_kernel, polarization_cocycles
from sunharm.checks import lemma_battery, riemann_split_report
from sunharm.harmonic import classify, cocycle_to_vector, polarization_rows
from sunharm.linalg import ExactMatrix, rank, same_span
from sunharm.verify import run_sweep

from conftest import make_rng, random_value, scrub
from reference import (
    I,
    SymTensor,
    adjoint_on_p_plus,
    bracket,
    canonical_weight,
    conj_transpose,
    det,
    e_vec,
    embed_k,
    h0,
    inner,
    is_compact,
    is_xi_shape,
    j_form,
    k_basis,
    k_group_action,
    matrix_add,
    p_basis,
    rho_apply,
    t_op,
    tangent_samples,
    tstar_op,
    unitary_corpus,
    xi,
    xi_minus,
    xi_plus,
)

GRID = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (3, 4), (4, 1), (4, 2)]


def report_line(name: str, ok: bool) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


@lru_cache(maxsize=None)
def kernel_and_report(n: int, m: int, dual: bool):
    ctx = RepContext(n, m, dual)
    kernel = tuple(harmonic_kernel(ctx))
    return ctx, kernel, classify(ctx, list(kernel), polarization_rows(ctx))


@lru_cache(maxsize=None)
def battery(n: int, m: int) -> tuple:
    return tuple(lemma_battery(n, m))


def lemma(n: int, m: int, name: str, j: int | None = None) -> dict:
    """The battery entry of (n, m) with this name and grade."""
    return next(e for e in battery(n, m) if e["name"] == name and e.get("j") == j)


def _kernel_suite(dual: bool) -> bool:
    ok = True
    for n, m in GRID:
        ctx, kernel, (flags, _checks) = kernel_and_report(n, m, dual)
        linear_key = "complex_linear" if dual else "conjugate_linear"
        ok &= flags[linear_key] and flags["top_graded"] and flags["symmetric_component"]
        ok &= len(kernel) == math.comb(n + m, m + 1)
        # independent oracle: explicit symmetric solutions verified through
        # the operator path, counted, and matched against the kernel span
        pol = polarization_cocycles(ctx)
        ok &= len(pol) == math.comb(n + m, m + 1)
        ok &= all(t_op(a).is_zero() and tstar_op(a).is_zero() for a in pol)
        pol_vecs = [cocycle_to_vector(a) for a in pol]
        ker_vecs = [cocycle_to_vector(a) for a in kernel]
        ncols = 2 * n * ctx.dim_w
        ok &= rank(ExactMatrix.from_rows(pol_vecs, ncols)) == len(pol)
        ok &= same_span(ker_vecs, pol_vecs, ncols)
        if not ok:
            break
    return ok


def test_primal_kernel_suite():
    report_line(
        "primal kernels over the grid: conjugate-linear, top-graded,"
        " symmetric, dimension C(n+m, m+1)",
        _kernel_suite(dual=False),
    )


def test_dual_kernel_suite():
    report_line(
        "dual kernels over the grid: complex-linear, top-graded, symmetric,"
        " dimension C(n+m, m+1)",
        _kernel_suite(dual=True),
    )


def test_operator_grading_suite():
    ok = True
    for n, m in GRID:
        entries = [
            e for e in battery(n, m) if e["name"] in ("operator-grading", "extreme-linearity")
        ]
        ok &= entries[-1]["name"] == "extreme-linearity"
        ok &= all(e["status"] == "pass" for e in entries)
        ks = [e["j"] for e in entries if e["name"] == "operator-grading"]
        ok &= ks == list(range(1, m))
    report_line("grading, nonvanishing, joint injectivity, extreme linearity", ok)


def test_symmetric_forcing_suite():
    ok = True
    for n, m in GRID:
        for j in range(1, m + 1):
            ok &= lemma(n, m, "symmetric-forcing", j)["status"] == "pass"
            ok &= lemma(n, m, "hook-counterexample", j)["status"] == "pass"
            # replay the witness computation at full precision
            r = m - j
            w1 = -SymTensor.monomial((j - 1, 1) + (0,) * (n - 2) + (r,))
            w2 = SymTensor.monomial((j,) + (0,) * (n - 1) + (r,))
            target = (j - 1, 0) + (0,) * (n - 2) + (r + 1,)
            ok &= rho_apply(xi_minus(e_vec(1, n)), w1) == SymTensor.monomial(target, -1)
            ok &= rho_apply(xi_minus(e_vec(0, n)), w2) == SymTensor.monomial(target, j)
    report_line("symmetric forcing with the exact -1 vs j witness sides", ok)


def test_contraction_isometry_suite():
    ok = True
    for n, m in GRID:
        for j in range(1, m):
            ok &= lemma(n, m, "contraction-isometry", j)["status"] == "pass"
            pinned = rho_apply(
                xi_plus(e_vec(0, n)),
                SymTensor.monomial((j,) + (0,) * (n - 1) + (m - j,)),
            )
            ok &= pinned == SymTensor.monomial(
                (j + 1,) + (0,) * (n - 1) + (m - j - 1,), m - j
            )
    report_line(
        "contraction kills the hook and is a proportional isometry;"
        " pinned value (m-j)", ok
    )


def test_dual_symmetry_suite():
    ok = True
    for n, m in GRID:
        entry = lemma(n, m, "dual-symmetry")
        ok &= entry["status"] == "pass"
        ok &= entry["dimension"] == math.comb(n + m, m + 1)
    report_line("dual symmetry subspace equals S^{m+1} with matching dimension", ok)


def test_riemann_surface_suite():
    ok = True
    for m in (2, 4):
        rep = riemann_split_report(RepContext(1, m))
        ok &= rep["split"]
        ok &= rep["complex_linear_dim"] == rep["conjugate_linear_dim"]
        ctx, kernel, (flags, _checks) = kernel_and_report(1, m, False)
        ok &= not flags["conjugate_linear"]
        ok &= not flags["dimension_match"]
    report_line("n=1 kernels split evenly and the one-sided classifier fails", ok)


def test_structural_suite():
    ok = True
    for n in (2, 3):
        Jm = j_form(n)
        for v in tangent_samples(n):
            X = xi(v)
            ok &= matrix_add(conj_transpose(X) * Jm, Jm * X).is_zero()
        ks, ps = k_basis(n), p_basis(n)
        for X in ks:
            for Y in ks:
                ok &= is_compact(bracket(X, Y))
            for Y in ps:
                ok &= is_xi_shape(bracket(X, Y))
        for X in ps:
            for Y in ps:
                ok &= is_compact(bracket(X, Y))
        H = h0(n)
        for v in tangent_samples(n):
            p, mn = xi_plus(v), xi_minus(v)
            ok &= bracket(H, p) == p.scale(I)
            ok &= bracket(H, mn) == mn.scale(-I)
        rng = make_rng(17)
        ctx = RepContext(n, 2)
        w1, w2 = random_value(rng, ctx), random_value(rng, ctx)
        for v in tangent_samples(n):
            ok &= inner(rho_apply(xi(v), w1), w2) == inner(w1, rho_apply(xi(v), w2))
        for K in k_basis(n):
            ok &= inner(rho_apply(K, w1), w2) == -inner(w1, rho_apply(K, w2))
        for A in unitary_corpus(n):
            ok &= canonical_weight(A) == det(A) ** (n + 1)
            g = embed_k(A)
            ginv = conj_transpose(g)
            for v in tangent_samples(n):
                kv = adjoint_on_p_plus(A, v)
                ok &= g * xi_plus(v) * ginv == xi_plus(kv)
                ok &= k_group_action(A, rho_apply(xi_plus(v), w1)) == rho_apply(
                    xi_plus(kv), k_group_action(A, w1)
                )
    report_line(
        "structure: J-relation, Cartan brackets, central eigenvalues,"
        " (skew-)Hermitian action, equivariance, det^(n+1) weight", ok
    )


def test_determinism_suite():
    a = run_sweep(3, 3, jobs=1)
    b = run_sweep(3, 3, jobs=1)
    same = json.dumps(scrub(a), sort_keys=True) == json.dumps(scrub(b), sort_keys=True)
    clean = a["summary"]["checks_failed"] == 0
    report_line("repeated sweeps byte-identical modulo timing fields", same and clean)
