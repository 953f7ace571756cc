import copy
import math
import pickle

import pytest

from sunharm import ExactMatrix, ONE, RepContext, ZERO, gq
from sunharm.harmonic import _tangent_action, k_generators
from sunharm.symrep import (
    _map_matrix,
    graded_monomials,
    monomial_index,
    monomials,
    polarization_family,
)

from conftest import make_rng, random_value
from reference import (
    DualSymTensor,
    I,
    SymTensor,
    adjoint_on_p_plus,
    bracket,
    derivation_matrix,
    e_vec,
    h0,
    identity,
    inner,
    k_basis,
    k_group_action,
    matrix_neg,
    matrix_sub,
    pair,
    power_of_vector,
    project_grade,
    rho_apply,
    rho_matrix,
    tangent_samples,
    tensor_polarization_family,
    unitary_corpus,
    xi,
    xi_minus,
    xi_plus,
)


def top_power(n, m):
    """e_{n+1}^m."""
    return SymTensor.monomial((0,) * n + (m,))


@pytest.mark.parametrize("n,m", [(2, 1), (2, 3), (3, 2)])
def test_raising_on_top_power(n, m):
    v = [gq(2, 1)] + [gq("1/2")] * (n - 1)
    img = rho_apply(xi_plus(v), top_power(n, m))
    expected = SymTensor.zero(n, m)
    for j in range(n):
        expected = expected + SymTensor.monomial(
            tuple(1 if t == j else 0 for t in range(n)) + (m - 1,), v[j] * m
        )
    assert img == expected


@pytest.mark.parametrize("n,m", [(2, 2), (3, 3)])
def test_lowering_on_first_coordinate_power(n, m):
    v = [gq(1, 2)] + [gq(3)] * (n - 1)
    w = SymTensor.monomial((m,) + (0,) * n)
    img = rho_apply(xi_minus(v), w)
    expected = SymTensor.monomial((m - 1,) + (0,) * (n - 1) + (1,), v[0].conjugate() * m)
    assert img == expected


def test_raising_kills_horizontal_powers():
    n, m = 2, 3
    u = power_of_vector([1, 2, 0], m)  # a power of a vector in the first n coords
    assert rho_apply(xi_plus([gq(1), gq(1, 1)]), u).is_zero()


def test_projection_examples():
    n, m = 2, 3
    w = top_power(n, m)
    assert project_grade(w, 0) == w
    assert project_grade(w, m).is_zero()
    mix = SymTensor.monomial((1, 0, m - 1)) + SymTensor.monomial((m, 0, 0))
    assert project_grade(mix, 1) == SymTensor.monomial((1, 0, m - 1))
    total = SymTensor.zero(n, m)
    for k in range(m + 1):
        total = total + project_grade(mix, k)
    assert total == mix


def test_projection_out_of_range():
    with pytest.raises(ValueError):
        project_grade(top_power(2, 2), 3)


def test_inner_weights():
    assert inner(SymTensor.monomial((1, 1, 0)), SymTensor.monomial((1, 1, 0))) == ONE
    assert inner(SymTensor.monomial((2, 0, 0)), SymTensor.monomial((2, 0, 0))) == gq(2)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_adjointness_instance_both_sides_factorial(m):
    n = 2
    lhs_vec = rho_apply(xi_plus(e_vec(0, n)), top_power(n, m))
    probe = SymTensor.monomial((1, 0, m - 1))
    lhs = inner(lhs_vec, probe)
    rhs = inner(top_power(n, m), rho_apply(xi_minus(e_vec(0, n)), probe))
    assert lhs == rhs == gq(math.factorial(m))


def test_inner_conjugate_linearity_in_second_argument():
    w = SymTensor.monomial((1, 0, 0))
    assert inner(w, w.scale(I)) == -I
    assert inner(w.scale(I), w) == I


def test_grades_are_orthogonal():
    rng = make_rng(23)
    ctx = RepContext(2, 3)
    w1 = random_value(rng, ctx)
    w2 = random_value(rng, ctx)
    total = ZERO
    for k1 in range(ctx.m + 1):
        for k2 in range(ctx.m + 1):
            v = inner(project_grade(w1, k1), project_grade(w2, k2))
            if k1 != k2:
                assert v == ZERO
            total = total + v
    assert total == inner(w1, w2)


def test_multi_index_degree_enforced():
    with pytest.raises(ValueError):
        SymTensor(2, 3, {(1, 0, 0): gq(1)})


@pytest.mark.parametrize("cls", [SymTensor, DualSymTensor])
@pytest.mark.parametrize("alpha", [(9, 9), (1, 0, 0)])
def test_multi_index_shape_checked_before_zero_coefficients_drop(cls, alpha):
    # a zero coefficient on a malformed multi-index is still an error
    with pytest.raises(ValueError):
        cls(2, 2, {alpha: 0})
    with pytest.raises(ValueError):
        cls(2, 2, {(2, 0, 0): 1, alpha: ZERO})
    assert cls(2, 2, {(2, 0, 0): 0}).is_zero()


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_polarization_family_matches_tensor_reference(n, dual):
    """The family written from exponents equals the polarization section of
    each monomial, built from tensors, at every grade of every m <= 5: in
    the grade's own index and in the whole degree-m basis."""
    for m in range(1, 6):
        for g in range(m + 1):
            graded = {a: i for i, a in enumerate(graded_monomials(n, m, g))}
            for index in (graded, monomial_index(n + 1, m)):
                family = polarization_family(n, m, g, dual, index)
                assert family == tensor_polarization_family(n, m, g, dual, index)
                assert len(family) == math.comb(n + g, g + 1)


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2)])
def test_hermitian_and_skew_hermitian(n, m):
    rng = make_rng(7)
    ctx = RepContext(n, m)
    w1 = random_value(rng, ctx)
    w2 = random_value(rng, ctx)
    for v in tangent_samples(n):
        X = xi(v)
        assert inner(rho_apply(X, w1), w2) == inner(w1, rho_apply(X, w2))
    for K in k_basis(n):
        assert inner(rho_apply(K, w1), w2) == -inner(w1, rho_apply(K, w2))


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2)])
def test_representation_property(n, m):
    samples = [
        xi(tangent_samples(n)[0]),
        xi_plus(tangent_samples(n)[-1]),
        xi_minus(tangent_samples(n)[1]),
        h0(n),
        k_basis(n)[-1],
    ]
    for X in samples:
        for Y in samples:
            lhs = rho_matrix(bracket(X, Y), n, m)
            MX = rho_matrix(X, n, m)
            MY = rho_matrix(Y, n, m)
            assert lhs == matrix_sub(MX * MY, MY * MX)


def test_dual_action_is_negated_transpose():
    n, m = 2, 2
    X = xi([gq(1, 1), gq("1/2", "-1/3")])
    Mp = rho_matrix(X, n, m, dual=False)
    Md = rho_matrix(X, n, m, dual=True)
    assert Md == matrix_neg(Mp.transpose())


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 4)])
def test_rho_matrix_matches_derivation_reference(n, m):
    """rho(X) from the monomial action equals the sum of derivations
    X[j][i] e_j d/de_i on the complex tangents, the generators of k_C and a
    diagonal whose entries cancel on e_1 e_2 e_{n+1}^(m-2); the dual matrix
    is its negated transpose, and no zero entry is stored."""
    tangents = [f(e_vec(j, n)) for f in (xi_plus, xi_minus) for j in range(n)]
    cancel = ExactMatrix.diagonal([ONE, -ONE] + [ZERO] * (n - 1))
    for X in [*tangents, *k_generators(n), cancel]:
        M = rho_matrix(X, n, m)
        assert M == derivation_matrix(X, n, m)
        D = rho_matrix(X, n, m, dual=True)
        assert D == matrix_neg(M.transpose())
        assert all(x for r in M.sparse_rows() + D.sparse_rows() for x in r.values())
    mixed = monomial_index(n + 1, m)[(1, 1) + (0,) * (n - 2) + (m - 2,)]
    assert not any(mixed in r for r in rho_matrix(cancel, n, m).sparse_rows())


def test_rho_matrix_rejects_size_mismatch():
    # a 3 x 3 matrix (n = 2) against monomials in four variables, and back;
    # then 3 x 2 and 3 x 6 matrices, whose row count matches n = 2
    with pytest.raises(ValueError, match="does not match"):
        rho_matrix(xi_plus(e_vec(0, 2)), 3, 2)
    with pytest.raises(ValueError, match="does not match"):
        rho_matrix(xi_plus(e_vec(0, 3)), 2, 2)
    for cols in (2, 6):
        X = ExactMatrix.from_rows([{cols - 1: ONE}, {}, {}], cols)
        with pytest.raises(ValueError, match="does not match"):
            rho_matrix(X, 2, 2)


def test_rho_matrix_validates_its_case():
    # the case is checked as RepContext checks it, before the matrix size
    X = xi_plus(e_vec(0, 2))
    with pytest.raises(ValueError, match="m must be >= 1"):
        rho_matrix(X, 2, -1)
    with pytest.raises(ValueError, match="m must be >= 1"):
        rho_matrix(X, 2, 0)
    with pytest.raises(TypeError, match="dual must be a bool"):
        rho_matrix(X, 2, 1, 1)


def test_map_matrix_rejects_image_outside_target():
    # Z_1 raises the grade, so grade 1 does not map into grade 1
    n, m = 2, 3
    mid = graded_monomials(n, m, 1)
    with pytest.raises(ValueError, match="outside the target basis"):
        _map_matrix(_tangent_action(n, 0, False), mid, mid)
    with pytest.raises(ValueError, match="outside the target basis"):
        _map_matrix(_tangent_action(n, 0, True), mid, mid)


def test_dual_action_pairing_identity():
    n, m = 2, 2
    rng = make_rng(3)
    ctx_p = RepContext(n, m)
    ctx_d = RepContext(n, m, dual=True)
    w = random_value(rng, ctx_p)
    lam = random_value(rng, ctx_d)
    for v in tangent_samples(n):
        X = xi(v)
        assert pair(rho_apply(X, lam), w) == -pair(lam, rho_apply(X, w))


def test_k_group_action_identity():
    w = SymTensor.monomial((1, 0, 1))
    assert k_group_action(identity(2), w) == w


def test_k_group_action_diagonal():
    w = SymTensor.monomial((1, 0, 1))
    out = k_group_action(ExactMatrix.diagonal([I, -I]), w)
    assert out == w.scale(I)


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2)])
def test_k_group_action_unitary_and_graded(n, m):
    rng = make_rng(11)
    ctx = RepContext(n, m)
    w1 = random_value(rng, ctx)
    w2 = random_value(rng, ctx)
    for A in unitary_corpus(n):
        g1 = k_group_action(A, w1)
        g2 = k_group_action(A, w2)
        assert inner(g1, g2) == inner(w1, w2)
        for k in range(m + 1):
            assert k_group_action(A, project_grade(w1, k)).support_grades() <= {k}


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2)])
def test_k_equivariance_of_raising_lowering(n, m):
    rng = make_rng(13)
    ctx = RepContext(n, m)
    w = random_value(rng, ctx)
    for A in unitary_corpus(n):
        for v in tangent_samples(n):
            kv = adjoint_on_p_plus(A, v)
            assert k_group_action(A, rho_apply(xi_plus(v), w)) == rho_apply(
                xi_plus(kv), k_group_action(A, w)
            )
            assert k_group_action(A, rho_apply(xi_minus(v), w)) == rho_apply(
                xi_minus(kv), k_group_action(A, w)
            )


def test_pair_examples():
    n, m = 2, 3
    lam = DualSymTensor.monomial((0, 0, m))
    assert pair(lam, top_power(n, m)) == ONE
    assert pair(lam, SymTensor.zero(n, m)) == ZERO
    lam1 = DualSymTensor.monomial((m, 0, 0))
    assert pair(lam1, power_of_vector([1, 1, 0], m)) == ONE


def test_pair_evaluation_on_powers():
    n, m = 2, 2
    rng = make_rng(5)
    lam = random_value(rng, RepContext(n, m, dual=True))
    v = [gq(2, 1), gq("1/2"), gq(1, -1)]
    vm = power_of_vector(v, m)
    direct = ZERO
    for alpha, c in lam.coeffs.items():
        term = c * math.factorial(m)
        for x, a in zip(v, alpha):
            term = term * (x ** a) / math.factorial(a)
        direct = direct + term
    assert pair(lam, vm) == direct


def test_rep_context_validation():
    with pytest.raises(ValueError):
        RepContext(0, 1)
    with pytest.raises(ValueError):
        RepContext(2, 0)
    ctx = RepContext(2, 2)
    assert ctx.dim_w == math.comb(4, 2)
    assert ctx.expected_kernel_dim == math.comb(4, 3)


@pytest.mark.parametrize(
    "args", [(2.0, 1), (2, 1.0), (True, 1), (2, False), (2, 1, 1), (2, 1, "yes")]
)
def test_rep_context_rejects_wrong_types(args):
    """n and m must be ints (not bools) and dual a bool, checked at
    construction, before a report records the value or ``dim_w`` reads it."""
    with pytest.raises(TypeError):
        RepContext(*args)


def test_monomial_order_is_lex():
    basis = monomials(2, 2)
    assert basis == ((0, 2), (1, 1), (2, 0))
    idx = monomial_index(2, 2)
    assert idx[(1, 1)] == 1
    assert graded_monomials(2, 3, 1) == ((0, 1, 2), (1, 0, 2))


def test_mixing_primal_dual_rejected():
    with pytest.raises(TypeError):
        SymTensor.monomial((1, 0)) + DualSymTensor.monomial((1, 0))
    with pytest.raises(TypeError):
        inner(SymTensor.monomial((1, 0)), DualSymTensor.monomial((1, 0)))


def test_rep_context_is_an_immutable_value():
    """Equality and hash by (n, m, dual), the repr, the validation errors,
    assignment and deletion refused, and pickle and copy round trips."""
    ctx = RepContext(2, 3, True)
    assert ctx == RepContext(n=2, m=3, dual=True) != RepContext(2, 3)
    assert RepContext(2, 3) == RepContext(2, 3, False)
    assert ctx.__eq__((2, 3, True)) is NotImplemented
    assert hash(ctx) == hash((2, 3, True))
    assert len({RepContext(2, 3), RepContext(2, 3, False), ctx}) == 2
    assert repr(ctx) == "RepContext(n=2, m=3, dual=True)"
    assert repr(RepContext(1, 1)) == "RepContext(n=1, m=1, dual=False)"
    with pytest.raises(ValueError, match="n must be >= 1"):
        RepContext(0, 1)
    with pytest.raises(ValueError, match="m must be >= 1"):
        RepContext(1, 0)
    for name in ("n", "m", "dual", "other"):
        with pytest.raises(AttributeError):
            setattr(ctx, name, 1)
    with pytest.raises(AttributeError):
        del ctx.n
    assert (ctx.n, ctx.m, ctx.dual) == (2, 3, True)
    copies = [pickle.loads(pickle.dumps(ctx, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in [*copies, copy.copy(ctx), copy.deepcopy(ctx)]:
        assert type(c) is RepContext and c == ctx and hash(c) == hash(ctx)
        with pytest.raises(AttributeError):
            c.n = 5
