from fractions import Fraction

import pytest

from sunharm import ExactMatrix, ONE, ZERO, gq
from sunharm.harmonic import k_generators
from sunharm.linalg import rank

from reference import (
    I,
    adjoint_on_p_plus,
    bracket,
    canonical_weight,
    conj_transpose,
    dense_matrix,
    dense_p_element,
    dense_rank_of_rows,
    dense_rows,
    det,
    e_vec,
    embed_k,
    h0,
    identity,
    in_su,
    is_compact,
    is_unitary,
    is_xi_shape,
    j_form,
    k_basis,
    matrix_add,
    matrix_sub,
    p_basis,
    real_k_generators,
    scale_vec,
    tangent_samples,
    unitary_corpus,
    xi,
    xi_minus,
    xi_plus,
)


def test_xi_block_form():
    X = xi(e_vec(0, 2))
    assert X.at(0, 2) == ONE and X.at(2, 0) == ONE
    assert sum(1 for i in range(3) for j in range(3) if X.at(i, j)) == 2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_e_vec_rejects_an_index_outside_c_n(n):
    assert [e_vec(j, n).index(ONE) for j in range(n)] == list(range(n))
    for j in (-1, n, n + 5):
        with pytest.raises(ValueError, match="no basis vector"):
            e_vec(j, n)


def test_xi_of_zero():
    assert xi([0, 0]).is_zero()


def test_xi_conjugates_lower_block():
    X = xi(scale_vec(I, e_vec(0, 2)))
    assert X.at(0, 2) == I and X.at(2, 0) == -I


@pytest.mark.parametrize("n", [1, 2, 3])
def test_j_relation(n):
    Jm = j_form(n)
    for v in tangent_samples(n):
        X = xi(v)
        assert matrix_add(conj_transpose(X) * Jm, Jm * X).is_zero()


def test_xi_plus_shape_and_sum():
    v = [gq(1, 2), gq("1/3")]
    p = xi_plus(v)
    m = xi_minus(v)
    assert all(not p.at(2, j) for j in range(3))
    assert all(not m.at(j, 2) for j in range(3))
    assert matrix_add(p, m) == xi(v)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tangent_builders_match_dense_and_store_no_zero(n):
    # zero components of every kind (the shared ZERO, fresh, computed, a raw
    # int), real and Gaussian ones, rotated through every position
    x = gq(2, -3)
    parts = [ZERO, gq(5), gq(Fraction(0, 3)), x, x - x, gq("-1/2"), 0, I]
    for shift in range(len(parts)):
        v = [parts[(shift + j) % len(parts)] for j in range(n)]
        for build, upper, lower in (
            (xi, True, True),
            (xi_plus, True, False),
            (xi_minus, False, True),
        ):
            X = build(v)
            assert X == dense_p_element(v, upper, lower)
            assert all(y for row in X.sparse_rows() for y in row.values())
        assert xi(v) == matrix_add(xi_plus(v), xi_minus(v))


def test_xi_minus_conjugate_linear():
    v = [gq(2, -1), gq(0, 3)]
    assert xi_minus(scale_vec(I, v)) == xi_minus(v).scale(-I)
    assert xi_plus(scale_vec(I, v)) == xi_plus(v).scale(I)


def test_embed_identity():
    assert embed_k(identity(2)) == identity(3)


def test_embed_det_one():
    g = embed_k(ExactMatrix.diagonal([I, -I]))
    assert g == ExactMatrix.diagonal([I, -I, ONE])


def test_embed_det_twist():
    g = embed_k(ExactMatrix.diagonal([I, ONE]))
    assert g == ExactMatrix.diagonal([I, ONE, -I])


def test_embed_rejects_non_unitary():
    with pytest.raises(ValueError):
        embed_k(dense_matrix([[1, 1], [0, 1]]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_embed_preserves_j_form_and_det(n):
    Jm = j_form(n)
    for A in unitary_corpus(n):
        g = embed_k(A)
        assert conj_transpose(g) * Jm * g == Jm
        assert det(g) == ONE


def test_h0_matrix():
    H = h0(2)
    c = I * gq("1/3")
    assert H == ExactMatrix.diagonal([c, c, c * gq(-2)])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_h0_eigenvalues_on_p_parts(n):
    H = h0(n)
    for v in tangent_samples(n):
        p = xi_plus(v)
        m = xi_minus(v)
        assert matrix_sub(H * p, p * H) == p.scale(I)
        assert matrix_sub(H * m, m * H) == m.scale(-I)


def test_bracket_self_is_zero():
    X = xi([1, 2])
    assert bracket(X, X).is_zero()


def test_bracket_p_p_in_k():
    b = bracket(xi(e_vec(0, 2)), xi(e_vec(1, 2)))
    assert is_compact(b)


def test_bracket_k_p_in_p():
    b = bracket(h0(2), xi([gq(1, 1), gq("1/2")]))
    assert is_xi_shape(b)


@pytest.mark.parametrize("n", [2, 3])
def test_cartan_relations(n):
    ks = k_basis(n)
    ps = p_basis(n)
    for X in ks:
        assert in_su(X)
        for Y in ks:
            assert is_compact(bracket(X, Y))
        for Y in ps:
            assert is_xi_shape(bracket(X, Y))
    for X in ps:
        for Y in ps:
            assert is_compact(bracket(X, Y))


def _real_coordinates(X):
    # the (re, im) parts of every entry: a real coordinate vector of X
    return [gq(part) for row in dense_rows(X) for x in row for part in (x.re, x.im)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_k_basis_spans_k(n):
    # k is a copy of u(n), of real dimension n^2: every element lies in k
    # and the real span of the flattened (re, im) entries has rank n^2
    ks = k_basis(n)
    assert all(is_compact(X) for X in ks)
    rows = [_real_coordinates(X) for X in ks]
    assert dense_rank_of_rows(rows, 2 * (n + 1) ** 2) == n * n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_k_generators_generate_k(n):
    # brackets with the generators, iterated until the real span stops
    # growing, stay in k and span a space of real dimension n^2 = dim u(n)
    gens = real_k_generators(n)
    assert len(gens) == 3 * n - 2
    cols = 2 * (n + 1) ** 2
    span = [_real_coordinates(X) for X in gens]
    dim = dense_rank_of_rows(span, cols)
    frontier = list(gens)
    while frontier:
        new = []
        for X in frontier:
            for Y in gens:
                Z = bracket(X, Y)
                assert is_compact(Z)
                if dense_rank_of_rows(span + [_real_coordinates(Z)], cols) > dim:
                    span.append(_real_coordinates(Z))
                    dim += 1
                    new.append(Z)
        frontier = new
    assert dim == n * n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_k_generators_are_gaussian_integral(n):
    for X in real_k_generators(n):
        assert is_compact(X)
        assert all(Fraction(z.re).denominator == 1 for z in _real_coordinates(X))


def _in_k_c(X):
    # block-diagonal diag(B, c) with zero trace: an element of k (x) C
    n = X.rows - 1
    corners = any(X.at(i, n) or X.at(n, i) for i in range(n))
    trace = sum((X.at(i, i) for i in range(n + 1)), ZERO)
    return not corners and not trace


def _entries(X):
    # the entries of X as one sparse coordinate row over C
    w = X.cols
    return {i * w + j: x for i, row in enumerate(X.sparse_rows()) for j, x in row.items()}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_complex_k_generators_generate_k_c(n):
    # 2n - 1 sparse elements of k_C; brackets with them, iterated until the
    # complex span stops growing, stay in k_C and span a space of complex
    # dimension n^2 = dim gl(n)
    gens = k_generators(n)
    assert len(gens) == 2 * n - 1
    for X in gens:
        assert _in_k_c(X)
        # a single-entry matrix or a diagonal one
        rows = X.sparse_rows()
        assert len(_entries(X)) == 1 or all(set(r) <= {i} for i, r in enumerate(rows))
    cols = (n + 1) ** 2
    span = [_entries(X) for X in gens]
    dim = rank(ExactMatrix.from_rows(span, cols))
    frontier = list(gens)
    while frontier:
        new = []
        for X in frontier:
            for Y in gens:
                Z = bracket(X, Y)
                assert _in_k_c(Z)
                if rank(ExactMatrix.from_rows(span + [_entries(Z)], cols)) > dim:
                    span.append(_entries(Z))
                    dim += 1
                    new.append(Z)
        frontier = new
    assert dim == n * n


def test_adjoint_identity():
    v = [gq(1, 2), gq(3)]
    assert adjoint_on_p_plus(identity(2), v) == v


def test_adjoint_examples():
    A = ExactMatrix.diagonal([I, -I])
    assert adjoint_on_p_plus(A, e_vec(0, 2)) == scale_vec(I, e_vec(0, 2))
    B = ExactMatrix.diagonal([I, ONE])
    assert adjoint_on_p_plus(B, e_vec(1, 2)) == scale_vec(I, e_vec(1, 2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_adjoint_covariance_literal(n):
    for A in unitary_corpus(n):
        g = embed_k(A)
        ginv = conj_transpose(g)
        for v in tangent_samples(n):
            w = adjoint_on_p_plus(A, v)
            assert g * xi_plus(v) * ginv == xi_plus(w)
            assert g * xi_minus(v) * ginv == xi_minus(w)


def test_canonical_weight_examples():
    assert canonical_weight(identity(2)) == ONE
    assert canonical_weight(ExactMatrix.diagonal([I, ONE])) == -I
    assert canonical_weight(ExactMatrix.diagonal([I, -I])) == ONE


@pytest.mark.parametrize("n", [1, 2, 3])
def test_canonical_weight_is_det_power(n):
    for A in unitary_corpus(n):
        assert canonical_weight(A) == det(A) ** (n + 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_corpus_exactly_unitary(n):
    for A in unitary_corpus(n):
        assert is_unitary(A)
