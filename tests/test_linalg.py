from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sunharm import ExactMatrix, I, ONE, ZERO, gq, kernel_basis, rank
from sunharm.linalg import _echelon, _reduced_echelon, same_span, sparse_vector

from reference import (
    apply,
    conj_transpose,
    dense_matrix,
    dense_rank_of_rows,
    dense_rows,
    det,
    identity,
    rref,
    three_pass_same_span,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)
scalars = st.builds(gq, rationals, rationals)


# entries of coordinate vectors: zeros that are not the shared ZERO (built
# fresh, or computed), the shared ZERO, and arbitrary scalars
entries = st.one_of(
    st.just(ZERO),
    st.builds(gq, st.just(0)),
    st.builds(gq, st.just(Fraction(0, 3))),
    scalars.map(lambda x: x - x),
    scalars,
    scalars,
)


@st.composite
def span_pairs(draw):
    """Two families of vectors in Q(i)^cols; half the time the second is
    made of linear combinations of the first, so the spans often agree."""
    cols = draw(st.integers(1, 4))
    vectors = st.lists(st.lists(entries, min_size=cols, max_size=cols), max_size=4)
    a = draw(vectors)
    if draw(st.booleans()):
        b = draw(vectors)
    else:
        combos = st.lists(scalars, min_size=len(a), max_size=len(a))
        b = []
        for c in draw(st.lists(combos, max_size=4)):
            v = [gq(0)] * cols
            for f, u in zip(c, a):
                v = [x + f * y for x, y in zip(v, u)]
            b.append(v)
    return a, b, cols


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(scalars, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(dense_matrix)
        )
    )


def test_kernel_of_zero_matrix():
    kb = kernel_basis(ExactMatrix.zeros(2, 3))
    assert len(kb) == 3
    for i, v in enumerate(kb):
        assert v[i] == ONE and sum(1 for x in v if x) == 1


def test_kernel_of_identity():
    assert kernel_basis(identity(3)) == []


def test_kernel_of_complex_row():
    (v,) = kernel_basis(dense_matrix([[1, I]]))
    assert v == [-I, ONE]


def test_rank_examples():
    assert rank(identity(4)) == 4
    assert rank(ExactMatrix.zeros(3, 2)) == 0
    assert rank(dense_matrix([[1, 2], [2, 4]])) == 1


def test_det_examples():
    assert det(dense_matrix([[1, 2], [3, 4]])) == gq(-2)
    assert det(identity(3)) == ONE
    assert det(dense_matrix([[ZERO, ONE], [ONE, ZERO]])) == gq(-1)


def test_same_span():
    a = [{0: ONE}, {1: ONE}]
    b = [{0: ONE, 1: ONE}, {0: ONE, 1: -ONE}]
    assert same_span(a, b, 2)
    assert not same_span(a, [{0: ONE}], 2)
    # equal ranks, different spans: only the union rank tells them apart
    assert not same_span([{0: ONE}], [{0: ONE, 1: ONE}], 2)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_vectors_annihilated(M):
    for v in kernel_basis(M):
        assert apply(M, sparse_vector(v)) == {}


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity_and_adjoint_rank(M):
    r = rank(M)
    assert r + len(kernel_basis(M)) == M.cols
    assert rank(conj_transpose(M)) == r


@settings(max_examples=30, deadline=None)
@given(matrices())
def test_kernel_deterministic(M):
    assert kernel_basis(M) == kernel_basis(M)


@settings(max_examples=30, deadline=None)
@given(matrices(3).filter(lambda M: M.rows == M.cols), matrices(3))
def test_det_multiplicative(A, B):
    if A.rows != B.rows or B.rows != B.cols:
        return
    assert det(A * B) == det(A) * det(B)


def test_rref_is_canonical():
    M = dense_matrix([[2, 4, 2], [1, 2, 3]])
    R, pivots = rref(M)
    assert pivots == [0, 2]
    assert R.row(0) == [ONE, gq(2), ZERO]
    assert R.row(1) == [ZERO, ZERO, ONE]


def test_sparse_vector_drops_every_zero():
    x = gq(3, -1)
    v = [ZERO, gq(0), gq(Fraction(0, 3)), x - x, x, ONE]
    assert sparse_vector(v) == {4: x, 5: ONE}
    assert sparse_vector([ZERO] * 3) == {}


@settings(max_examples=80, deadline=None)
@given(span_pairs())
def test_span_test_agrees_with_three_pass_reference(pair):
    a, b, cols = pair
    expected = three_pass_same_span(a, b, cols)
    rows_a, rows_b = [sparse_vector(v) for v in a], [sparse_vector(v) for v in b]
    assert same_span(rows_a, rows_b, cols) == expected
    assert same_span(rows_b, rows_a, cols) == expected
    assert same_span(iter(rows_a), (r for r in rows_b), cols) == expected
    assert rank(ExactMatrix.from_rows(rows_a, cols)) == dense_rank_of_rows(a, cols)
    assert rank(ExactMatrix.from_rows(rows_b, cols)) == dense_rank_of_rows(b, cols)


def test_same_span_takes_generators():
    a = [{0: ONE}, {0: ONE, 1: ONE}]
    b = [{0: gq(2)}, {1: I}]
    assert same_span(iter(a), iter(b), 2)
    assert same_span((v for v in a), (v for v in b), 2)
    assert not same_span(iter(a), iter(b[:1]), 2)


def test_rank_of_rows_empty():
    assert rank(ExactMatrix.from_rows([], 5)) == 0
    assert same_span([], [], 5)
    assert same_span([], [{}], 5)


def test_vectors_must_match_the_column_count():
    for bad in ({2: ONE}, {-1: ONE}, {0: ONE, 5: ONE}):
        with pytest.raises(ValueError):
            same_span([bad], [{0: ONE}], 2)
        with pytest.raises(ValueError):
            same_span([{0: ONE}], [bad], 2)


def test_wrong_length_raises_even_when_the_ranks_differ():
    full = [{0: ONE}, {1: ONE}]  # rank 2
    for bad in ({0: ONE, 2: ONE}, {-1: ONE}):
        with pytest.raises(ValueError):
            same_span(full, [bad], 2)
        with pytest.raises(ValueError):
            same_span([bad], full, 2)
        with pytest.raises(ValueError):
            same_span(full, [{0: ONE}, bad], 2)
        with pytest.raises(ValueError):
            same_span([{1: ONE}, bad], full, 2)
        with pytest.raises(ValueError):
            same_span([], [{}, bad], 2)


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_rref_is_reduced_and_independent_of_row_order(M):
    R, pivots = rref(M)
    assert rref(ExactMatrix.from_rows(M.sparse_rows()[::-1], M.cols)) == (R, pivots)
    assert pivots == sorted(set(pivots)) and len(pivots) == rank(M)
    for r, pc in enumerate(pivots):
        assert R.at(r, pc) == ONE
        assert all(not R.at(i, pc) for i in range(R.rows) if i != r)
        assert all(not x for x in R.row(r)[:pc])
    assert all(not any(R.row(i)) for i in range(len(pivots), R.rows))
    assert same_span(M.sparse_rows(), R.sparse_rows()[: len(pivots)], M.cols)


def test_rejects_float_zero():
    with pytest.raises(TypeError):
        ExactMatrix.diagonal([0.0])
    with pytest.raises(TypeError):
        ExactMatrix.from_rows([{}], 1).scale(0.0)
    with pytest.raises(TypeError):
        dense_matrix([[0.0]])


@settings(max_examples=30, deadline=None)
@given(matrices())
def test_dense_construction_stores_only_nonzeros(M):
    rows = dense_rows(M)
    sparse = [{j: x for j, x in enumerate(r) if x} for r in rows]
    assert dense_matrix(rows) == ExactMatrix.from_rows(sparse, M.cols)
    assert M.sparse_rows() == sparse


def test_rejects_ragged():
    with pytest.raises(ValueError):
        dense_matrix([[1, 2], [1]])


def _monic_rows():
    # every pivot of this matrix has leading entry 1, the second one after a
    # reduction step, so the elimination keeps its working rows as pivot rows
    return [
        {0: ONE, 1: gq(2), 3: I},
        {0: ONE, 1: gq(3), 2: gq(5)},
        {2: ONE, 3: gq(3)},
        {0: gq(2), 1: gq(4), 3: 2 * I},
    ]


def test_rank_and_kernel_leave_monic_input_rows_unmodified():
    rows = _monic_rows()
    before = [dict(r) for r in rows]
    M = ExactMatrix.from_rows(rows, 4)
    assert rank(M) == 3
    (v,) = kernel_basis(M)
    assert apply(M, sparse_vector(v)) == {}
    assert rows == before
    assert M.sparse_rows() == before


def test_echelon_pivot_tails_are_fresh_dicts():
    rows = _monic_rows()
    before = [dict(r) for r in rows]
    for pivots in (_echelon(rows), _reduced_echelon(rows)):
        assert len(pivots) == 3
        for tail in pivots.values():
            assert all(tail is not r for r in rows)
            tail[99] = ONE  # writing to a returned tail touches no input row
    assert rows == before
