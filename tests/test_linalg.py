import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sunharm import ExactMatrix, ONE, ZERO, gq, kernel_basis, rank
from sunharm import linalg
from sunharm.checks import lemma_battery
from sunharm.linalg import _echelon, _reduced_echelon, same_span, sparse_vector
from sunharm.verify import run_sweep

from conftest import make_rng
from reference import (
    I,
    apply,
    conj_transpose,
    dense_matrix,
    dense_rank_of_rows,
    dense_rows,
    det,
    field_echelon,
    field_kernel_basis,
    field_reduced_echelon,
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


def test_entry_index_must_lie_in_the_shape():
    M = dense_matrix([[1, 2], [3, I]])
    assert [M.at(i, j) for i in (0, 1) for j in (0, 1)] == [gq(1), gq(2), gq(3), I]
    assert ExactMatrix.zeros(2, 2).at(1, 1) == ZERO
    for i, j in [(0, 5), (0, 2), (2, 0), (-1, 1), (1, -1)]:
        with pytest.raises(IndexError):
            M.at(i, j)


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


@pytest.mark.parametrize(
    "rows",
    [
        [{5: ONE}],  # a lead right of the last column
        [{0: ONE, 1: ONE}, {-1: ONE}],  # a lead at column -1
        [{0: ONE, 3: ONE}],  # a tail entry right of the last column
        [{0: ONE}, {0: ONE, 1: gq(0)}],  # a stored zero that becomes a lead
    ],
)
def test_elimination_rejects_malformed_rows(rows):
    M = ExactMatrix.from_rows(rows, 2)
    with pytest.raises(ValueError, match="zero lead or a column outside 0..1"):
        rank(M)
    with pytest.raises(ValueError, match="zero lead or a column outside 0..1"):
        kernel_basis(M)


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
    tails = [tail for _, tail in _echelon(rows, 4).values()]
    tails += _reduced_echelon(rows, 4).values()
    assert len(tails) == 6
    for tail in tails:
        assert all(tail is not r for r in rows)
        tail[99] = ONE  # writing to a returned tail touches no input row
    assert rows == before


# -- the elimination over Z[i] against the field oracle ------------------------

# entries of elimination inputs: ints, Fractions and non-unit complex leads,
# zero most of the time so that rows stay sparse
elimination_scalars = st.one_of(
    st.integers(-3, 3).map(gq),
    st.fractions(min_value=-3, max_value=3, max_denominator=5).map(gq),
    st.sampled_from([gq(2, 1), gq(1, 1), gq(3), gq(0, -2)]),
)
elimination_entries = st.one_of(st.just(ZERO), st.just(ZERO), elimination_scalars)


@st.composite
def sparse_families(draw, cols):
    """Sparse rows of length cols, with some rows added that are
    combinations of two others, so that the rank often drops."""
    vectors = st.lists(elimination_entries, min_size=cols, max_size=cols)
    rows = [sparse_vector(v) for v in draw(st.lists(vectors, max_size=6))]
    if rows:
        row, scalar = st.sampled_from(rows), elimination_scalars
        for a, f, b, g in draw(st.lists(st.tuples(row, scalar, row, scalar), max_size=3)):
            combination = [f * a.get(j, ZERO) + g * b.get(j, ZERO) for j in range(cols)]
            rows.append(sparse_vector(combination))
    return rows


sparse_matrices = st.integers(1, 6).flatmap(
    lambda cols: sparse_families(cols).map(lambda rows: ExactMatrix.from_rows(rows, cols))
)


def assert_primitive(pivots):
    """Every pivot is (positive int lead, tail of int components right of
    its column), with gcd 1 over the lead and every component."""
    for c, (lead, tail) in pivots.items():
        assert type(lead) is int and lead > 0
        parts = [y for x in tail.values() for y in (x.re, x.im)]
        assert all(type(y) is int for y in parts)
        assert all(j > c for j in tail)
        assert math.gcd(lead, *parts) == 1


@settings(max_examples=80, deadline=None)
@given(sparse_matrices)
def test_elimination_agrees_with_the_field_oracle(M):
    rows = M.sparse_rows()
    pivots = _echelon(rows, M.cols)
    assert_primitive(pivots)
    assert sorted(pivots) == sorted(field_echelon(rows))
    assert rank(M) == len(pivots)
    assert _reduced_echelon(rows, M.cols) == field_reduced_echelon(rows)
    # canonical components: equal values print alike, int or Fraction
    assert repr(kernel_basis(M)) == repr(field_kernel_basis(M))
    # the combination rows come last, so either verdict occurs
    dense, half = dense_rows(M), M.rows // 2
    for a, b in ((slice(half), slice(half, None)), (slice(None), slice(half, None))):
        expected = three_pass_same_span(dense[a], dense[b], M.cols)
        assert same_span(rows[a], rows[b], M.cols) == expected


# the cases of the lemmas-wide benchmark workload
WIDE_BATTERIES = [(4, 5), (5, 5), (6, 4), (3, 8), (2, 12)]


def test_certifier_eliminations_build_no_rational(monkeypatch):
    calls = []

    def checked(rows, cols):
        # checked on return: _reduced_echelon divides and reduces the tails
        out = _echelon(rows, cols)
        assert_primitive(out)
        calls.append(len(out))
        return out

    monkeypatch.setattr(linalg, "_echelon", checked)
    for n, m in WIDE_BATTERIES:
        lemma_battery(n, m)
    run_sweep(None, None)
    assert len(calls) > 300


def test_pivot_size_stays_within_twice_the_hadamard_bound():
    rng = make_rng(30)
    rows = [
        sparse_vector([gq(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(30)])
        for _ in range(30)
    ]
    pivots = _echelon(rows, 30)
    assert len(pivots) == 30
    assert_primitive(pivots)
    log2_hadamard = sum(math.log2(sum(x.norm_sq() for x in r.values())) for r in rows) / 2
    bits = max(
        abs(y).bit_length()
        for lead, tail in pivots.values()
        for y in [lead, *(z for x in tail.values() for z in (x.re, x.im))]
    )
    assert bits <= 2 * log2_hadamard + 2


def test_echelon_reads_no_row_after_the_rank_is_full():
    def rows():
        yield {0: ONE, 1: gq(2)}
        yield {0: gq(3), 1: gq(6)}  # in the span: the rank stays 1
        yield {1: I, 2: ONE}
        yield {2: gq(5)}  # completes the rank
        raise AssertionError("read a row after every column became a pivot")

    assert sorted(_echelon(rows(), 3)) == [0, 1, 2]
    assert sorted(_reduced_echelon(rows(), 3)) == [0, 1, 2]
