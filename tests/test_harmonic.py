import copy
import json
import math
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from sunharm import (
    Cocycle,
    GaussianRational,
    ONE,
    RepContext,
    ZERO,
    assemble_system,
    gq,
    harmonic_kernel,
    polarization_cocycles,
)
from sunharm import verify
from sunharm.harmonic import (
    _basis_tangent,
    _operators_vanish,
    _tangent_action,
    classify,
    cocycle_from_vector,
    cocycle_to_vector,
    intertwines,
    k_generators,
    kernel_is_invariant,
    pairwise_relation_rows,
    polarization_rows,
    system_shape,
    values_from_vector,
    values_to_vector,
)
from sunharm.checks import (
    _contraction_isometry,
    _dual_symmetry,
    _operator_grading,
    _relation_subspace_entry,
    _symmetric_forcing,
    graded_operators,
    lemma_battery,
    riemann_split_report,
)
from sunharm.linalg import ExactMatrix, kernel_basis, rank, same_span, sparse_vector
from sunharm.symrep import _map_matrix, graded_monomials, polarization_family

from conftest import (
    all_passed,
    conjugate_linear_cocycle,
    make_rng,
    random_cocycle,
    random_scalar,
    random_value,
)
from reference import (
    DualSymTensor,
    I,
    SymTensor,
    apply,
    bracket,
    complex_tangent,
    dense_matrix,
    dense_part_sub_basis,
    derivative,
    e_vec,
    elimination_contraction_hook,
    elimination_relation_subspace,
    evaluate,
    field_echelon,
    field_kernel_basis,
    formal_assemble_system,
    formal_relation_rows,
    from_real_values,
    is_zero_cocycle,
    matrix_intertwines,
    minus_part,
    multiplication_rows,
    p_basis,
    plus_part,
    polarization_blocks,
    presolved_rows,
    project_grade,
    rank_is_invariant,
    real_assemble_system,
    rho_matrix_restricted,
    real_generators_intertwine,
    real_values,
    real_vector,
    rho_apply,
    rho_matrix,
    scale_vec,
    split_halves,
    symmetric_component_membership,
    t_op,
    tangent_samples,
    tensor,
    tensor_cocycle,
    tensor_contraction_isometry,
    tensor_polarization_cocycles,
    tensor_values,
    transform_cocycle,
    tstar_op,
    unitary_corpus,
    xi,
    xi_minus,
    xi_plus,
    zero_cocycle,
)


def single_entry_cocycle(ctx, p, value):
    """The cocycle with the one nonzero value ``value`` on the p-th tangent."""
    values = [{} for _ in range(2 * ctx.n)]
    values[p] = value.coeffs
    return Cocycle(ctx, values)


# -- plus / minus parts -------------------------------------------------------


def test_conjugate_linear_has_no_plus_part():
    ctx = RepContext(2, 2)
    a = conjugate_linear_cocycle(make_rng(1), ctx)
    for j in range(ctx.n):
        assert plus_part(a, e_vec(j, ctx.n)).is_zero()
        assert minus_part(a, e_vec(j, ctx.n)) == tensor(ctx, a.values[ctx.n + j])
        # in real coordinates: B_j = -i A_j
        A, B = real_values(a)
        assert B[j] == A[j].scale(-I)


def test_complex_linear_has_no_minus_part():
    ctx = RepContext(2, 2)
    rng = make_rng(2)
    A = [random_value(rng, ctx) for _ in range(2)]
    a = from_real_values(ctx, A, [w.scale(I) for w in A])
    for j in range(ctx.n):
        assert minus_part(a, e_vec(j, ctx.n)).is_zero()
        assert plus_part(a, e_vec(j, ctx.n)) == A[j]


def test_plus_part_complex_linear_in_direction():
    ctx = RepContext(2, 2)
    a = random_cocycle(make_rng(3), ctx)
    v = [gq(1, 2), gq("1/3", "-1/2")]
    assert plus_part(a, scale_vec(I, v)) == plus_part(a, v).scale(I)
    assert minus_part(a, scale_vec(I, v)) == minus_part(a, v).scale(-I)


def test_parts_sum_to_value():
    ctx = RepContext(2, 3)
    a = random_cocycle(make_rng(4), ctx)
    A, _B = real_values(a)
    for j in range(ctx.n):
        v = e_vec(j, ctx.n)
        assert plus_part(a, v) + minus_part(a, v) == A[j]
    for v in tangent_samples(ctx.n):
        assert plus_part(a, v) + minus_part(a, v) == evaluate(a, v)


def test_evaluate_consistency():
    ctx = RepContext(3, 2)
    a = random_cocycle(make_rng(6), ctx)
    A, B = real_values(a)
    assert from_real_values(ctx, A, B) == a
    for j in range(ctx.n):
        assert evaluate(a, e_vec(j, ctx.n)) == A[j]
        assert evaluate(a, scale_vec(I, e_vec(j, ctx.n))) == B[j]
    u = [gq("1/2", 1), gq(-2), gq(0, "2/3")]
    v = [gq(1), gq(0, -1), gq("1/3", "1/4")]
    total = [x + y for x, y in zip(u, v)]
    assert evaluate(a, total) == evaluate(a, u) + evaluate(a, v)


@pytest.mark.parametrize("dual", [False, True])
def test_transform_cocycle_is_group_action(dual):
    from sunharm.harmonic import cocycle_to_vector as to_vec

    ctx = RepContext(2, 2, dual)
    a = random_cocycle(make_rng(8), ctx)
    corpus = unitary_corpus(2)
    A, B = corpus[3], corpus[5]
    assert to_vec(transform_cocycle(A * B, a)) == to_vec(
        transform_cocycle(A, transform_cocycle(B, a))
    )
    ident = corpus[0]
    assert to_vec(transform_cocycle(ident, a)) == to_vec(a)


# -- the two operators --------------------------------------------------------


def test_t_of_zero_cocycle():
    ctx = RepContext(2, 2)
    assert t_op(zero_cocycle(ctx)).is_zero()
    assert tstar_op(zero_cocycle(ctx)).is_zero()


def test_t_single_entry_example():
    # n=2, m=1: a(Z_1) = e3, everything else zero.
    ctx = RepContext(2, 1)
    a = single_entry_cocycle(ctx, 0, SymTensor.monomial((0, 0, 1)))
    tf = t_op(a)
    assert tf.value(0, 1) == -SymTensor.monomial((0, 1, 0))
    assert tf.value(1, 0) == SymTensor.monomial((0, 1, 0))


def test_tstar_single_entry_example():
    ctx = RepContext(2, 1)
    # a(Z_1) = e1: the trace term rho(Zbar_1) a(Z_1) = e3
    a = single_entry_cocycle(ctx, 0, SymTensor.monomial((1, 0, 0)))
    assert tstar_op(a) == SymTensor.monomial((0, 0, 1))
    # the trace on the real tangents is twice this one
    A, B = real_values(a)
    real = sum(
        (rho_apply(Y, w) for Y, w in zip(p_basis(ctx.n), A + B)), tensor(ctx, {})
    )
    assert real == tstar_op(a).scale(2)


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2)])
def test_coboundary_two_form_is_bracket_action(n, m):
    ctx = RepContext(n, m)
    rng = make_rng(5)
    w0 = random_value(rng, ctx)
    a = tensor_cocycle(ctx, [rho_apply(_basis_tangent(n, p), w0) for p in range(2 * n)])
    tf = t_op(a)
    for p in range(2 * n):
        for q in range(p + 1, 2 * n):
            br = bracket(_basis_tangent(n, p), _basis_tangent(n, q))
            assert tf.value(p, q) == rho_apply(br, w0)


def test_trace_vanishes_on_top_graded_conjugate_linear():
    ctx = RepContext(2, 3)
    for seed in range(3):
        a = conjugate_linear_cocycle(make_rng(10 + seed), ctx, grade=ctx.m)
        assert tstar_op(a).is_zero()


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3)])
def test_two_form_matches_direct_symmetry_residual(n, m):
    """The two-form and the pairwise symmetry residual are computed through
    different paths and must agree."""
    ctx = RepContext(n, m)
    a = random_cocycle(make_rng(21), ctx)
    tf = t_op(a)
    values = tensor_values(a)
    for p in range(2 * n):
        for q in range(p + 1, 2 * n):
            direct = rho_apply(_basis_tangent(n, p), values[q]) - rho_apply(
                _basis_tangent(n, q), values[p]
            )
            assert tf.value(p, q) == direct
    # and for kernel elements the residual vanishes for arbitrary complex pairs
    for k in harmonic_kernel(ctx)[:2]:
        u = [gq(2, 1), gq("1/2", "1/3")][:n] + [ZERO] * (n - 2)
        v = [gq(0, 1), gq(-1, 2)][:n] + [ZERO] * (n - 2)
        res = rho_apply(xi(u), evaluate(k, v)) - rho_apply(xi(v), evaluate(k, u))
        assert res.is_zero()
        assert tstar_op(k).is_zero()


@pytest.mark.parametrize(
    "n,m",
    [(2, 1), (2, 2), (3, 1)],
)
def test_grade_decomposition_of_two_form(n, m):
    """Grade k of T a(Y_p, Y_q) on a pair of real tangents equals the sum of
    its four bidegree pieces, and T a on the complex tangents expands to it
    bilinearly."""
    ctx = RepContext(n, m)
    a = random_cocycle(make_rng(31), ctx)

    def pk(w, k):
        if k < 0 or k > m:
            return tensor(ctx, {})
        return project_grade(w, k)

    tf = t_op(a)
    dirs = [e_vec(j, n) for j in range(n)] + [
        scale_vec(I, e_vec(j, n)) for j in range(n)
    ]
    # xi(e_j) = Z_j + Zbar_j and xi(i e_j) = i Z_j - i Zbar_j
    coords = [{j: gq(1), n + j: gq(1)} for j in range(n)]
    coords += [{j: I, n + j: -I} for j in range(n)]
    for p in range(2 * n):
        for q in range(p + 1, 2 * n):
            u, v = dirs[p], dirs[q]
            real = rho_apply(xi(u), evaluate(a, v)) - rho_apply(xi(v), evaluate(a, u))
            expanded = tensor(ctx, {})
            for r, x in coords[p].items():
                for t, y in coords[q].items():
                    if r != t:
                        expanded = expanded + tf.value(r, t).scale(x * y)
            assert expanded == real
            for k in range(m + 1):
                d1 = rho_apply(xi_plus(u), pk(plus_part(a, v), k - 1)) - rho_apply(
                    xi_plus(v), pk(plus_part(a, u), k - 1)
                )
                d2 = rho_apply(xi_minus(u), pk(minus_part(a, v), k + 1)) - rho_apply(
                    xi_minus(v), pk(minus_part(a, u), k + 1)
                )
                d3 = rho_apply(xi_plus(u), pk(minus_part(a, v), k - 1)) - rho_apply(
                    xi_minus(v), pk(plus_part(a, u), k + 1)
                )
                d4 = rho_apply(xi_minus(u), pk(plus_part(a, v), k + 1)) - rho_apply(
                    xi_plus(v), pk(minus_part(a, u), k - 1)
                )
                assert pk(real, k) == d1 + d2 + d3 + d4


def test_cocycle_is_a_value_compared_by_its_fields():
    """Equality, repr and validation of a cocycle, and its round trips
    through pickle and deepcopy; a cocycle is mutable, so unhashable."""
    ctx = RepContext(2, 2, True)
    a = random_cocycle(make_rng(7), ctx)
    b = Cocycle(ctx=ctx, values=list(a.values))
    assert a == b and a != zero_cocycle(ctx)
    # any sequence of values is kept as a list, so the cocycle stays equal
    t = Cocycle(ctx, tuple(a.values))
    assert t == a and repr(t) == repr(a)
    assert zero_cocycle(ctx) != zero_cocycle(RepContext(2, 2))
    assert a.__eq__(ctx) is NotImplemented
    with pytest.raises(TypeError):
        hash(a)
    assert repr(a) == (
        f"Cocycle(ctx=RepContext(n=2, m=2, dual=True), values={a.values!r})"
    )
    for count in (3, 5):
        with pytest.raises(ValueError, match="2n values"):
            Cocycle(ctx, [{} for _ in range(count)])
    b.values = b.values[2:] + b.values[:2]
    assert b != a
    # protocols 0 and 1 cannot pickle the slotted cocycle and scalars
    for proto in range(2, pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(a, proto)) == a
    c = copy.deepcopy(a)
    assert c == a and c.values is not a.values


MALFORMED_VALUES = [
    (SymTensor.monomial((2, 0, 0)), TypeError, "coefficient map"),
    ([((2, 0, 0), gq(1))], TypeError, "coefficient map"),
    ({(2, 0): gq(1)}, ValueError, "bad multi-index"),
    ({(2, 0, 0, 0): gq(1)}, ValueError, "bad multi-index"),
    ({(1, 0, 0): gq(1)}, ValueError, "bad multi-index"),
    ({(3, -1, 0): gq(1)}, ValueError, "bad multi-index"),
    ({2: gq(1)}, ValueError, "bad multi-index"),
    ({(2, 0, 0): ZERO}, ValueError, "bad coefficient"),
    ({(2, 0, 0): 1}, ValueError, "bad coefficient"),
    ({(2, 0, 0): Fraction(1, 2)}, ValueError, "bad coefficient"),
]


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("value,error,message", MALFORMED_VALUES)
def test_cocycle_rejects_a_malformed_value(dual, value, error, message):
    """A value that is not a dict, a key that is not a degree-m multi-index
    in n + 1 variables, and a coefficient that is zero or not a
    GaussianRational are each rejected, in any slot."""
    ctx = RepContext(2, 2, dual)
    good = {(1, 1, 0): gq(1, 2)}
    Cocycle(ctx, [good, {}, {}, good])
    for slot in range(4):
        values = [{}, good, good, {}]
        values[slot] = value
        with pytest.raises(error, match=message):
            Cocycle(ctx, values)


def test_cocycle_zero_is_empty_maps():
    ctx = RepContext(3, 2, True)
    zero = zero_cocycle(ctx)
    assert zero.values == [{}, {}, {}, {}, {}, {}]
    assert is_zero_cocycle(zero)
    assert len(set(map(id, zero.values))) == 6
    one = Cocycle(ctx, [{}, {}, {}, {}, {(0, 0, 2, 0): gq(1)}, {}])
    assert not is_zero_cocycle(one)


# -- the assembled system and its kernel -------------------------------------


@pytest.mark.parametrize("dual", [False, True])
def test_matrix_path_matches_operator_path(dual):
    """Applying the system in its formal layout to a coordinate vector
    reproduces the two-form blocks and the trace block computed through the
    operators."""
    ctx = RepContext(2, 2, dual)
    n = ctx.n
    a = random_cocycle(make_rng(41), ctx)
    residual = apply(formal_assemble_system(ctx), cocycle_to_vector(a))
    tf = t_op(a)
    blocks = [tf.value(p, q) for p in range(2 * n) for q in range(p + 1, 2 * n)]
    values = [w.coeffs for w in blocks + [tstar_op(a)]]
    assert residual == values_to_vector(values, ctx.basis_index())


def two_form_system(ctx) -> ExactMatrix:
    """The formal system less its trace block: the two-form rows alone."""
    F = formal_assemble_system(ctx)
    return ExactMatrix.from_rows(F.sparse_rows()[: -ctx.dim_w], F.cols)


def with_key_order(rows):
    """Rows as lists of (column, entry) pairs, so that equality also
    compares the order of each row's keys."""
    return [list(r.items()) for r in rows]


def test_system_shape_counts():
    """``system_shape`` is the shape of the formal layout; the assembled
    system stores the formal rows presolved: one row per forced column,
    then the other rows, in order, struck of the forced columns, each row's
    keys in the formal order."""
    ctx = RepContext(2, 1)
    F = formal_assemble_system(ctx)
    assert (F.rows, F.cols) == (21, 12)
    assert assemble_system(ctx).sparse_rows() == presolved_rows(F.sparse_rows())
    ctx = RepContext(3, 2)
    F = formal_assemble_system(ctx)
    d = ctx.dim_w
    assert F.cols == 2 * 3 * d
    assert F.rows == (math.comb(6, 2) + 1) * d
    for n, m, dual in SMALL_CASES + KERNEL_LARGE_CASES + [(6, 4, True), (8, 4, False)]:
        ctx = RepContext(n, m, dual)
        F, M = formal_assemble_system(ctx), assemble_system(ctx)
        assert system_shape(ctx) == (F.rows, F.cols)
        assert M.cols == F.cols
        assert with_key_order(M.sparse_rows()) == with_key_order(
            presolved_rows(F.sparse_rows())
        )
    # the lemma battery's relation systems force nothing, so the builder
    # returns their formal rows as written
    _, lowering, dual_top = graded_operators(3, 3)
    for ops in [*lowering.values(), dual_top]:
        formal = formal_relation_rows(ops)
        assert with_key_order(pairwise_relation_rows(ops)) == with_key_order(formal)
    # the raising ops from grade 1 to grade 2 force columns: presolved
    mid, up = graded_monomials(3, 3, 1), graded_monomials(3, 3, 2)
    ops = [rho_matrix_restricted(xi_plus(e_vec(a, 3)), mid, up) for a in range(3)]
    formal = formal_relation_rows(ops)
    rows = pairwise_relation_rows(ops)
    assert with_key_order(rows) == with_key_order(presolved_rows(formal))
    assert rows != [r for r in formal if r]


def test_presolved_rows_filter():
    """Column 0 is forced by a one-entry row, column 1 only once column 0
    is struck from {0, 1}, and column 3 only once column 1 is struck in
    turn.  The package's worklist, given the rows as the extra rows of no
    ops, and the reference's fixed-point loop keep one row per forced
    column and the struck longer rows, which span the rows given; a
    repeated one-entry row, the empty row and a row whose columns are all
    forced are dropped."""
    one, two = gq(1), gq(2)
    rows = [
        {1: one, 2: one, 4: one},
        {0: two, 1: one},
        {},
        {0: one},
        {0: two},
        {1: two, 3: one},
        {2: one, 3: one, 4: one},
        {0: one, 3: one},
    ]
    expected = [{0: one}, {1: one}, {3: one}, {2: one, 4: one}, {2: one, 4: one}]
    got = pairwise_relation_rows([], [dict(r) for r in rows])
    assert got == presolved_rows(rows) == expected
    assert same_span(expected, rows, 5)


def nonzero_scalar(rng):
    return gq(rng.randint(1, 4), rng.randint(-2, 2))


@pytest.mark.parametrize("seed", range(8))
def test_relation_rows_match_the_presolved_formal_rows(seed):
    """On random ops with at most one entry per row and random extra rows,
    the builder returns, key order included, the reference presolve of the
    formal relation rows followed by the extra rows."""
    rng = make_rng(900 + seed)
    k, d_out, d_in = rng.randint(1, 4), rng.randint(1, 5), rng.randint(1, 4)
    ops = [
        ExactMatrix.from_rows(
            [
                {rng.randrange(d_in): nonzero_scalar(rng)} if rng.random() < 0.9 else {}
                for _ in range(d_out)
            ],
            d_in,
        )
        for _ in range(k)
    ]
    cols = k * d_in
    extra = [
        {c: nonzero_scalar(rng) for c in rng.sample(range(cols), rng.randint(0, min(3, cols)))}
        for _ in range(rng.randint(0, 3))
    ]
    rows = pairwise_relation_rows(ops, [dict(r) for r in extra])
    assert with_key_order(rows) == with_key_order(
        presolved_rows(formal_relation_rows(ops) + extra)
    )


@pytest.mark.parametrize(
    "shapes", [[(1, 2), (2, 2)], [(1, 1), (1, 3)]], ids=["rows", "cols"]
)
def test_relation_rows_reject_ops_of_unequal_shape(shapes):
    """Ops of unequal shape raise: beside a 2 x 2 op, a 1 x 2 op has no
    output 1 to relate, and beside a 1 x 1 op, a 1 x 3 op's column 2 has no
    place in a block one column wide."""
    ops = [ExactMatrix.from_rows([{c - 1: ONE} for _ in range(r)], c) for r, c in shapes]
    with pytest.raises(ValueError, match="shape"):
        pairwise_relation_rows(ops)


def test_relation_rows_reject_a_two_entry_op_row():
    """An op is read as its reach, one entry per row at most: a row with
    two entries raises."""
    ops = [ExactMatrix.from_rows([{0: ONE, 1: ONE}, {}], 2), ExactMatrix.zeros(2, 2)]
    with pytest.raises(ValueError, match="more than one entry"):
        pairwise_relation_rows(ops)
    with pytest.raises(ValueError, match="more than one entry"):
        pairwise_relation_rows(ops[::-1])


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("n", range(1, 6))
def test_tangent_actions_have_one_entry_per_row_and_column(n, dual):
    """The builder's precondition: each tangent's matrix, written from its
    cached action, has at most one entry per row and per column, and equals
    the reference matrix of rho on that tangent built from the complex
    directions xi_plus(e_j), xi_minus(e_j)."""
    for m in range(1, 5):
        basis = RepContext(n, m, dual).basis()
        for p in range(2 * n):
            M = _map_matrix(_tangent_action(n, p, dual), basis, basis)
            assert M == rho_matrix(complex_tangent(n, p), n, m, dual)
            rows = M.sparse_rows()
            assert all(len(r) <= 1 for r in rows)
            cols = [c for r in rows for c in r]
            assert len(cols) == len(set(cols))


# the five cases of the ``kernel-large`` benchmark workload
KERNEL_LARGE_CASES = [(4, 4, False), (4, 4, True), (5, 3, False), (5, 3, True), (6, 3, False)]
SMALL_CASES = [(n, m, dual) for n in (1, 2, 3) for m in (1, 2, 3) for dual in (False, True)]
# the verify cases of the default sweep that SMALL_CASES leaves out
DEFAULT_GRID_CASES = [
    (n, m, kind == "verify-dual")
    for kind, n, m in verify.sweep_specs(None, None)
    if kind != "lemmas" and max(n, m) > 3
]


@pytest.mark.parametrize("n,m,dual", SMALL_CASES + KERNEL_LARGE_CASES + DEFAULT_GRID_CASES)
def test_kernel_equals_the_formal_system_kernel(n, m, dual):
    """The presolve keeps the canonical basis: ``harmonic_kernel`` is,
    value for value and in order, the kernel of the formal system F with
    no presolve, solved by ``kernel_basis`` and over the field, and the
    presolved system A has F's row space: rank(F) = rank(A) = rank([F; A])."""
    ctx = RepContext(n, m, dual)
    F, A = formal_assemble_system(ctx), assemble_system(ctx)
    kernel = harmonic_kernel(ctx)
    assert kernel == [cocycle_from_vector(ctx, sparse_vector(v)) for v in kernel_basis(F)]
    formal = ExactMatrix.from_rows([r for r in F.sparse_rows() if r], F.cols)
    ref = [sparse_vector(v) for v in field_kernel_basis(formal)]
    assert [cocycle_to_vector(a) for a in kernel] == ref
    both = ExactMatrix.from_rows(F.sparse_rows() + A.sparse_rows(), F.cols)
    assert rank(F) == rank(A) == rank(both)


@pytest.mark.parametrize("n,m", [(3, 3), (4, 3)])
def test_battery_relation_matrices_keep_the_formal_rank(n, m):
    """Each relation matrix of the lemma battery, symmetric forcing at every
    grade and dual symmetry, has the rank of its formal rows."""
    _, lowering, dual_top = graded_operators(n, m)
    for ops in [*lowering.values(), dual_top]:
        R = ExactMatrix.from_rows(pairwise_relation_rows(ops), n * ops[0].cols)
        assert rank(R) == len(field_echelon(formal_relation_rows(ops)))


def test_kernel_large_systems_store_3137_rows():
    """The five ``kernel-large`` systems hold 9035 nonempty formal two-form
    and trace rows; presolved, they store one row for each of their 2282
    forced columns and 855 longer rows."""
    systems = [assemble_system(RepContext(*case)) for case in KERNEL_LARGE_CASES]
    rows = [r for M in systems for r in M.sparse_rows()]
    assert len(rows) == 3137
    assert sum(len(r) == 1 for r in rows) == 2282


@pytest.mark.parametrize("n,m,dual", SMALL_CASES + KERNEL_LARGE_CASES)
def test_each_forced_column_has_one_row(n, m, dual):
    """In the whole assembled system, trace block included, each forced
    column has exactly one one-entry row and no longer row touches it."""
    rows = assemble_system(RepContext(n, m, dual)).sparse_rows()
    forced = [c for r in rows if len(r) == 1 for c in r]
    assert len(set(forced)) == len(forced)
    assert not any(c in r for r in rows if len(r) > 1 for c in forced)


@pytest.mark.parametrize("n,dual", [(1, False), (2, True), (3, False)])
def test_constraint_systems_store_no_zero_entries(n, dual):
    """The harmonic system and a lemma-battery relation system store their
    nonzero entries only."""
    M = assemble_system(RepContext(n, 2, dual))
    mid, up = graded_monomials(n, 2, 1), graded_monomials(n, 2, 2)
    ops = [rho_matrix_restricted(xi_plus(e_vec(a, n)), mid, up) for a in range(n)]
    rows = M.sparse_rows() + list(pairwise_relation_rows(ops))
    assert all(x for r in rows for x in r.values())


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 5) for m in range(1, 5)])
def test_kernel_matches_real_basis_reference(n, m, dual):
    """The kernel, converted to real coordinates, spans the kernel of the
    system assembled on the real tangents."""
    ctx = RepContext(n, m, dual)
    kernel = [real_vector(a) for a in harmonic_kernel(ctx)]
    ref = [sparse_vector(v) for v in kernel_basis(real_assemble_system(ctx))]
    assert len(kernel) == len(ref)
    assert same_span(kernel, ref, system_shape(ctx)[1])


def column_weights(ctx):
    """Torus weight of each column: alpha - e_j + e_{n+1} for (Z_j, e^alpha),
    alpha + e_j - e_{n+1} for (Zbar_j, e^alpha), alpha negated when dual."""
    n = ctx.n
    sign = -1 if ctx.dual else 1
    out = []
    for p in range(2 * n):
        j, shift = p % n, (1 if p >= n else -1)
        for alpha in ctx.basis():
            w = [sign * x for x in alpha]
            w[j] += shift
            w[n] -= shift
            out.append(tuple(w))
    return out


def rows_in_one_weight(M, ctx) -> bool:
    weights = column_weights(ctx)
    return all(len({weights[c] for c in row}) <= 1 for row in M.sparse_rows())


@pytest.mark.parametrize(
    "n,m,dual",
    [(1, 2, False), (1, 3, True), (2, 2, False), (2, 2, True), (3, 2, False),
     (3, 3, True), (4, 2, True), (2, 4, False)],
)
def test_constraint_rows_lie_in_one_torus_weight(n, m, dual):
    """Every row of the assembled system has all its columns in one weight
    of the diagonal torus; the system on the real tangents mixes weights."""
    ctx = RepContext(n, m, dual)
    assert rows_in_one_weight(assemble_system(ctx), ctx)
    assert not rows_in_one_weight(real_assemble_system(ctx), ctx)


GRID_VERIFY_CASES = [
    (n, m, kind == "verify-dual")
    for kind, n, m in verify.sweep_specs(None, None)
    if kind != "lemmas"
]


@pytest.mark.parametrize("n,m,dual", GRID_VERIFY_CASES)
def test_kernel_values_are_coefficient_maps(n, m, dual):
    """On the default grid, both sides, every value of ``harmonic_kernel``
    and of ``polarization_cocycles`` is a plain dict with nonzero
    GaussianRational coefficients, and each cocycle comes back unchanged
    from its coordinate vector."""
    ctx = RepContext(n, m, dual)
    for a in harmonic_kernel(ctx) + polarization_cocycles(ctx):
        for w in a.values:
            assert type(w) is dict
            assert all(type(c) is GaussianRational and c for c in w.values())
        assert cocycle_from_vector(ctx, cocycle_to_vector(a)) == a


@pytest.mark.parametrize(
    "n,m,dual", [(1, 3, False), (2, 2, False), (2, 2, True), (3, 1, True)]
)
def test_vector_round_trip(n, m, dual):
    """Coordinates and coefficient maps convert back and forth without loss:
    whole cocycles in the ambient basis, and tuples of graded values in a
    graded sub-basis."""
    ctx = RepContext(n, m, dual)
    rng = make_rng(53)
    for _ in range(3):
        a = random_cocycle(rng, ctx)
        vec = cocycle_to_vector(a)
        assert all(x for x in vec.values())
        assert all(0 <= j < system_shape(ctx)[1] for j in vec)
        assert cocycle_from_vector(ctx, vec) == a
    basis = graded_monomials(n, m, 1)
    index = {alpha: i for i, alpha in enumerate(basis)}
    values = [random_value(rng, ctx, 1).coeffs for _ in range(n)]
    vec = values_to_vector(values, index)
    assert all(0 <= j < n * len(basis) for j in vec)
    assert values_from_vector(basis, vec, n) == values


@pytest.mark.parametrize("dual", [False, True])
def test_vector_rejects_a_column_outside_its_case(dual):
    # (2, 1) has 2n = 4 blocks of dim W = 3: columns 0..11.  A negative
    # column would wrap to the last block, a large one would overflow it.
    ctx = RepContext(2, 1, dual)
    assert cocycle_from_vector(ctx, {11: gq(1)}).values[3] == {ctx.basis()[-1]: gq(1)}
    for j in (-1, 12, 10**6):
        with pytest.raises(ValueError, match="outside 0..11"):
            cocycle_from_vector(ctx, {j: gq(1)})
        with pytest.raises(ValueError, match="outside 0..11"):
            values_from_vector(ctx.basis(), {0: gq(1), j: gq(1)}, 4)


@pytest.mark.parametrize(
    "n,m,dual,expected",
    [
        (2, 1, False, 3),
        (2, 1, True, 3),
        (3, 2, False, 10),
        (3, 2, True, 10),
        (2, 3, False, math.comb(5, 4)),
    ],
)
def test_kernel_dimensions(n, m, dual, expected):
    ctx = RepContext(n, m, dual)
    kernel = harmonic_kernel(ctx)
    assert len(kernel) == expected == ctx.expected_kernel_dim


@pytest.mark.parametrize("dual", [False, True])
def test_kernel_elements_satisfy_operators(dual):
    ctx = RepContext(2, 2, dual)
    for a in harmonic_kernel(ctx):
        assert t_op(a).is_zero()
        assert tstar_op(a).is_zero()


# -- the operator recheck -------------------------------------------------------

DEFAULT_VERIFY_CASES = [
    (n, m, kind == "verify-dual")
    for kind, n, m in verify.sweep_specs(None, None)
    if kind != "lemmas" and n >= 2
]


def operators_vanish_reference(a) -> bool:
    return t_op(a).is_zero() and tstar_op(a).is_zero()


def doctored(a, existing=False):
    """a with 1 added to one coefficient of its first nonzero value: that of
    its first monomial when ``existing``, else that of the grade-0 monomial
    e_{n+1}^m.  Kernel elements are top-graded, so the second leaves the
    kernel."""
    n, m = a.ctx.n, a.ctx.m
    values = tensor_values(a)
    q = next(p for p, w in enumerate(values) if w)
    alpha = next(iter(values[q].coeffs)) if existing else (0,) * n + (m,)
    values[q] = values[q] + tensor(a.ctx, {alpha: 1})
    return tensor_cocycle(a.ctx, values)


@pytest.mark.parametrize("n,m,dual", DEFAULT_VERIFY_CASES)
def test_operators_vanish_agrees_with_operators(n, m, dual):
    """The recheck predicate equals "T a = 0 and T* a = 0" on every kernel
    element of the default grid, on random cocycles and on kernel elements
    with one coefficient perturbed."""
    ctx = RepContext(n, m, dual)
    kernel = harmonic_kernel(ctx)
    rng = make_rng(n * 10 + m + (5 if dual else 0))
    samples = [
        *kernel,
        doctored(kernel[0]),
        doctored(kernel[-1], existing=True),
        random_cocycle(rng, ctx),
        conjugate_linear_cocycle(rng, ctx, grade=m),
    ]
    for a in samples:
        assert _operators_vanish(a) == operators_vanish_reference(a)
    assert all(map(_operators_vanish, kernel))
    assert not _operators_vanish(doctored(kernel[0]))


@pytest.mark.parametrize("m,dual", [(2, False), (3, True)])
def test_operators_vanish_decides_the_trace(m, dual):
    """At n = 1 the solutions of the two-form rows alone include cocycles
    on which only the trace fails, so they test the trace half of the
    predicate."""
    ctx = RepContext(1, m, dual)
    two_form = two_form_system(ctx)
    closed = [
        cocycle_from_vector(ctx, sparse_vector(v)) for v in kernel_basis(two_form)
    ]
    assert all(t_op(a).is_zero() for a in closed)
    assert any(not tstar_op(a).is_zero() for a in closed)
    for a in closed:
        assert _operators_vanish(a) == tstar_op(a).is_zero()


@pytest.mark.parametrize("dual", [False, True])
def test_classify_fails_operator_recheck_on_doctored_kernel(dual):
    ctx = RepContext(3, 2, dual)
    kernel = harmonic_kernel(ctx)
    kernel[1] = doctored(kernel[1])
    _, checks = classify(ctx, kernel, polarization_rows(ctx))
    status = {c["name"]: c["status"] for c in checks}
    assert status["operator-recheck"] == "fail"


@pytest.mark.parametrize("n,m,dual", [(3, 2, False), (3, 2, True), (4, 2, False)])
def test_recheck_applies_rho_to_nonzero_values_only(monkeypatch, n, m, dual):
    import sunharm.harmonic as harmonic

    real = harmonic._extend
    calls = []

    def spy(image, coeffs):
        assert coeffs, "rho applied to a zero value"
        calls.append(coeffs)
        return real(image, coeffs)

    ctx = RepContext(n, m, dual)
    kernel = harmonic_kernel(ctx)
    monkeypatch.setattr(harmonic, "_extend", spy)
    _, checks = classify(ctx, kernel, polarization_rows(ctx))
    assert checks[0]["name"] == "operator-recheck"
    assert checks[0]["status"] == "pass"
    # (2n - 1) images per nonzero value
    nonzero = sum(1 for a in kernel for w in a.values if w)
    assert len(calls) == (2 * n - 1) * nonzero


@pytest.mark.parametrize("n,m,dual", [(2, 2, False), (3, 2, True)])
def test_recheck_builds_each_tangent_action_once(monkeypatch, n, m, dual):
    import sunharm.harmonic as harmonic

    real = harmonic._action
    built = []

    def spy(X, side):
        built.append(side)
        return real(X, side)

    ctx = RepContext(n, m, dual)
    kernel = harmonic_kernel(ctx)
    monkeypatch.setattr(harmonic, "_action", spy)
    harmonic._tangent_action.cache_clear()
    pol = polarization_rows(ctx)
    assert all(e["status"] == "pass" for e in classify(ctx, kernel, pol)[1])
    assert 0 < len(built) <= 2 * n
    assert set(built) == {dual}
    built.clear()
    classify(ctx, kernel, pol)
    assert built == []


@pytest.mark.parametrize(
    "own,other", [((2, 2, False), (2, 3, False)), ((2, 2, True), (2, 2, False))]
)
def test_classify_rejects_a_kernel_of_another_case(own, other):
    # another (n, m), and the other side of the same (n, m)
    ctx = RepContext(*own)
    kernel = harmonic_kernel(ctx)
    foreign = harmonic_kernel(RepContext(*other))
    for family in (foreign, kernel + foreign[:1]):
        with pytest.raises(ValueError, match="not a cocycle of"):
            classify(ctx, family, polarization_rows(ctx))


@pytest.mark.parametrize("n,m,dual", [(2, 2, False), (2, 1, True), (3, 1, False)])
def test_kernel_equals_polarization_span(n, m, dual):
    ctx = RepContext(n, m, dual)
    kernel = [cocycle_to_vector(a) for a in harmonic_kernel(ctx)]
    pol = [cocycle_to_vector(a) for a in polarization_cocycles(ctx)]
    ncols = 2 * n * ctx.dim_w
    assert rank(ExactMatrix.from_rows(pol, ncols)) == len(pol)  # independent family
    assert same_span(kernel, pol, ncols)


@pytest.mark.parametrize("dual", [False, True])
def test_polarization_cocycles_are_solutions(dual):
    ctx = RepContext(3, 2, dual)
    pol = polarization_cocycles(ctx)
    assert len(pol) == ctx.expected_kernel_dim
    for a in pol:
        assert t_op(a).is_zero()
        assert tstar_op(a).is_zero()


@pytest.mark.parametrize("n,m,dual", [(2, 2, False), (2, 1, True)])
def test_kernel_k_invariance(n, m, dual):
    ctx = RepContext(n, m, dual)
    assert kernel_is_invariant(ctx, polarization_rows(ctx))
    # a kernel that P does not span fails compact invariance in verify_case:
    # test_invariance_fails_on_a_partial_kernel


def doubled_block(ctx, rows, p):
    """The rows of P with the values on the p-th complex tangent doubled."""
    d = ctx.dim_w
    return tuple({j: x * 2 if j // d == p else x for j, x in row.items()} for row in rows)


@pytest.mark.parametrize("n,m,dual", [(2, 1, False), (3, 2, True), (4, 2, False)])
def test_polarization_intertwines_generators(n, m, dual):
    ctx = RepContext(n, m, dual)
    rows = polarization_rows(ctx)
    for X in k_generators(n):
        c = X.at(n, n)
        chi = c if dual else -c
        assert intertwines(ctx, rows, X, chi)
        # the flipped character fails wherever it differs: on the central
        # generator diag(I_n, -n), the only one with c != 0
        assert intertwines(ctx, rows, X, -chi) is (not c)
    central = k_generators(n)[0]
    assert central.at(n, n) == -n
    assert not intertwines(ctx, rows, central, n if dual else -n)


@pytest.mark.parametrize(
    "n,m,dual", [(2, 2, False), (4, 3, False), (3, 2, True), (3, 3, True), (2, 1, True)]
)
def test_complex_generators_agree_with_real_generators(n, m, dual):
    # the 2n - 1 generators of k_C give the verdict of the 3n - 2 real
    # generators of k, on P and on P with one nonzero tangent block doubled
    ctx = RepContext(n, m, dual)
    rows = polarization_rows(ctx)
    blocks = polarization_blocks(ctx)
    assert kernel_is_invariant(ctx, rows) is real_generators_intertwine(ctx, blocks) is True
    nonzero = [p for p, block in enumerate(blocks) if not block.is_zero()]
    # the values of P sit on one half: Z blocks on the dual side, Zbar primal
    assert nonzero == list(range(n) if dual else range(n, 2 * n))
    for p in nonzero:
        doubled = doubled_block(ctx, rows, p)
        assert kernel_is_invariant(ctx, doubled) is False
        assert real_generators_intertwine(ctx, polarization_blocks(ctx, doubled)) is False


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 5) for m in range(1, 5)])
def test_row_form_agrees_with_matrix_form(n, m, dual):
    # every generator, with the right character, its negative, 1 and i, on
    # P, on i P (complex entries) and on P with each nonzero tangent block
    # doubled
    ctx = RepContext(n, m, dual)
    rows = polarization_rows(ctx)
    nonzero = range(n) if dual else range(n, 2 * n)
    turned = tuple({j: x * I for j, x in row.items()} for row in rows)
    verdicts = []
    for family in (rows, turned, *(doubled_block(ctx, rows, p) for p in nonzero)):
        blocks = polarization_blocks(ctx, family)
        for X in k_generators(n):
            c = X.at(n, n)
            for chi in (c if dual else -c, -c if dual else c, 1, I):
                verdict = intertwines(ctx, family, X, chi)
                assert verdict is matrix_intertwines(ctx, blocks, X, chi)
                verdicts.append(verdict)
    # both verdicts occur: the right character on P passes, a doubled block fails
    assert verdicts[0] is True and False in verdicts


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_row_form_rejects_elements_outside_k_c(n, dual):
    # a tangent of each half, a generator of the next n, and matrices with
    # n + 1 rows but n or 2(n + 1) columns, zero off the diagonal blocks
    ctx = RepContext(n, 2, dual)
    rows = polarization_rows(ctx)
    narrow = ExactMatrix.from_rows([{0: gq(1)}] + [{}] * n, n)
    wide = ExactMatrix.from_rows([{2 * n + 1: gq(1)}] + [{}] * n, 2 * n + 2)
    outside = (xi_plus(e_vec(0, n)), xi_minus(e_vec(n - 1, n)), k_generators(n + 1)[0])
    for X in (*outside, narrow, wide):
        with pytest.raises(ValueError):
            intertwines(ctx, rows, X, 0)


@pytest.mark.parametrize("dual", [False, True])
def test_row_form_rejects_a_p_of_the_wrong_size(dual):
    # an empty P, P less its last row and P with its first row repeated,
    # against every generator of k_C with the right character
    n = 3
    ctx = RepContext(n, 2, dual)
    rows = polarization_rows(ctx)
    for family in ((), rows[:-1], rows + rows[:1]):
        for X in k_generators(n):
            c = X.at(n, n)
            with pytest.raises(ValueError, match="rows"):
                intertwines(ctx, family, X, c if dual else -c)


def test_invariance_builds_no_rho_matrix_and_no_product(monkeypatch):
    import sunharm.symrep as symrep

    def refuse(*args):
        raise AssertionError("the row check built a matrix")

    monkeypatch.setattr(symrep, "_map_matrix", refuse)
    monkeypatch.setattr(ExactMatrix, "__mul__", refuse)
    for n, m, dual in [(1, 2, False), (2, 2, True), (3, 2, False), (4, 3, True)]:
        ctx = RepContext(n, m, dual)
        assert kernel_is_invariant(ctx, polarization_rows(ctx))


def corpus_is_invariant(ctx, kernel):
    """Group-level reference: every corpus unitary keeps the span's rank."""
    ncols = 2 * ctx.n * ctx.dim_w
    base = [cocycle_to_vector(a) for a in kernel]
    r = rank(ExactMatrix.from_rows(base, ncols))
    for A in unitary_corpus(ctx.n):
        moved = [cocycle_to_vector(transform_cocycle(A, a)) for a in kernel]
        if rank(ExactMatrix.from_rows(base + moved, ncols)) != r:
            return False
    return True


@pytest.mark.parametrize("n,m,dual", [(2, 2, False), (2, 2, True), (3, 2, True)])
def test_lie_algebra_invariance_matches_group_corpus(n, m, dual):
    ctx = RepContext(n, m, dual)
    K = harmonic_kernel(ctx)
    for sub, expected in ((K, True), (K[:1], False), (K[1:], False)):
        assert rank_is_invariant(ctx, sub) is expected
        assert corpus_is_invariant(ctx, sub) is expected


def _statuses(entry):
    return {c["name"]: c["status"] for c in entry["checks"]}


@pytest.mark.parametrize(
    "n,m,dual", [(2, 2, False), (2, 2, True), (3, 2, True), (3, 3, False)]
)
def test_invariance_verdict_matches_elimination_reference(monkeypatch, n, m, dual):
    ctx = RepContext(n, m, dual)
    K = harmonic_kernel(ctx)
    for sub in (K, K[:1], K[1:]):
        monkeypatch.setattr(verify, "harmonic_kernel", lambda ctx, sub=sub: sub)
        status = _statuses(verify.verify_case(n, m, dual))["compact-invariance"]
        assert status == ("pass" if rank_is_invariant(ctx, sub) else "fail")


@pytest.mark.parametrize("dual", [False, True])
def test_invariance_fails_on_a_partial_kernel(monkeypatch, dual):
    K = harmonic_kernel(RepContext(2, 2, dual))
    statuses = _statuses(verify.verify_case(2, 2, dual))
    assert statuses["compact-invariance"] == statuses["k-module-type"] == "pass"
    monkeypatch.setattr(verify, "harmonic_kernel", lambda ctx: K[:1])
    statuses = _statuses(verify.verify_case(2, 2, dual))
    assert statuses["compact-invariance"] == statuses["k-module-type"] == "fail"


def test_kernel_deterministic():
    ctx = RepContext(2, 2)
    k1 = [cocycle_to_vector(a) for a in harmonic_kernel(ctx)]
    k2 = [cocycle_to_vector(a) for a in harmonic_kernel(ctx)]
    assert k1 == k2


# -- membership ---------------------------------------------------------------


def test_membership_polarizations():
    n, j = 2, 3
    s = SymTensor.monomial((2, 2, 0)) + SymTensor.monomial((4, 0, 0), gq("1/2"))
    values = [derivative(s, k) for k in range(n)]
    member, cert = symmetric_component_membership(values)
    assert member and not cert


def test_membership_rejects_hook_witness():
    n, j = 2, 2
    w1 = -SymTensor.monomial((j - 1, 1, 0))
    w2 = SymTensor.monomial((j, 0, 0))
    member, cert = symmetric_component_membership([w1, w2])
    assert not member and cert
    assert cert.is_real() and cert.re > 0


def test_membership_zero_form():
    values = [SymTensor.zero(2, 2), SymTensor.zero(2, 2)]
    member, cert = symmetric_component_membership(values)
    assert member and not cert


def test_membership_grading_mismatch():
    mixed = SymTensor.monomial((1, 0, 1)) + SymTensor.monomial((2, 0, 0))
    with pytest.raises(ValueError):
        symmetric_component_membership([mixed, SymTensor.zero(2, 2)])


# -- classification -----------------------------------------------------------


def test_classify_primal_all_flags():
    ctx = RepContext(2, 2)
    kernel = harmonic_kernel(ctx)
    flags, checks = classify(ctx, kernel, polarization_rows(ctx))
    assert flags == {
        "conjugate_linear": True,
        "top_graded": True,
        "symmetric_component": True,
        "dimension_match": True,
    }
    assert len(kernel) == math.comb(4, 3) == 4
    assert all_passed(checks)


def test_classify_dual_flags():
    ctx = RepContext(2, 1, dual=True)
    flags, checks = classify(ctx, harmonic_kernel(ctx), polarization_rows(ctx))
    assert flags["complex_linear"]
    assert flags["symmetric_component"]
    assert all_passed(checks)


def test_classify_fails_on_riemann_case():
    ctx = RepContext(1, 2)
    flags, checks = classify(ctx, harmonic_kernel(ctx), polarization_rows(ctx))
    assert not flags["conjugate_linear"]
    assert not flags["dimension_match"]
    assert not all_passed(checks)


def hook_cocycle(ctx):
    """The hook witness of the symmetric-forcing check at j = m,
    eps_2 (x) e1^m - eps_1 (x) e1^(m-1) e2, as a one-sided, top-graded
    cocycle: its Zbar values on the primal side, Z values on the dual."""
    n, m = ctx.n, ctx.m
    form = [{} for _ in range(n)]
    form[0] = {(m - 1, 1) + (0,) * (n - 1): gq(-1)}
    form[1] = {(m,) + (0,) * n: gq(1)}
    zero = [{} for _ in range(n)]
    return Cocycle(ctx, form + zero if ctx.dual else zero + form)


def combine(ctx, coeffs, cocycles):
    """sum_k coeffs[k] cocycles[k]."""
    out = tensor_values(zero_cocycle(ctx))
    for c, a in zip(coeffs, cocycles):
        out = [x + y.scale(c) for x, y in zip(out, tensor_values(a))]
    return tensor_cocycle(ctx, out)


@pytest.mark.parametrize("n,m,dual", [(2, 2, False), (3, 2, False), (2, 3, True)])
def test_symmetric_component_rejects_an_appended_hook_form(n, m, dual):
    ctx = RepContext(n, m, dual)
    kernel = harmonic_kernel(ctx)
    pol = polarization_rows(ctx)
    assert classify(ctx, kernel, pol)[0]["symmetric_component"]
    flags, checks = classify(ctx, kernel + [hook_cocycle(ctx)], pol)
    assert flags["complex_linear" if dual else "conjugate_linear"]
    assert flags["top_graded"]
    assert not flags["symmetric_component"]
    assert _statuses({"checks": checks})["symmetric-component"] == "fail"


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("n,m", [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)])
def test_symmetric_component_matches_hook_projection_reference(n, m, dual):
    """The rank verdict against P agrees with the reference hook projection
    of each form, on polarizations, hook witnesses and their mixtures."""
    ctx = RepContext(n, m, dual)
    rng = make_rng(100 * n + 10 * m + dual)
    pol = polarization_cocycles(ctx)
    families = [[], pol, [combine(ctx, [random_scalar(rng) for _ in pol], pol)]]
    if n >= 2:
        hook = hook_cocycle(ctx)
        mixed = combine(ctx, [random_scalar(rng) for _ in pol] + [gq(1, 2)], pol + [hook])
        families += [[hook], pol[:1] + [hook], [mixed]]
    rows = polarization_rows(ctx)
    verdicts = []
    for family in families:
        expected = all(
            symmetric_component_membership(
                tensor_values(a)[:n] if dual else tensor_values(a)[n:]
            )[0]
            for a in family
        )
        assert classify(ctx, family, rows)[0]["symmetric_component"] is expected
        verdicts.append(expected)
    assert verdicts[:3] == [True] * 3 and verdicts[3:] == [False] * (len(verdicts) - 3)


@pytest.mark.parametrize("n,m,dual", [(1, 3, False), (2, 2, True), (3, 2, False)])
def test_polarization_blocks_are_the_tangent_values_of_p(n, m, dual):
    ctx = RepContext(n, m, dual)
    index = ctx.basis_index()
    pol = tensor_polarization_cocycles(ctx)
    blocks = polarization_blocks(ctx)
    assert len(blocks) == 2 * n
    assert polarization_rows(ctx) == tuple(cocycle_to_vector(a) for a in pol)
    assert polarization_cocycles(ctx) == pol
    for p, block in enumerate(blocks):
        assert (block.rows, block.cols) == (ctx.dim_w, len(pol))
        expected = [{} for _ in range(ctx.dim_w)]
        for s, a in enumerate(pol):
            for alpha, x in a.values[p].items():
                expected[index[alpha]][s] = x
        assert block.sparse_rows() == expected


# -- structure batteries ------------------------------------------------------
#
# The checks are private to ``checks``: ``lemma_battery`` builds the operator
# table once and passes each check its operators.  The tests below do the
# same, and pass a doctored table where they need one.


def forcing(n, m, j, table=None):
    """The symmetric-forcing and hook entries at grade j."""
    lowering = (table or graded_operators(n, m))[1]
    return _symmetric_forcing(n, m, j, lowering[j])


def contraction(n, m, j, table=None):
    """The contraction-isometry entry at grade j."""
    raising, lowering, _ = table or graded_operators(n, m)
    return _contraction_isometry(n, m, j, raising[j], lowering[j + 1])


def dual_symmetry(n, m):
    return _dual_symmetry(n, m, graded_operators(n, m)[2])


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2)])
def test_operator_grading_battery(n, m):
    entries = _operator_grading(n, m, *graded_operators(n, m)[:2])
    assert all(e["status"] == "pass" for e in entries)
    ks = [e["j"] for e in entries if e["name"] == "operator-grading"]
    assert ks == list(range(1, m))


def test_operator_grading_flags_dependent_restrictions():
    # make rho(xi+(e_2))|_1 twice rho(xi+(e_1))|_1: the family [M, 2M] is
    # dependent, so rho(xi+(v))|_1 vanishes for v = (2, -1)
    raising, lowering, _ = graded_operators(2, 2)
    first = raising[1][0]
    doubled = {**raising, 1: (first, first.scale(2))}
    entry = _operator_grading(2, 2, doubled, lowering)[0]
    assert (entry["name"], entry["j"], entry["status"]) == ("operator-grading", 1, "fail")
    assert entry["details"] == "restriction vanished for a nonzero direction"


def test_operator_grading_reports_an_escaped_image(monkeypatch):
    import sunharm.checks as checks

    def escaped(n, m):
        raise ValueError("image monomial outside the target basis")

    monkeypatch.setattr(checks, "graded_operators", escaped)
    entries = lemma_battery(3, 4)
    assert [e["j"] for e in entries] == [1, 2, 3]
    for e in entries:
        assert e["status"] == "fail"
        assert e["details"] == "image escaped the adjacent grades"


def test_extreme_linearity_fails_with_the_halves_swapped(monkeypatch):
    import sunharm.checks as checks

    real = checks._tangent_action

    def swapped(n, p, dual):  # Z_a reads as Zbar_a and Zbar_a as Z_a
        return real(n, (p + n) % (2 * n), dual)

    raising, lowering, _ = graded_operators(2, 3)  # built first, with the true images
    monkeypatch.setattr(checks, "_tangent_action", swapped)
    entry = _operator_grading(2, 3, raising, lowering)[-1]
    assert (entry["name"], entry["status"]) == ("extreme-linearity", "fail")


def test_raising_annihilates_top_grade():
    n, m = 2, 3
    from sunharm.symrep import graded_monomials

    for alpha in graded_monomials(n, m, m):
        for v in tangent_samples(n):
            assert rho_apply(xi_plus(v), SymTensor.monomial(alpha)).is_zero()


@pytest.mark.parametrize(
    "n,m,expected",
    [(2, 1, 3), (3, 1, 6), (2, 2, 4)],
)
def test_dual_symmetry_dimensions(n, m, expected):
    entry = dual_symmetry(n, m)
    assert entry["status"] == "pass"
    assert entry["dimension"] == expected == math.comb(n + m, m + 1)


@pytest.mark.parametrize(
    "n,m,j,expected",
    [(2, 2, 1, 3), (2, 2, 2, 4), (3, 2, 1, math.comb(4, 2))],
)
def test_symmetric_forcing_dimensions(n, m, j, expected):
    entries = forcing(n, m, j)
    by_name = {e["name"]: e for e in entries}
    assert by_name["symmetric-forcing"]["status"] == "pass"
    assert by_name["symmetric-forcing"]["dimension"] == expected
    assert by_name["hook-counterexample"]["status"] == "pass"


#: The (n, m) of the default sweep's batteries and the wide batteries of the
#: ``lemmas-wide`` benchmark workload.
WITNESS_CASES = sorted(
    {(n, m) for kind, n, m in verify.sweep_specs(None, None) if kind == "lemmas"}
    | {(4, 5), (5, 5), (6, 4), (3, 8), (2, 12)}
)


@pytest.mark.parametrize("n,m", WITNESS_CASES)
def test_witnesses_agree_with_the_tensor_reference(monkeypatch, n, m):
    """For every j, the hook counterexample and the pinned value read off
    the tangents' monomial actions pass, every image they read equals the
    reference ``rho_apply`` on the monomial tensor, and the reference
    evaluates both witnesses to the values the checks compare with."""
    import sunharm.checks as checks

    real = checks._tangent_action
    seen = []  # (X, dual, multi-index, image) for every image the checks read

    def spy(n, p, dual):
        image, X = real(n, p, dual), _basis_tangent(n, p)

        def recorded(alpha):
            seen.append((X, dual, alpha, image(alpha)))
            return seen[-1][-1]

        return recorded

    table = graded_operators(n, m)  # built first, so the spy sees only the witnesses
    monkeypatch.setattr(checks, "_tangent_action", spy)
    up, down = xi_plus(e_vec(0, n)), xi_minus(e_vec(0, n))
    for j in range(1, m + 1):
        hook = forcing(n, m, j, table)[-1]
        assert (hook["name"], hook["status"]) == ("hook-counterexample", "pass")
        w1 = -SymTensor.monomial((j - 1, 1) + (0,) * (n - 2) + (m - j,))
        w2 = SymTensor.monomial((j,) + (0,) * (n - 1) + (m - j,))
        target = (j - 1, 0) + (0,) * (n - 2) + (m - j + 1,)
        assert rho_apply(xi_minus(e_vec(1, n)), w1) == SymTensor.monomial(target, -1)
        assert rho_apply(down, w2) == SymTensor.monomial(target, j)
        if j < m:
            assert contraction(n, m, j, table)["status"] == "pass"
            pin = SymTensor.monomial((j,) + (0,) * (n - 1) + (m - j,))
            assert rho_apply(up, pin) == SymTensor.monomial(
                (j + 1,) + (0,) * (n - 1) + (m - j - 1,), m - j
            )
    # two hook images per j and one pinned image per j < m
    assert len(seen) == 2 * m + m - 1
    for X, dual, alpha, image in seen:
        cls = DualSymTensor if dual else SymTensor
        assert rho_apply(X, cls.monomial(alpha)).coeffs == image


def test_witnesses_fail_on_doubled_images(monkeypatch):
    """With every monomial image doubled, the hook counterexample and the
    contraction isometry read ``fail``: neither witness passes vacuously."""
    import sunharm.checks as checks

    real = checks._tangent_action

    def doubled(n, p, dual):
        image = real(n, p, dual)
        return lambda alpha: {b: c + c for b, c in image(alpha).items()}

    for n, m in [(2, 3), (3, 4)]:
        table = graded_operators(n, m)  # built first, so it keeps the true images
        with monkeypatch.context() as patch:
            patch.setattr(checks, "_tangent_action", doubled)
            for j in range(1, m + 1):
                hook = forcing(n, m, j, table)[-1]
                assert (hook["name"], hook["status"]) == ("hook-counterexample", "fail")
            for j in range(1, m):
                entry = contraction(n, m, j, table)
                assert entry["status"] == "fail"
                assert entry["details"].endswith("pinned value: False")


@pytest.mark.parametrize("j", [1, 2, 3])
def test_hook_counterexample_sides(j):
    """The two sides of the relation on the hook witness differ by -1 vs j."""
    n, m = 2, 3
    if j > m:
        return
    r = m - j
    w1 = -SymTensor.monomial((j - 1, 1, r))
    w2 = SymTensor.monomial((j, 0, r))
    lhs = rho_apply(xi_minus(e_vec(1, n)), w1)
    rhs = rho_apply(xi_minus(e_vec(0, n)), w2)
    target = (j - 1, 0, r + 1)
    assert lhs == SymTensor.monomial(target, -1)
    assert rhs == SymTensor.monomial(target, j)
    assert lhs != rhs


@pytest.mark.parametrize("n,m,j", [(2, 2, 1), (2, 3, 1), (2, 3, 2), (3, 3, 2)])
def test_contraction_isometry(n, m, j):
    entry = contraction(n, m, j)
    assert entry["status"] == "pass", entry["details"]


@pytest.mark.parametrize("m,j", [(2, 1), (3, 1), (3, 2), (4, 3)])
def test_contraction_pinned_value(m, j):
    n = 2
    beta_val = SymTensor.monomial((j, 0, m - j))
    out = rho_apply(xi_plus(e_vec(0, n)), beta_val)
    assert out == SymTensor.monomial((j + 1, 0, m - j - 1), m - j)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_relation_certificate_matches_elimination_reference(n):
    """Rank and annihilation give the dimension and verdict that solving for
    the relation subspace and comparing spans gives, on both halves."""
    for m in range(1, 6):
        for g in range(1, m + 1):
            for half, dual in ((xi_minus, False), (xi_plus, True)):
                src, dst = graded_monomials(n, m, g), graded_monomials(n, m, g - 1)
                ops = [
                    rho_matrix_restricted(half(e_vec(a, n)), src, dst, dual)
                    for a in range(n)
                ]
                entry = _relation_subspace_entry("relation", n, m, g, ops, dual, g)
                got = (entry["dimension"], entry["status"])
                assert got == elimination_relation_subspace(n, m, g, half, dual), (m, g, dual)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hook_certificate_matches_elimination_reference(n):
    """rank([mult; contraction]) = rank(mult) gives the hook dimension and
    verdict that applying the contraction to a hook kernel basis gives."""
    for m in range(2, 6):
        table = graded_operators(n, m)
        for j in range(1, m):
            entry = contraction(n, m, j, table)
            hook_dim, killed = elimination_contraction_hook(n, m, j)
            assert entry["hook_dim"] == hook_dim, (m, j)
            assert f"annihilated: {killed};" in entry["details"], (m, j)
            assert entry["status"] == ("pass" if killed else "fail"), (m, j)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_multiplication_map_is_the_dual_family(n):
    """The dual polarization family of grade j, which the contraction check
    takes as its multiplication map M, equals M built tensor by tensor."""
    for m in range(2, 6):
        for j in range(1, m):
            index = {a: i for i, a in enumerate(graded_monomials(n, m, j))}
            assert polarization_family(n, m, j, True, index) == multiplication_rows(
                n, m, j
            ), (m, j)


@pytest.mark.parametrize("n,m,j", [(2, 2, 1), (3, 3, 2), (4, 3, 2)])
def test_hook_certificate_fails_on_a_perturbed_multiplication_row(monkeypatch, n, m, j):
    # add 1 at column 0 of the last row of the dual family only: the row
    # space of M moves off the contraction's rows, while S, built from the
    # primal family, and the pinned value are untouched
    import sunharm.checks as checks

    real = checks.polarization_family

    def perturbed(n, m, g, dual, index):
        family = real(n, m, g, dual, index)
        if dual:
            last = dict(family[-1])
            last[0] = last.get(0, ZERO) + 1
            family = [*family[:-1], last]
        return family

    monkeypatch.setattr(checks, "polarization_family", perturbed)
    entry = contraction(n, m, j)
    assert entry["status"] == "fail"
    assert "annihilated: False;" in entry["details"]
    assert entry["details"].endswith(": True; pinned value: True")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_isometry_identity_matches_tensor_reference(n):
    """S C^T L^T = scalar S gives the scalar and verdict that applying the
    contraction and its adjoint to each polarization gives."""
    for m in range(2, 6):
        table = graded_operators(n, m)
        for j in range(1, m):
            entry = contraction(n, m, j, table)
            scalar, ok = tensor_contraction_isometry(n, m, j)
            assert entry["scalar"] == str(scalar), (m, j)
            assert f"adjoint composition scalar {scalar}: {ok};" in entry["details"], (m, j)


def test_lemma_certificates_solve_for_no_kernel():
    # the battery and the n = 1 split decide by rank: checks cannot solve
    import sunharm.checks as checks

    assert not hasattr(checks, "kernel_basis")
    assert not hasattr(checks, "same_span")
    entries = [*forcing(3, 3, 2), dual_symmetry(3, 2), contraction(3, 3, 2)]
    assert all(e["status"] == "pass" for e in entries)
    for ctx in (RepContext(1, 4), RepContext(1, 3, dual=True)):
        assert riemann_split_report(ctx)["split"], ctx


RELATION_CHECKS = {
    "symmetric-forcing": lambda: forcing(3, 3, 2)[0],
    "dual-symmetry": lambda: dual_symmetry(3, 2),
}


def _spy_relation_rows(monkeypatch, checks, change=lambda rows: rows):
    """Route checks.pairwise_relation_rows through ``change``; the list it
    returns holds the rows the check received."""
    real = checks.pairwise_relation_rows
    seen = []

    def spy(ops):
        rows = change(list(real(ops)))
        seen.append(rows)
        return rows

    monkeypatch.setattr(checks, "pairwise_relation_rows", spy)
    return seen


@pytest.mark.parametrize("name", sorted(RELATION_CHECKS))
def test_relation_certificate_fails_on_a_vector_off_the_subspace(monkeypatch, name):
    # move the first polarization by a unit vector on a column some relation
    # row reads: the relation matrix no longer annihilates the family, while
    # the family keeps its rank and the nullity is right
    import sunharm.checks as checks

    seen = _spy_relation_rows(monkeypatch, checks)
    real = checks.polarization_family

    def moved(*args):
        family = real(*args)
        c = min(next(r for r in seen[-1] if r))
        v = dict(family[0])
        v[c] = v.get(c, ZERO) + 1
        if not v[c]:
            del v[c]
        return [v, *family[1:]]

    monkeypatch.setattr(checks, "polarization_family", moved)
    entry = RELATION_CHECKS[name]()
    assert entry["dimension"] == entry["expected"]
    assert entry["status"] == "fail"
    assert entry["details"].endswith("span equality False")


@pytest.mark.parametrize("name", sorted(RELATION_CHECKS))
def test_relation_certificate_fails_on_a_dependent_family(monkeypatch, name):
    # repeat the first polarization in place of the second: same length, all
    # of it in the relation subspace, but of rank one less
    import sunharm.checks as checks

    real = checks.polarization_family
    calls = []

    def repeated(*args):
        family = real(*args)
        calls.append(family)
        return [family[0], dict(family[0]), *family[2:]]

    monkeypatch.setattr(checks, "polarization_family", repeated)
    entry = RELATION_CHECKS[name]()
    assert len(calls) == 1
    assert len(calls[0]) == entry["expected"]
    assert entry["dimension"] == entry["expected"]
    assert entry["status"] == "fail"


@pytest.mark.parametrize("name", sorted(RELATION_CHECKS))
def test_relation_certificate_fails_on_a_dropped_relation_row(monkeypatch, name):
    # drop the first relation row whose loss lowers the rank: the family is
    # still annihilated and independent, but the nullity is one too large
    import sunharm.checks as checks

    def drop_one(rows):
        cols = 1 + max(max(r) for r in rows if r)
        full = rank(ExactMatrix.from_rows(rows, cols))
        for i in range(len(rows)):
            rest = rows[:i] + rows[i + 1 :]
            if rank(ExactMatrix.from_rows(rest, cols)) < full:
                return rest
        raise AssertionError("no row of the relation matrix is essential")

    _spy_relation_rows(monkeypatch, checks, drop_one)
    entry = RELATION_CHECKS[name]()
    assert entry["dimension"] == entry["expected"] + 1
    assert entry["status"] == "fail"


def _double_block(n: int, m: int, which: int) -> tuple:
    """The operator table of (n, m) with block 1 of every raising (which 0)
    or lowering (which 1) entry doubled."""
    table = list(graded_operators(n, m))
    table[which] = {
        k: (ops[0], ops[1].scale(2), *ops[2:]) for k, ops in table[which].items()
    }
    return tuple(table)


def test_hook_certificate_fails_off_the_multiplication_row_space():
    # double the block of xi+(e_2) in the contraction's matrix: its rows leave
    # the row space of the multiplication map, so it no longer kills the hook
    for m, j in [(2, 1), (3, 1), (3, 2)]:
        entry = contraction(2, m, j, _double_block(2, m, 0))
        assert entry["hook_dim"] == elimination_contraction_hook(2, m, j)[0]
        assert entry["status"] == "fail"
        assert "annihilated: False;" in entry["details"]
        assert entry["details"].endswith("pinned value: True")


@pytest.mark.parametrize("n", [2, 3])
def test_isometry_fails_on_a_doubled_lowering_block(n):
    # double rho(xi-(e_2)) from grade j+1: the adjoint composition sends the
    # polarizations to no single multiple of themselves, while the hook part
    # and the pinned value, which do not read the lowering, still hold
    for m, j in [(2, 1), (3, 1), (3, 2)]:
        entry = contraction(n, m, j, _double_block(n, m, 1))
        assert entry["status"] == "fail"
        assert "annihilated: True;" in entry["details"]
        assert ": False; pinned value: True" in entry["details"]


def test_verify_builds_p_once_per_case(monkeypatch):
    # verify_case builds the polarization rows once and hands them to both
    # classify and the invariance check
    import sunharm.harmonic as harmonic

    real = harmonic.polarization_family
    calls = []

    def spy(n, m, g, dual, index):
        calls.append((n, m, g, dual))
        return real(n, m, g, dual, index)

    monkeypatch.setattr(harmonic, "polarization_family", spy)
    entry = verify.verify_case(3, 2)
    assert all_passed(entry["checks"])
    assert calls == [(3, 2, 2, False)]


def test_tangent_actions_are_built_once_per_side(monkeypatch):
    """A primal and a dual verify case and a battery at (3, 3) build each of
    the 2n tangents' monomial actions once per side, 4n in all: every
    tangent operator comes from ``harmonic._tangent_action``.  The spy
    patches ``_action`` wherever the package binds it and counts the builds
    on a tangent; the generators of k_C that ``intertwines`` acts with are
    not tangents."""
    import importlib
    import pkgutil

    import sunharm
    import sunharm.checks as checks
    import sunharm.harmonic as harmonic
    import sunharm.symrep as symrep

    n = 3
    tangents = [_basis_tangent(n, p) for p in range(2 * n)]
    real = symrep._action
    built = []

    def spy(X, dual):
        if X in tangents:
            built.append((tangents.index(X), dual))
        return real(X, dual)

    for info in pkgutil.iter_modules(sunharm.__path__):
        mod = importlib.import_module(f"sunharm.{info.name}")
        if getattr(mod, "_action", None) is real:
            monkeypatch.setattr(mod, "_action", spy)
    harmonic._tangent_action.cache_clear()
    assert all_passed(verify.verify_case(n, 3)["checks"])
    assert all_passed(verify.verify_case(n, 3, True)["checks"])
    assert all(e["status"] == "pass" for e in lemma_battery(n, 3))
    assert sorted(built) == [(p, dual) for p in range(2 * n) for dual in (False, True)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_tangents_and_k_generators_are_matrix_units(n):
    """Each complex tangent stores one entry, ONE at (p, n) for Z_p and at
    (n, p - n) for Zbar_{p-n}, and is the reference's complex direction
    xi_plus(e_p) or xi_minus(e_{p-n}); ``k_generators(n)`` is diag(I_n, -n),
    then E_{a,a+1} and E_{a+1,a} for each adjacent pair, written densely."""
    for p in range(2 * n):
        T = _basis_tangent(n, p)
        at = (p, n) if p < n else (n, p - n)
        stored = [(i, j, x) for i, r in enumerate(T.sparse_rows()) for j, x in r.items()]
        assert stored == [(*at, ONE)], p
        assert T == (xi_plus(e_vec(p, n)) if p < n else xi_minus(e_vec(p - n, n))), p

    def dense(entries):
        return dense_matrix(
            [[entries.get((i, j), 0) for j in range(n + 1)] for i in range(n + 1)]
        )

    central = dense({(i, i): 1 for i in range(n)} | {(n, n): -n})
    units = [dense({ij: 1}) for a in range(n - 1) for ij in ((a, a + 1), (a + 1, a))]
    assert list(k_generators(n)) == [central, *units]


def test_certifier_data_are_real():
    """Z_j, Zbar_j, the generators of k_C and P are real matrices, so every
    entry the certifier stores is real: the assembled system, the rows of P,
    the kernel's values and the generators, on the default grid, both sides.
    Gaussian rationals stay in the scalar type and in complex ``rank`` and
    ``kernel_basis`` input, and serve the tests' references: the real
    tangents and the complex directions xi_plus(v), xi_minus(v)."""
    grid = {(n, m) for kind, n, m in verify.sweep_specs(None, None)}
    for n, m in sorted(grid):
        gens = [r for X in k_generators(n) for r in X.sparse_rows()]
        assert all(not x.im for r in gens for x in r.values()), n
        for dual in (False, True):
            ctx = RepContext(n, m, dual)
            maps = assemble_system(ctx).sparse_rows() + list(polarization_rows(ctx))
            for a in harmonic_kernel(ctx):
                maps += a.values
            assert all(not x.im for r in maps for x in r.values()), (n, m, dual)


def test_battery_builds_each_graded_operator_once(monkeypatch):
    # one table of 2nm restricted operators per (n, m): n(m-1) raising and
    # nm lowering ones, plus the n dual ones of the dual-symmetry check
    import sunharm.checks as checks

    real = checks._map_matrix
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(checks, "_map_matrix", spy)
    entries = lemma_battery(3, 4)
    assert all(e["status"] == "pass" for e in entries)
    assert len(calls) == 2 * 3 * 4


def test_isometry_applies_rho_only_to_the_pinned_witness(monkeypatch):
    # the adjoint composition is one matrix identity: past the operator
    # table, the check reads one tangent action, the pinned value's
    # rho(xi+(e_1))
    import sunharm.checks as checks

    real = checks._tangent_action
    built = []

    def spy(n, p, dual):
        built.append((_basis_tangent(n, p), dual))
        return real(n, p, dual)

    n = 3
    table = graded_operators(n, 4)
    monkeypatch.setattr(checks, "_tangent_action", spy)
    assert contraction(n, 4, 2, table)["status"] == "pass"
    assert built == [(xi_plus(e_vec(0, n)), False)]


def test_lemma_battery_matches_golden():
    # contraction scalars, hook dimensions and relation dimensions, as text
    doc = json.dumps(lemma_battery(3, 4), indent=2) + "\n"
    assert doc == Path(__file__).with_name("golden_lemmas_3_4.json").read_text()


def test_lemma_battery_vacuous_for_m_one():
    entries = lemma_battery(2, 1)
    contraction = [e for e in entries if e["name"] == "contraction-isometry"]
    assert len(contraction) == 1 and contraction[0]["status"] == "vacuous"


def test_lemma_battery_handles_n_one():
    entries = lemma_battery(1, 2)
    assert entries and all(e["status"] in ("pass", "vacuous") for e in entries)
    names = {e["name"] for e in entries if e["status"] == "vacuous"}
    assert "dual-symmetry" in names and "hook-counterexample" in names


# -- the n = 1 split ----------------------------------------------------------


@pytest.mark.parametrize("m", [2, 4])
def test_riemann_split_even_powers(m):
    rep = riemann_split_report(RepContext(1, m))
    assert rep["split"]
    assert rep["complex_linear_dim"] == rep["conjugate_linear_dim"] > 0


def test_riemann_split_fails_for_higher_rank():
    rep = riemann_split_report(RepContext(2, 2))
    assert not rep["split"]
    assert rep["complex_linear_dim"] == 0
    assert rep["conjugate_linear_dim"] == rep["kernel_dim"]


def test_riemann_split_dual_case():
    rep = riemann_split_report(RepContext(1, 2, dual=True))
    assert rep["split"]
    assert rep["complex_linear_dim"] == rep["conjugate_linear_dim"]


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("m", range(1, 9))
def test_part_sub_bases_match_dense_reference(m, dual):
    """The column-block half kernels of the n = 1 split are the sub-bases
    the dense route combines out of the kernel, so they span the same
    spaces, and the nullity of the system is the kernel's dimension."""
    ctx = RepContext(1, m, dual)
    kernel = harmonic_kernel(ctx)
    ncols = system_shape(ctx)[1]
    halves = split_halves(ctx, assemble_system(ctx))
    # the complex-linear half has vanishing Zbar values (plus=False)
    for sub, plus in zip(halves, (False, True)):
        ref = dense_part_sub_basis(ctx, kernel, plus)
        assert sub == ref
        assert same_span(
            [cocycle_to_vector(a) for a in sub], [cocycle_to_vector(a) for a in ref], ncols
        )
    assert riemann_split_report(ctx)["kernel_dim"] == len(kernel)


@pytest.mark.parametrize("n,m,dual", [(2, 2, False), (3, 2, True)])
def test_split_halves_match_dense_reference_for_higher_rank(n, m, dual):
    # one half is trivial and the other is the whole kernel
    ctx = RepContext(n, m, dual)
    kernel = harmonic_kernel(ctx)
    halves = split_halves(ctx, assemble_system(ctx))
    assert sorted(map(len, halves)) == [0, len(kernel)]
    for sub, plus in zip(halves, (False, True)):
        assert sub == dense_part_sub_basis(ctx, kernel, plus)


def _split_verdicts(rep: dict) -> dict:
    """The report's two half dimensions, its grade verdicts and direct sum."""
    status = {c["name"]: c["status"] == "pass" for c in rep["checks"]}
    return {
        "complex": rep["complex_linear_dim"],
        "conjugate": rep["conjugate_linear_dim"],
        "complex_graded": status["complex-part-extreme-grade"],
        "conjugate_graded": status["conjugate-part-extreme-grade"],
        "direct_sum": status["direct-sum"],
    }


def _reference_split_verdicts(ctx: RepContext, A: ExactMatrix) -> dict:
    """The same verdicts read off the solved halves of ``A``."""
    complex_sub, conj_sub = split_halves(ctx, A)

    def supported_in(cos, g):
        return all(w.support_grades() <= {g} for a in cos for w in tensor_values(a))

    return {
        "complex": len(complex_sub),
        "conjugate": len(conj_sub),
        "complex_graded": supported_in(complex_sub, ctx.m if ctx.dual else 0),
        "conjugate_graded": supported_in(conj_sub, 0 if ctx.dual else ctx.m),
        "direct_sum": len(complex_sub) + len(conj_sub) == len(kernel_basis(A)),
    }


SPLIT_GRID = [
    *((1, m, dual) for m in range(1, 13) for dual in (False, True)),
    (2, 2, False),
    (3, 2, True),
]


@pytest.mark.parametrize("n,m,dual", SPLIT_GRID)
def test_split_nullities_match_solved_halves(n, m, dual):
    """Each nullity the report takes is the size of a solved half, and each
    grade verdict is the support of that half's values."""
    ctx = RepContext(n, m, dual)
    rep = riemann_split_report(ctx)
    assert _split_verdicts(rep) == _reference_split_verdicts(ctx, assemble_system(ctx))
    assert rep["split"] == (n == 1)


def _doctored_split(monkeypatch, ctx: RepContext, A: ExactMatrix) -> tuple[dict, dict]:
    import sunharm.checks as checks

    monkeypatch.setattr(checks, "assemble_system", lambda c: A)
    return _split_verdicts(riemann_split_report(ctx)), _reference_split_verdicts(ctx, A)


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("n,m", [(1, 2), (1, 3), (2, 2)])
def test_split_rejects_an_empty_system(monkeypatch, n, m, dual):
    # every cocycle solves no equation: each half fills all its grades
    ctx = RepContext(n, m, dual)
    got, ref = _doctored_split(
        monkeypatch, ctx, ExactMatrix.from_rows([], system_shape(ctx)[1])
    )
    assert got == ref
    assert not got["complex_graded"] and not got["conjugate_graded"]


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("m", [2, 3, 5])
def test_split_rejects_a_system_without_its_trace_block(monkeypatch, m, dual):
    # without T* the kernel holds mixed forms that neither half contains
    ctx = RepContext(1, m, dual)
    got, ref = _doctored_split(monkeypatch, ctx, two_form_system(ctx))
    assert got == ref
    assert not got["direct_sum"]
