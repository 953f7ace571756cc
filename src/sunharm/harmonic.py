"""Harmonicity constraints on cocycles and their exact joint kernel.

Conventions.  V = C^{n+1} carries the form J = diag(1, ..., 1, -1) of
signature (n, 1), and su(n,1) complexifies to sl(n+1, C).  The
complexified compact part k_C is the traceless block-diagonal diag(B, c), a
copy of gl(n), and the tangent part p is spanned by the Hermitian
xi(v) = [[0, v], [v*, 0]], v in C^n.

A cocycle is a real-linear map from p into the representation space W (a
symmetric power or its dual).  It extends complex-linearly to p (x) C and
is stored by its values on the 2n complex tangents, the (1,0)/(0,1) split
of p, in tangent order p = 0..2n-1: the matrix units (``_unit``)

    Z_0..Z_{n-1}        = E_{0,n}..E_{n-1,n}    (``values[:n]``)
    Zbar_0..Zbar_{n-1}  = E_{n,0}..E_{n,n-1}    (``values[n:]``)

so xi(v) = xi_plus(v) + xi_minus(v), with xi_plus(v) = sum_j v_j Z_j and
xi_minus(v) = sum_j conj(v_j) Zbar_j (built in ``tests/reference.py``).
A cocycle is complex-linear exactly when its Zbar values vanish and
conjugate-linear exactly when its Z values do.  The real tangents are
xi(e_j) = Z_j + Zbar_j and xi(i e_j) = i (Z_j - Zbar_j).  Each value is a
coefficient map {multi-index: nonzero coefficient}, the package's one form
of a vector of W.

Two constraint operators are imposed:

* the two-form  T a (U, V) = rho(U) a(V) - rho(V) a(U) on the pairs of
  complex tangents.  It vanishes on every complex pair exactly when it
  vanishes on every real pair, that is when the bilinear form
  (u, v) -> rho(xi_u) a(xi_v) is symmetric;
* the trace  T* a = sum_j rho(Z_j) a(Zbar_j) + rho(Zbar_j) a(Z_j), which is
  half the sum of rho(Y) a(Y) over the 2n real tangents xi(e_j), xi(i e_j),
  so both vanish together.

The joint kernel is computed exactly as the nullspace of one assembled
matrix.  Coordinate order: block p (all Z blocks before all Zbar blocks,
index ascending), then monomial index in lex order; constraint rows: one
row {c: 1} per column c forced to zero, in increasing order, then the
two-form rows for pairs (p, q) in lex order, then the trace block, struck
of the forced columns (``_reach_relation_rows``).  A tangent sends a
monomial to one monomial at most, so a two-form row has one or two
entries, and only those left with two are written.  The rows span the
formal ones; ``harmonic_kernel`` eliminates the longer rows alone.  Each
row has all its columns in one weight of the diagonal torus of K: column
(Z_j, e^alpha) has weight alpha - e_j + e_{n+1}, column (Zbar_j, e^alpha)
alpha + e_j - e_{n+1}, with alpha negated on the dual side.  A coordinate
vector is a sparse ``linalg.Row`` (column -> nonzero entry):
``cocycle_to_vector`` and ``values_to_vector`` write coefficient maps as
rows, and ``cocycle_from_vector`` and ``values_from_vector`` read them
back.  Every classification flag is an exact zero test or a rank
comparison on these objects: a one-sided, top-graded kernel lies in the
symmetric component exactly when stacking its rows under
``polarization_rows`` (the columns of the polarization map P below,
written as rows) leaves the rank unchanged.  Those rows come straight from
exponents (``symrep.polarization_family``).

The assembly builds no tangent operator: ``assemble_system`` writes each
tangent's reach, output monomial -> (input column, coefficient), straight
from exponents (``_tangent_reach``), as ``polarization_family`` writes P.
The checks read each tangent operator rho(W_p) from
``_tangent_action(n, p, dual)``, the tangent's monomial action built once,
so they share no code with the assembled matrix.  The ``operator-recheck``
verdict of ``classify`` evaluates T and T* on each kernel element by
applying the actions.  It applies rho(W) only to the nonzero values, since
rho(W) 0 = 0, and compares the two terms of each pair of T instead of
forming the two-form (``_operators_vanish``).

Compact invariance needs no kernel basis.  ``classify`` certifies that the
kernel is the image of the polarization map P, whose columns are the
explicit ``polarization_cocycles``; ``kernel_is_invariant`` then checks
that P intertwines each generator X of k_C = gl(n) in ``k_generators(n)``.
The identity is complex-linear in X, so it holds on k exactly when it
holds on k_C.  It is checked on the rows of P, which ``verify_case`` builds
once per case and hands to both checks: X's monomial action and its bracket
with the tangents move each row, and the result must be the row combination
that rho(X) + chi gives.  With the dimension count, which makes P
injective, the checks make the kernel a K-module isomorphic to S^{m+1}(C^n)
(its dual on the dual side) twisted by a character of K.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, combinations
from typing import Iterable, Sequence

from .exactfield import ONE, GaussianRational, gq
from .linalg import (
    ExactMatrix,
    Row,
    _in_range,
    column_block,
    kernel_basis,
    rank,
    sparse_vector,
)
from .symrep import (
    RepContext,
    _action,
    _extend,
    check_entry,
    monomials,
    polarization_family,
)


def _unit(n: int, i: int, j: int) -> ExactMatrix:
    """The (n+1) x (n+1) matrix unit E_ij: one entry, ONE at (i, j)."""
    rows = [{} for _ in range(n + 1)]
    rows[i] = {j: ONE}
    return ExactMatrix.from_rows(rows, n + 1)


def _basis_tangent(n: int, p: int) -> ExactMatrix:
    """The p-th complex tangent (0 <= p < 2n): Z_p = E_{p,n}, then
    Zbar_{p-n} = E_{n,p-n}."""
    return _unit(n, p, n) if p < n else _unit(n, n, p - n)


@lru_cache(maxsize=None)
def k_generators(n: int) -> tuple[ExactMatrix, ...]:
    """A Lie-algebra generating set of k_C = gl(n), the complexified k.

    The central element diag(I_n, -n), then, for each adjacent pair
    (a, a + 1), the elementary matrices E_{a,a+1} and E_{a+1,a}: 2n - 1
    elements, each diagonal or with a single nonzero entry.  The E's
    generate sl(n) (J. E. Humphreys, *Introduction to Lie Algebras and
    Representation Theory*, section 18), and the central element completes
    it to all of k_C.  Built once per n; the tuple keeps the cached set
    immutable.
    """
    out = [ExactMatrix.diagonal([ONE] * n + [gq(-n)])]
    for a in range(n - 1):
        out += (_unit(n, a, a + 1), _unit(n, a + 1, a))
    return tuple(out)


@lru_cache(maxsize=None)
def _tangent_action(n: int, p: int, dual: bool):
    """The p-th complex tangent's ``symrep._action`` on one side, built
    once: the source of every tangent operator the checks apply."""
    return _action(_basis_tangent(n, p), dual)


class Cocycle:
    """A real-linear map p -> W stored by its values on the 2n complex
    tangents in tangent order: ``values[p]`` is a(Z_p) for p < n and
    a(Zbar_{p-n}) for p >= n.
    Each value is a coefficient map {multi-index: nonzero GaussianRational}
    over the degree-m multi-indices in n + 1 variables, on the monomial
    basis (the dual monomial basis on the dual side); the zero value is {}.
    Equal by its fields; mutable, so unhashable."""

    __slots__ = ("ctx", "values")

    def __init__(self, ctx: RepContext, values: Sequence[dict]):
        self.ctx, self.values = ctx, list(values)
        if len(self.values) != 2 * ctx.n:
            raise ValueError("a cocycle needs 2n values, one per complex tangent")
        index = ctx.basis_index()
        for w in self.values:
            if not isinstance(w, dict):
                raise TypeError("a cocycle value is a coefficient map")
            for alpha, c in w.items():
                if alpha not in index:
                    raise ValueError(f"bad multi-index {alpha!r} for degree {ctx.m}")
                if not (isinstance(c, GaussianRational) and c):
                    raise ValueError(
                        f"bad coefficient {c!r}: not a nonzero GaussianRational"
                    )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ctx, self.values) == (other.ctx, other.values)

    def __repr__(self):
        return f"Cocycle(ctx={self.ctx!r}, values={self.values!r})"


def _operators_vanish(a: Cocycle) -> bool:
    """T a = 0 and T* a = 0, decided by the tangents' cached monomial
    actions (``_tangent_action``), extended linearly (``symrep._extend``)
    to the nonzero values of a only, since rho(W) 0 = 0.

    ``images[p, q]`` is rho(W_p) a(W_q) for a nonzero a(W_q) and p != q.
    T a vanishes exactly when images[p, q] = images[q, p] on every pair, a
    missing image counting as zero; pairs of two zero values are skipped.
    T* a is the sum of the images[p, p + n mod 2n].  No two-form is built.
    """
    n, dual = a.ctx.n, a.ctx.dual
    nb = 2 * n
    images = {}
    for q, w in enumerate(a.values):
        if w:
            for p in range(nb):
                if p != q:
                    images[p, q] = _extend(_tangent_action(n, p, dual), w)
    if any(img != images.get((q, p), {}) for (p, q), img in images.items()):
        return False
    trace = {}
    for p in range(nb):
        for b, c in images.get((p, (p + n) % nb), {}).items():
            s = trace.get(b)
            trace[b] = c if s is None else s + c
    return not any(trace.values())


# -- the constraint-system layer --------------------------------------------


def pairwise_relation_rows(
    ops: Sequence[ExactMatrix], extra: Iterable[Row] = ()
) -> list[Row]:
    """Sparse rows spanning the relations Op_a x_b = Op_b x_a for all pairs
    a < b together with the rows ``extra``, presolved.

    The unknown has one block per op.  Each op is read as its reach, output
    -> (input, coefficient), so an op row may hold one entry at most; the
    rows are those of ``_reach_relation_rows`` on the reaches.  Raises
    ``ValueError`` unless the ops share one shape and each op row holds one
    entry at most.
    """
    if len({(M.rows, M.cols) for M in ops}) > 1:
        raise ValueError("the ops differ in shape")
    reaches = []
    for M in ops:
        rows = M.sparse_rows()
        if any(len(r) > 1 for r in rows):
            raise ValueError("an op row holds more than one entry")
        col = [next(iter(r), None) for r in rows]
        reaches.append((col, [r.get(s) for r, s in zip(rows, col)]))
    return _reach_relation_rows(reaches, ops[0].cols if ops else 0, extra)


def _reach_relation_rows(
    reaches: Sequence[tuple[list, list]], d: int, extra: Iterable[Row]
) -> list[Row]:
    """The presolved relation rows of ops given by their reaches.

    ``reaches[a]`` is op a's (input column, coefficient) per output, each
    ``None`` where the output is unreached; ``d`` is the block size, the
    ops' input dimension.  At an output that both ops of a pair reach, the
    relation is a doubleton: Op_a's entry in block b and minus Op_b's in
    block a.  At an output that one op reaches, it forces that entry's
    column to zero, and no row is written.  A forced column is struck from
    every other row, and a row left with one entry forces its column in
    turn, to a fixed point (the singleton-row reduction of E. D. Andersen
    and K. D. Andersen, "Presolving in linear programming", Math.
    Programming 71, 1995).
    Returns one row {c: 1} per forced column c in increasing order, the
    doubletons left with both columns free in lex pair and output order,
    then the rows of ``extra`` left with two or more columns, in order and
    struck in place.  They span the formal rows.  When nothing is forced,
    no strike pass runs.
    """
    col = [c for c, _ in reaches]
    val = [v for _, v in reaches]
    # minus each coefficient, negated once per op
    neg = [[x and -x for x in v] for v in val]
    # the doubletons, flat (c1, x1, c2, x2, ...) so that no tuple is kept
    # per row, and the forced columns
    flat, todo = [], []
    for a, b in combinations(range(len(reaches)), 2):
        at_a, at_b = a * d, b * d
        for sa, xa, sb, yb in zip(col[a], val[a], col[b], neg[b]):
            if sa is None:
                if sb is not None:
                    todo.append(at_a + sb)
            elif sb is None:
                todo.append(at_b + sa)
            else:
                flat += at_b + sa, xa, at_a + sb, yb

    def doubletons():
        it = iter(flat)
        return zip(it, it, it, it)

    extra = [r for r in extra if r]
    todo += [c for r in extra if len(r) == 1 for c in r]
    if not todo:
        return [{c1: x1, c2: x2} for c1, x1, c2, x2 in doubletons()] + extra
    # column -> the doubletons' other columns, and the longer extra rows
    linked, touching = {}, {}
    for c1, _, c2, _ in doubletons():
        linked.setdefault(c1, []).append(c2)
        linked.setdefault(c2, []).append(c1)
    for r in extra:
        if len(r) > 1:
            for c in r:
                touching.setdefault(c, []).append(r)
    forced = set()
    for c in todo:  # the worklist grows while it is read
        if c not in forced:
            forced.add(c)
            todo += linked.get(c, ())
            for r in touching.get(c, ()):
                del r[c]
                if len(r) == 1:
                    todo += r
    return (  # a doubleton's two columns are forced together
        [{c: ONE} for c in sorted(forced)]
        + [{c1: x1, c2: x2} for c1, x1, c2, x2 in doubletons() if c1 not in forced]
        + [r for r in extra if len(r) > 1]
    )


def system_shape(ctx: RepContext) -> tuple[int, int]:
    """The formal (rows, columns), dim W rows per block, that the report
    prints; ``assemble_system`` stores presolved rows with the same span."""
    nb = 2 * ctx.n
    return (math.comb(nb, 2) + 1) * ctx.dim_w, nb * ctx.dim_w


def _tangent_reach(ctx: RepContext, p: int) -> tuple[list, list]:
    """The reach of rho(W_p) on ``ctx``, written from exponents: for each
    output monomial beta in ``ctx.basis()`` order, the input column and the
    coefficient, both ``None`` where beta is unreached.

    W_p = E_ij is Z_p = E_{p,n} or Zbar_{p-n} = E_{n,p-n}, and
    rho(E_ij) e^alpha = alpha_j e^(alpha - d_j + d_i).  Primal: beta is
    reached when beta_i >= 1, from alpha = beta - d_i + d_j, with
    coefficient beta_j + 1.  Dual, the negated transpose: beta is reached
    when beta_j >= 1, from alpha = beta - d_j + d_i, with coefficient
    -beta_j.  No monomial action and no matrix is built.
    """
    n, m, index = ctx.n, ctx.m, ctx.basis_index()
    i, j = (p, n) if p < n else (n, p - n)
    if ctx.dual:  # alpha = beta - d_j + d_i, coefficient -beta_j
        src, dst, coef = j, i, [gq(-k) for k in range(m + 1)]
    else:  # alpha = beta - d_i + d_j, coefficient beta_j + 1
        src, dst, coef = i, j, [gq(k + 1) for k in range(m + 1)]
    col, val = [], []
    for beta in ctx.basis():
        if beta[src]:
            alpha = list(beta)
            alpha[src] -= 1
            alpha[dst] += 1
            col.append(index[tuple(alpha)])
            val.append(coef[beta[j]])
        else:
            col.append(None)
            val.append(None)
    return col, val


def assemble_system(ctx: RepContext) -> ExactMatrix:
    """Matrix whose nullspace is {a : T a = 0 and T* a = 0}.

    Columns: cocycle coordinates (block p, then monomial).  Rows, from
    ``_reach_relation_rows`` on the 2n tangents' reaches
    (``_tangent_reach``) with the trace block as its extra rows: one row
    {c: 1} per column c forced to zero, in order, then the two-form
    doubletons on free columns for pairs (p, q) in lex order, then the
    trace rows, struck of the forced columns.  No tangent matrix is built.
    """
    n, d = ctx.n, ctx.dim_w
    nb = 2 * n
    reaches = [_tangent_reach(ctx, p) for p in range(nb)]
    # trace block: block Z_j carries rho(Zbar_j) and block Zbar_j rho(Z_j)
    across = reaches[n:] + reaches[:n]
    trace = (
        {q * d + c[r]: x[r] for q, (c, x) in enumerate(across) if c[r] is not None}
        for r in range(d)
    )
    rows = _reach_relation_rows(reaches, d, trace)
    return ExactMatrix.from_rows(rows, nb * d)


def values_to_vector(values: Sequence[dict], index: dict) -> Row:
    """Coordinates of a tuple of coefficient maps: block k holds values[k]
    in the order of ``index`` (monomial -> position)."""
    d = len(index)
    return {
        k * d + index[alpha]: c for k, w in enumerate(values) for alpha, c in w.items()
    }


def values_from_vector(basis: Sequence, vec: Row, blocks: int) -> list[dict]:
    """Inverse of ``values_to_vector``: ``blocks`` coefficient maps, block k
    read from columns k * len(basis) onwards.  Raises ``ValueError`` for a
    column outside 0..blocks * len(basis) - 1."""
    d = len(basis)
    _in_range((vec,), blocks * d)
    values = [{} for _ in range(blocks)]
    for j, c in vec.items():
        k, s = divmod(j, d)
        values[k][basis[s]] = c
    return values


def cocycle_to_vector(a: Cocycle) -> Row:
    return values_to_vector(a.values, a.ctx.basis_index())


def cocycle_from_vector(ctx: RepContext, vec: Row) -> Cocycle:
    return Cocycle(ctx, values_from_vector(ctx.basis(), vec, 2 * ctx.n))


def harmonic_kernel(ctx: RepContext) -> list[Cocycle]:
    """Canonical exact basis of the joint kernel of (T, T*).

    A forced column of ``assemble_system`` is a pivot whose row has no
    other entry, and no other row reaches it, so only the other rows are
    eliminated, on the free columns (``column_block``), and each vector is
    padded back with zeros: the basis is that of the whole system.
    """
    A = assemble_system(ctx)
    rows = A.sparse_rows()
    forced = {c for r in rows if len(r) == 1 for c in r}
    free = [c for c in range(A.cols) if c not in forced]
    block = column_block((r for r in rows if len(r) > 1), free)
    return [
        cocycle_from_vector(ctx, {free[j]: x for j, x in sparse_vector(v).items()})
        for v in kernel_basis(block)
    ]


# -- the symmetric component ----------------------------------------------


def polarization_rows(ctx: RepContext) -> tuple[Row, ...]:
    """The rows of P, one per monomial sigma of S^{m+1}(C^n) in lex order:
    ``polarization_family`` at grade m, written into the Zbar half
    (primal: the partial derivatives of e^sigma, a conjugate-linear
    cocycle) or the Z half (dual: the exponent shifts of eps^sigma, a
    complex-linear cocycle).  ``verify_case`` builds them once per case for
    ``classify`` and ``kernel_is_invariant``."""
    shift = 0 if ctx.dual else ctx.n * ctx.dim_w
    family = polarization_family(ctx.n, ctx.m, ctx.m, ctx.dual, ctx.basis_index())
    return tuple({shift + j: x for j, x in row.items()} for row in family)


def polarization_cocycles(ctx: RepContext) -> list[Cocycle]:
    """Independent explicit solutions spanning the symmetric component: the
    cocycles of ``polarization_rows``.  Each satisfies T = 0 and T* = 0;
    together they give the independent dimension oracle."""
    return [cocycle_from_vector(ctx, row) for row in polarization_rows(ctx)]


# -- classification ---------------------------------------------------------


def classify(
    ctx: RepContext, kernel: Sequence[Cocycle], pol: Sequence[Row]
) -> tuple[dict, list[dict]]:
    """Run the structural verdicts on a computed kernel basis, against the
    rows ``pol`` of P, ``polarization_rows(ctx)``.

    The ``operator-recheck`` check re-evaluates T and T* on each kernel
    element with ``_operators_vanish``, which applies rho only to nonzero
    values.  Flags (each an exact zero test or a rank comparison):
    linearity (conjugate-linear for the primal side, complex-linear for the
    dual), support in the top grade, membership in the symmetric component
    (rank([P; K]) = rank(P) on the polarization rows P and the kernel rows
    K), and the dimension count.
    Returns the flags and the check entries.  Raises ``ValueError`` when a
    kernel element belongs to another case.
    """
    if any(a.ctx != ctx for a in kernel):
        raise ValueError(f"a kernel element is not a cocycle of {ctx!r}")
    m = ctx.m
    flags = {}
    linear_key = "complex_linear" if ctx.dual else "conjugate_linear"

    # Every kernel element must re-verify through the operator path.
    op_ok = all(map(_operators_vanish, kernel))
    checks = [
        check_entry("operator-recheck", op_ok, "T and T* vanish via direct evaluation")
    ]

    # the opposite linearity half must be empty
    half = slice(ctx.n, None) if ctx.dual else slice(ctx.n)
    lin_ok = not any(w for a in kernel for w in a.values[half])
    flags[linear_key] = lin_ok
    checks.append(
        check_entry(
            linear_key.replace("_", "-"),
            lin_ok,
            "vanishing of the opposite-linearity component",
        )
    )

    # grade m is last exponent 0
    top_ok = all(not alpha[-1] for a in kernel for w in a.values for alpha in w)
    flags["top_graded"] = top_ok
    checks.append(check_entry("top-graded", top_ok, f"values supported in grade {m} only"))

    # Once the forms are one-sided and top-graded, their coordinate rows are
    # the forms themselves, and the symmetric component is the span of the
    # polarization rows: each form lies in it exactly when stacking the
    # kernel rows under them keeps the rank.  The same three ranks decide
    # the polarization span below.
    cols = system_shape(ctx)[1]
    ker_vecs = [cocycle_to_vector(a) for a in kernel]
    r_pol = rank(ExactMatrix.from_rows(pol, cols))
    r_ker = rank(ExactMatrix.from_rows(ker_vecs, cols))
    r_both = rank(ExactMatrix.from_rows([*pol, *ker_vecs], cols))
    sym_ok = lin_ok and top_ok and r_both == r_pol
    flags["symmetric_component"] = sym_ok
    checks.append(
        check_entry(
            "symmetric-component",
            sym_ok,
            "each form is one-sided, top-graded and in the span of the"
            " polarization rows: rank([P; K]) = rank(P)",
        )
    )

    dim_ok = len(kernel) == ctx.expected_kernel_dim
    flags["dimension_match"] = dim_ok
    checks.append(
        check_entry(
            "dimension-match",
            dim_ok,
            f"kernel dimension {len(kernel)} vs expected {ctx.expected_kernel_dim}",
        )
    )

    # Independent oracle: the explicit symmetric solutions span the kernel.
    span_ok = r_ker == r_pol == r_both
    checks.append(
        check_entry(
            "polarization-span",
            span_ok,
            "kernel equals the span of the explicit symmetric solutions",
        )
    )
    return flags, checks


def intertwines(ctx: RepContext, rows: Sequence[Row], X: ExactMatrix, chi) -> bool:
    """A_X P = P (rho(X) + chi) on S^{m+1}(C^n), checked on the rows of P.

    ``rows`` is ``polarization_rows(ctx)``, the P(sigma) in lex order of
    sigma.  For X = diag(B, c) in k_C, A_X a = rho(X) a(W) - a([X, W]), and
    A_X - chi must send each P(sigma) to P(rho(X) sigma): one row of P for a
    Chevalley generator E_ab, a multiple of P(sigma) for a diagonal X.  Both
    sides are summed column by column on the components, with no rho(X)
    matrix and no matrix product built.  Raises ``ValueError`` unless X is
    an (n+1) x (n+1) block-diagonal matrix and P has C(n+m, m+1) rows.
    """
    n, d = ctx.n, ctx.dim_w
    square = X.rows == X.cols == n + 1
    if not square or any(X.at(i, n) or X.at(n, i) for i in range(n)):
        raise ValueError("X is not a block-diagonal element diag(B, c) of k_C")
    if len(rows) != ctx.expected_kernel_dim:
        raise ValueError(f"P needs {ctx.expected_kernel_dim} rows, not {len(rows)}")
    # An entry x at column j = q d + s (tangent W_q, monomial s) adds x y at
    # j + offset for each (offset, y) in img[s], the image of the monomial
    # (``symrep._action``), and in into[q]: -R_pq at (p - q) d, where
    # [X, W_p] = sum_q R_pq W_q ([X, Z_j] = sum_i w_ij Z_i and [X, Zbar_i] =
    # -sum_j w_ij Zbar_j, w = B - c), and -chi at 0.
    chi = gq(chi)
    into = [[(0, -chi.re, -chi.im)] if chi else [] for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            w = X.at(i, j) - X.at(n, n) if i == j else X.at(i, j)
            if w:
                into[i].append(((j - i) * d, -w.re, -w.im))
                into[n + j].append(((i - j) * d, w.re, w.im))
    act = _action(X, ctx.dual)
    basis, index = ctx.basis(), ctx.basis_index()
    top = {s + (0,): t for t, s in enumerate(monomials(n, ctx.m + 1))}
    img: dict[int, list] = {}
    for sigma, row in zip(top, rows):
        acc: dict[int, list] = {}  # column -> [re, im] of the left minus the right
        for j, x in row.items():
            q, s = divmod(j, d)
            if s not in img:
                img[s] = [(index[b] - s, y.re, y.im) for b, y in act(basis[s]).items()]
            for off, yre, yim in chain(img[s], into[q]):
                a = acc.setdefault(j + off, [0, 0])
                a[0] += x.re * yre - x.im * yim
                a[1] += x.re * yim + x.im * yre
        for tau, y in act(sigma).items():
            for k, x in rows[top[tau]].items():
                a = acc.setdefault(k, [0, 0])
                a[0] -= y.re * x.re - y.im * x.im
                a[1] -= y.re * x.im + y.im * x.re
        if any(re or im for re, im in acc.values()):
            return False
    return True


def kernel_is_invariant(ctx: RepContext, pol: Sequence[Row]) -> bool:
    """P intertwines k_C: for every X = diag(B, c) in k,

        X.P(s) = P(rho(X) s + chi(X) s),   chi(X) = -c (primal), +c (dual),

    checked by ``intertwines`` on ``pol``, the rows of P
    (``polarization_rows(ctx)``), for the 2n - 1 generators
    ``k_generators(n)`` of k_C = k + ik: both sides are complex-linear in X,
    a subspace invariant under X and Y is invariant under [X, Y], and
    K = U(n) is connected.  No elimination runs.  On K, chi is the
    differential of det (primal) or of det^-1 (dual).  Together with the
    ``polarization-span`` verdict of ``classify``, that the kernel is the
    image of P, this makes the kernel K-invariant.
    """
    n = ctx.n
    return all(
        intertwines(ctx, pol, X, X.at(n, n) if ctx.dual else -X.at(n, n))
        for X in k_generators(n)
    )
