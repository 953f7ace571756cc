"""Symmetric powers of C^{n+1} in the multi-index monomial basis.

Conventions used throughout the package:

* A degree-m element of S^m(C^{n+1}), or of its dual, has one form in the
  package: a coefficient map {multi-index: nonzero coefficient}, a plain
  dict over multi-indices, tuples ``alpha`` of n+1 nonnegative integers
  summing to m, ordered lexicographically.  The monomial ``e^alpha``
  stands for ``e_1^a1 ... e_{n+1}^a_{n+1}`` with the binomial normalization
  ``(u+v)^j = sum_i C(j,i) u^i v^{j-i}``, i.e. a monomial is the *average*
  of the tensor words it symmetrizes.

* The Lie algebra acts by derivation:
  ``rho(X) e^alpha = sum_i alpha_i sum_j X[j][i] e^(alpha - d_i + d_j)``.
  The action has one implementation, the monomial action ``_action``,
  which sends a multi-index to its image {multi-index: nonzero coefficient}
  from the nonzero entries of X.  ``_extend`` extends it linearly to
  coefficient maps, and ``_map_matrix`` writes it as a sparse matrix.

* Dual elements live on the dual monomial basis ``eps^alpha`` normalized by
  ``eps^alpha(e^beta) = delta``; the dual action is
  ``(rho'(X) lam)(w) = -lam(rho(X) w)``, realized on coordinates as the
  negated transpose of the primal action.

* The grade of a monomial is ``degree - (last exponent)``: grade k picks the
  summand S^k(C^n) * e_{n+1}^{m-k}.  Grades are orthogonal for the inner
  product ``<e^alpha, e^alpha> = alpha!``, which makes rho(X) Hermitian for
  X in p and skew-Hermitian for X in k.

* The polarization map sigma -> (d_k sigma)_k over the first n variables is
  written from exponents alone, by ``polarization_family``: d_k sends
  e^sigma to sigma_k e^(sigma - d_k) on the primal side (the partial
  derivative) and eps^sigma to eps^(sigma - d_k) on the dual one (the
  exponent shift, the transpose of multiplication by e_k).  It builds no
  vector of W; the symmetric component P, the relation families and the
  multiplication map of the lemma battery are all rows of it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Sequence

from .exactfield import ONE, GaussianRational, _make, gq
from .linalg import ExactMatrix, Row

MultiIndex = tuple[int, ...]


@lru_cache(maxsize=None)
def monomials(nvars: int, degree: int) -> tuple[MultiIndex, ...]:
    """All exponent tuples of the given length and total degree, lex order."""
    if nvars == 0:
        return ((),) if degree == 0 else ()
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        alpha = [0] * nvars
        for c in combo:
            alpha[c] += 1
        out.append(tuple(alpha))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def monomial_index(nvars: int, degree: int) -> dict[MultiIndex, int]:
    return {alpha: i for i, alpha in enumerate(monomials(nvars, degree))}


@lru_cache(maxsize=None)
def graded_monomials(n: int, m: int, k: int) -> tuple[MultiIndex, ...]:
    """Degree-m monomials of grade k: last exponent pinned to m - k."""
    if k < 0 or k > m:
        raise ValueError(f"grade {k} out of range for degree {m}")
    return tuple(mu + (m - k,) for mu in monomials(n, k))


def grade_of(alpha: MultiIndex, degree: int) -> int:
    return degree - alpha[-1]


# -- the polarization family ------------------------------------------------


def polarization_family(
    n: int, m: int, g: int, dual: bool, index: dict[MultiIndex, int]
) -> list[Row]:
    """The polarizations of the degree-(g+1) monomials in the first n
    variables, written from exponents as rows over n blocks, each block
    indexed by ``index`` (degree-m monomial -> position), which must hold
    the monomials of grade g.

    Row sigma runs over ``monomials(n, g + 1)`` in lex order.  Block k, the
    columns k * len(index) onwards, holds sigma_k (the partial derivative in
    e_k, primal) or 1 (the exponent shift, dual) at the column
    ``index[sigma - d_k + (m - g,)]``, for each k with sigma_k > 0.  The
    dual family is also the multiplication map (w_k)_k -> sum_k e_k w_k from
    n copies of grade g into degree g + 1, one row per product monomial.
    """
    d = len(index)
    tail = (m - g,)
    rows = []
    for sigma in monomials(n, g + 1):
        row = {}
        for k, s in enumerate(sigma):
            if s:
                below = sigma[:k] + (s - 1,) + sigma[k + 1 :] + tail
                row[k * d + index[below]] = ONE if dual else gq(s)
        rows.append(row)
    return rows


# -- the Lie algebra action ------------------------------------------------


def _action(X: ExactMatrix, dual: bool):
    """The monomial action of X, the one implementation of rho.

    Returns the map sending a multi-index alpha to the image of e^alpha
    under rho(X) (of eps^alpha under the dual action when ``dual``) as
    {multi-index: nonzero coefficient}.  It reads only the nonzero entries
    X[j][i].
    """
    entries = [
        (j, i, x.re, x.im) for j, r in enumerate(X.sparse_rows()) for i, x in r.items()
    ]

    def image(a: MultiIndex) -> dict[MultiIndex, GaussianRational]:
        out: dict[MultiIndex, list] = {}  # b -> [re, im], summed per component
        for j, i, re, im in entries:
            if dual:
                # (rho'(X) lam)(v) = -lam(rho(X) v), the negated transpose:
                # eps^alpha takes -X[j][i] b_i at b = alpha - d_j + d_i
                if not a[j]:
                    continue
                b = list(a)
                b[j] -= 1
                b[i] += 1
                b = tuple(b)
                k = -b[i]
            else:
                k = a[i]
                if not k:
                    continue
                if i == j:
                    b = a
                else:
                    b = list(a)
                    b[i] -= 1
                    b[j] += 1
                    b = tuple(b)
            s = out.setdefault(b, [0, 0])
            s[0] += re * k
            s[1] += im * k
        return {b: _make(re, im) for b, (re, im) in out.items() if re or im}

    return image


def _extend(image, coeffs: dict) -> dict[MultiIndex, GaussianRational]:
    """The monomial action ``image`` (``_action``) extended linearly and
    applied to ``coeffs``: {multi-index: nonzero coefficient}."""
    out: dict[MultiIndex, GaussianRational] = {}
    for a, c in coeffs.items():
        for b, x in image(a).items():
            add = c * x
            s = out.get(b)
            out[b] = add if s is None else s + add
    return {b: x for b, x in out.items() if x}


def _map_matrix(image, in_basis, out_basis) -> ExactMatrix:
    """Sparse matrix of the linear map sending each monomial of in_basis to
    ``image(monomial)``, a {multi-index: nonzero coefficient} dict; raises
    if an image leaves span(out_basis)."""
    out_index = {a: i for i, a in enumerate(out_basis)}
    rows = [{} for _ in out_basis]
    for cidx, alpha in enumerate(in_basis):
        for a, c in image(alpha).items():
            if a not in out_index:
                raise ValueError(f"image monomial {a} outside the target basis")
            rows[out_index[a]][cidx] = c
    return ExactMatrix.from_rows(rows, len(in_basis))


class RepContext:
    """A verification case: the symmetric power S^m of C^{n+1} or its dual.
    An immutable value, equal and hashed by (n, m, dual); pickle and copy
    rebuild it through the constructor (``__reduce__``)."""

    __slots__ = ("n", "m", "dual")

    def __init__(self, n: int, m: int, dual: bool = False):
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (n, m)):
            raise TypeError("n and m must be int")
        if not isinstance(dual, bool):
            raise TypeError("dual must be a bool")
        if n < 1:
            raise ValueError("n must be >= 1")
        if m < 1:
            raise ValueError("m must be >= 1")
        for name, value in (("n", n), ("m", m), ("dual", dual)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return RepContext, (self.n, self.m, self.dual)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.m, self.dual) == (other.n, other.m, other.dual)

    def __hash__(self):
        return hash((self.n, self.m, self.dual))

    def __repr__(self):
        return f"RepContext(n={self.n!r}, m={self.m!r}, dual={self.dual!r})"

    @property
    def dim_w(self) -> int:
        return math.comb(self.n + self.m, self.m)

    @property
    def expected_kernel_dim(self) -> int:
        """dim S^{m+1}(C^n), the symmetric-component dimension."""
        return math.comb(self.n + self.m, self.m + 1)

    def basis(self) -> tuple[MultiIndex, ...]:
        return monomials(self.n + 1, self.m)

    def basis_index(self) -> dict[MultiIndex, int]:
        return monomial_index(self.n + 1, self.m)


# -- report entries ----------------------------------------------------------

#: Convention notes recorded in every report entry.
DECISION_NOTES = (
    "two-form convention: T a(Y1,Y2) = rho(Y1)a(Y2) - rho(Y2)a(Y1), the"
    " antisymmetrization whose vanishing is equivalent to symmetry of"
    " (u,v) -> rho(xi_u)a(xi_v)",
    "trace convention: T* sums rho(Y)a(Y) over all 2n real basis directions"
    " xi(e_j) and xi(i e_j)",
)


def check_entry(name: str, verdict: bool | None, details: str, **extra) -> dict:
    """One check entry: status ``pass`` or ``fail``, or ``vacuous`` for a
    verdict of None (empty parameter range).  A grade ``j`` follows the
    name; any other ``extra`` field follows the details."""
    entry = {"name": name}
    if "j" in extra:
        entry["j"] = extra.pop("j")
    entry["status"] = "vacuous" if verdict is None else ("pass" if verdict else "fail")
    entry["details"] = details
    entry.update(extra)
    return entry


def case_entry(
    ctx: RepContext,
    mode: str,
    *,
    checks: Sequence[dict] = (),
    seconds: float = 0.0,
    phases: dict[str, float] | None = None,
    **blocks,
) -> dict:
    """One report entry for a case.

    Every entry has the keys case, mode, checks (a verification's checks or
    a battery's entries), decisions and seconds; the mode's own ``blocks``
    (note, system, kernel, flags, riemann, status) sit between mode and
    checks, in the order given.
    ``phases`` (phase name -> seconds), when given, follows ``seconds``;
    like it, it is timing and not report content.
    """
    entry = {"case": {"n": ctx.n, "m": ctx.m, "dual": ctx.dual}, "mode": mode}
    entry.update(blocks)
    entry["checks"] = list(checks)
    entry["decisions"] = list(DECISION_NOTES)
    entry["seconds"] = round(seconds, 6)
    if phases is not None:
        entry["phases"] = {name: round(s, 6) for name, s in phases.items()}
    return entry
