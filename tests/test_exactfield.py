import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sunharm import ONE, ZERO, gq
from sunharm.exactfield import sub_mul

from reference import I

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)
scalars = st.builds(gq, rationals, rationals)
nonzero_scalars = scalars.filter(bool)
# components that are ints or Fractions, integral or not, in any mix
components = st.one_of(st.integers(-8, 8), rationals)
mixed_scalars = st.builds(gq, components, components)


def test_modulus_identity():
    assert gq("1/2", 1) * gq("1/2", -1) == gq("5/4")


def test_conjugate_of_i():
    assert I.conjugate() == gq(0, -1)


def test_rational_division():
    assert gq("2/3") / gq("1/3") == gq(2)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_floats_rejected():
    with pytest.raises(TypeError):
        gq(0.5)


def test_canonical_form():
    z = gq(Fraction(2, 4), Fraction(-3, -6))
    assert z.re.numerator == 1 and z.re.denominator == 2
    assert z.im.numerator == 1 and z.im.denominator == 2
    assert math.gcd(int(z.re.numerator), int(z.re.denominator)) == 1
    z = gq(Fraction(4, 2))
    assert type(z.re) is int and z.re == 2
    assert type(z.im) is int and z.im == 0


@given(st.one_of(st.integers(), st.fractions()))
def test_hash_matches_equal_rational(q):
    # gq(q) == q, so they must hash alike: a dict keyed by one finds the other
    assert gq(q) == q
    assert hash(gq(q)) == hash(q)
    assert q in {gq(q): None} and gq(q) in {q: None}


def _pair(z):
    return Fraction(z.re), Fraction(z.im)


def _times(p, q):
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def _inv(p):
    n = p[0] * p[0] + p[1] * p[1]
    return p[0] / n, -p[1] / n


def _assert_canonical(q):
    """An exact component: an int exactly when integral, never a float."""
    assert type(q) is not float
    assert (type(q) is int) == (Fraction(q).denominator == 1), repr(q)


@given(mixed_scalars, mixed_scalars, mixed_scalars)
def test_components_are_int_exactly_when_integral(a, b, c):
    pa, pb, pc = _pair(a), _pair(b), _pair(c)
    bc = _times(pb, pc)
    results = [
        (a + b, (pa[0] + pb[0], pa[1] + pb[1])),
        (a - b, (pa[0] - pb[0], pa[1] - pb[1])),
        (3 - a, (3 - pa[0], -pa[1])),
        (a * b, _times(pa, pb)),
        (a.conjugate(), (pa[0], -pa[1])),
        (sub_mul(a, b, c), (pa[0] - bc[0], pa[1] - bc[1])),
    ]
    if b:
        results.append((a / b, _times(pa, _inv(pb))))
        results.append((b.inverse(), _inv(pb)))
    for z, expected in results:
        _assert_canonical(z.re)
        _assert_canonical(z.im)
        assert (z.re, z.im) == expected
    n = a.norm_sq()
    _assert_canonical(n)
    assert n == pa[0] * pa[0] + pa[1] * pa[1]


def test_str():
    assert str(gq("1/2", "-3/4")) == "1/2-3/4i"
    assert str(I) == "i"


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(scalars, scalars)
def test_conjugation_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@given(nonzero_scalars)
def test_multiplicative_inverse(a):
    assert a * a.inverse() == ONE
    assert (ONE / a) * a == ONE


@given(scalars, nonzero_scalars)
def test_division_consistent(a, b):
    assert (a / b) * b == a


@given(scalars)
def test_norm_and_zero_test(a):
    assert bool(a) == (a.norm_sq() != 0)
    assert a - a == ZERO


def test_integer_interop():
    assert 2 * gq("1/2") == ONE
    assert gq(3) - 1 == gq(2)
    assert (1 + I) ** 2 == 2 * I


def test_fraction_backend_subprocess():
    """A fresh interpreter with SUNHARM_RATIONAL set imports cleanly: the
    variable is not read, and Fraction is the one rational type."""
    import os
    import subprocess
    import sys

    import sunharm

    # The child must import the same source tree as this process, whether
    # the package is installed or only on PYTHONPATH, so inherit the
    # environment and put this tree's import root first.
    root = os.path.dirname(os.path.dirname(os.path.abspath(sunharm.__file__)))
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    pythonpath = os.pathsep.join([root] + [p for p in inherited if p])
    # "gmpy2" is the value that once forced the gmpy2 import
    env = dict(os.environ, SUNHARM_RATIONAL="gmpy2", PYTHONPATH=pythonpath)
    code = (
        "from sunharm.exactfield import BACKEND_NAME\n"
        "from sunharm import ExactMatrix, gq, kernel_basis\n"
        "(v,) = kernel_basis(ExactMatrix.from_rows([{0: gq(1), 1: gq(0, 1)}], 2))\n"
        "print(BACKEND_NAME, v == [-gq(0, 1), ExactMatrix.diagonal([1]).at(0, 0)])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["fraction", "True"]


def test_gq_returns_a_gaussian_rational_as_it_is():
    z = gq("2/3", -5)
    assert gq(z) is z
    assert gq(z, 0) is z
    assert gq(I) is I
    with pytest.raises(TypeError):
        gq(I, 1)


@pytest.mark.parametrize(
    "z",
    [
        ONE,
        -ONE,
        I,
        -I,
        gq("3/5", "4/5"),
        gq(Fraction(5, 13), Fraction(-12, 13)),
        gq(Fraction(1), Fraction(0)),
    ],
)
def test_inverse_of_a_unit_is_its_conjugate(z):
    inv = z.inverse()
    assert inv == z.conjugate()
    assert z * inv == ONE
    _assert_canonical(inv.re)
    _assert_canonical(inv.im)
