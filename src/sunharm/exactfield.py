"""Exact Gaussian-rational scalars.

Every number in this package is an element of Q(i): a complex number whose
real and imaginary parts are arbitrary-precision rationals.  Nothing is ever
rounded, so a zero test downstream is a certificate, not an approximation.

Each component has one representation: a Python ``int`` when it is
integral, and a ``Fraction`` in lowest terms with positive denominator only
when it is not.  Every value the certifier stores is real, and almost
every one an integer: plain ``int`` arithmetic spares those the
``Fraction`` construction, gcd and operator dispatch.  Q(i) serves complex
input to ``linalg.rank`` and ``kernel_basis`` and the tests' references on
the real tangents.  Equality and hashing do not see the difference
(``Fraction(2) == 2`` and ``hash(Fraction(2)) == hash(2)``), and an ``int``
has ``numerator`` and ``denominator`` like any exact rational.

``gq`` makes a scalar from any accepted input.  The inner loops that build
one scalar per entry from components they computed skip its coercion: the
elimination in ``linalg`` calls ``_raw`` on int components, and the matrix
product in ``linalg`` and ``symrep._action`` call ``_make``.
"""

from __future__ import annotations

from fractions import Fraction

#: Name of the rational type, for reports and benchmarks.
BACKEND_NAME = "fraction"


def _canon(q):
    """A computed rational component in canonical form: int when integral."""
    if type(q) is int or q.denominator != 1:
        return q
    return q.numerator


def _to_rational(x):
    """Coerce x to a component: an int when integral, else a ``Fraction``.
    Floats are refused."""
    if type(x) is int:
        return x
    if isinstance(x, float):
        raise TypeError("floats are not allowed in exact arithmetic")
    if isinstance(x, int):  # bool and other int subclasses
        return int(x)
    return _canon(x if type(x) is Fraction else Fraction(x))


class GaussianRational:
    """A complex number with exact rational real and imaginary parts.

    Values are immutable by convention: no method mutates ``re`` or ``im``.
    A component is an ``int`` when integral and otherwise a ``Fraction`` in
    lowest terms with positive denominator, so equality is structural.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _to_rational(re)
        self.im = _to_rational(im)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _make(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _make(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _make(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        return _make(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __neg__(self):
        return _raw(-self.re, -self.im)

    def __pos__(self):
        return self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        base = self if k >= 0 else self.inverse()
        out = ONE
        for _ in range(abs(k)):
            out = out * base
        return out

    def inverse(self):
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        if n == 1:  # a unit: its inverse is its conjugate
            return _raw(self.re, -self.im)
        return _make(Fraction(self.re, n), Fraction(-self.im, n))

    def conjugate(self):
        return _raw(self.re, -self.im)

    def norm_sq(self):
        """|z|^2, an exact nonnegative rational (an int when integral)."""
        return _canon(self.re * self.re + self.im * self.im)

    # -- predicates, hashing, display -----------------------------------

    def is_real(self):
        return not self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real value equals its real part, so it must hash like it
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return _imag_str(self.im)
        if self.im > 0:
            return f"{self.re}+{_imag_str(self.im)}"
        return f"{self.re}-{_imag_str(-self.im)}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _imag_str(im):
    if im == 1:
        return "i"
    if im == -1:
        return "-i"
    return f"{im}i"


def _raw(re, im):
    """Fast constructor for components already in canonical form."""
    z = GaussianRational.__new__(GaussianRational)
    z.re = re
    z.im = im
    return z


def _make(re, im):
    """Constructor for computed components: an integral one becomes an int.

    The int test is inlined, since sums and products of Gaussian integers,
    the common case, need nothing more.
    """
    z = GaussianRational.__new__(GaussianRational)
    z.re = re if type(re) is int else _canon(re)
    z.im = im if type(im) is int else _canon(im)
    return z


def _coerce(x):
    if type(x) is GaussianRational:
        return x
    if isinstance(x, (int, Fraction)):
        return _raw(_to_rational(x), 0)
    return None


def gq(re=0, im=0) -> GaussianRational:
    """Build a Gaussian rational from ints, Fractions or strings like '2/3'.

    A Gaussian rational with no imaginary part is returned as it is."""
    if type(re) is GaussianRational and type(im) is int and not im:
        return re
    return GaussianRational(re, im)


ZERO = gq(0)
ONE = gq(1)


def sub_mul(a: GaussianRational, f: GaussianRational, b: GaussianRational):
    """a - f*b in one allocation; the elimination hot path lives on this."""
    fre, fim, bre, bim = f.re, f.im, b.re, b.im
    return _make(a.re - (fre * bre - fim * bim), a.im - (fre * bim + fim * bre))
