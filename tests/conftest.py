"""Shared deterministic generators for the test suite."""

import random
from fractions import Fraction

from sunharm import Cocycle, RepContext, gq
from sunharm.symrep import graded_monomials, monomials

from reference import tensor


#: Report keys that hold wall-clock timings rather than report content.
TIMING_KEYS = ("seconds", "total_seconds", "phases")


def scrub(x, drop=TIMING_KEYS):
    """A report document with the ``drop`` keys removed at every level."""
    if isinstance(x, dict):
        return {k: scrub(v, drop) for k, v in x.items() if k not in drop}
    if isinstance(x, list):
        return [scrub(v, drop) for v in x]
    return x


def all_passed(checks) -> bool:
    """Every check passed."""
    return all(c["status"] == "pass" for c in checks)


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def random_scalar(rng: random.Random):
    re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    im = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return gq(re, im)


def random_value(rng: random.Random, ctx: RepContext, grade: int | None = None):
    """A random tensor of ctx's side, of one grade when ``grade`` is given."""
    basis = (
        graded_monomials(ctx.n, ctx.m, grade)
        if grade is not None
        else monomials(ctx.n + 1, ctx.m)
    )
    coeffs = {}
    for alpha in basis:
        if rng.random() < 0.6:
            coeffs[alpha] = random_scalar(rng)
    return tensor(ctx, coeffs)


def random_cocycle(rng: random.Random, ctx: RepContext, grade: int | None = None):
    return Cocycle(ctx, [random_value(rng, ctx, grade).coeffs for _ in range(2 * ctx.n)])


def conjugate_linear_cocycle(rng: random.Random, ctx: RepContext, grade: int | None = None):
    """A cocycle with vanishing complex-linear part: a(Z_j) = 0."""
    minus = [random_value(rng, ctx, grade).coeffs for _ in range(ctx.n)]
    return Cocycle(ctx, [{} for _ in range(ctx.n)] + minus)
