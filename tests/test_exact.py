"""The error-free transformations, checked exactly in rational arithmetic."""

import math
import random
from fractions import Fraction

import numpy as np

from mblab._exact import split, two_product, two_sum


def _doubles(seed, count, low=-500, high=500):
    """Seeded doubles of either sign with binary exponents in [low, high]."""
    rng = random.Random(seed)
    return [
        math.ldexp(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.0), rng.randint(low, high))
        for _ in range(count)
    ]


def _significant_bits(x):
    """Bits between the leading and the trailing 1 of the double x."""
    numerator = abs(x.as_integer_ratio()[0])
    return (numerator >> ((numerator & -numerator).bit_length() - 1)).bit_length() if x else 0


# alpha + beta near -2, as exponent_sum meets it, and band values over
# the range the pencils reach, times unit-vector entries
NEAR_MINUS_ONE = [-1.0 + t for t in (2.0**-52, 1e-15, 3e-9, 1e-3, 0.25)]
EXPONENT_PAIRS = [(a, b) for a in NEAR_MINUS_ONE for b in NEAR_MINUS_ONE]
BANDS = [float(x) * sign for x in np.logspace(-150, 150, 61) for sign in (1.0, -1.0)]
UNIT_ENTRIES = [math.ldexp(x, -8 * k) for k, x in enumerate(_doubles(8, 8, -1, 0))]

SUM_PAIRS = list(zip(_doubles(1, 400), _doubles(2, 400))) + EXPONENT_PAIRS
# nearby exponents, where the sum cancels
SUM_PAIRS += list(zip(_doubles(3, 200, -3, 3), _doubles(4, 200, -3, 3)))
PRODUCT_PAIRS = (
    list(zip(_doubles(5, 400), _doubles(6, 400)))
    + [(band, w) for band in BANDS for w in UNIT_ENTRIES]
    + EXPONENT_PAIRS
)


def test_two_sum_is_exact():
    for a, b in SUM_PAIRS:
        s, e = two_sum(a, b)
        assert s == a + b
        assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)


def test_two_sum_keeps_what_the_exponent_sum_near_minus_two_rounds_away():
    # near alpha = beta = -1 the closed forms need lo: s alone drops it
    lost = [two_sum(a, b)[1] for a, b in EXPONENT_PAIRS]
    assert any(lost)
    assert all(abs(e) <= 2.0**-53 for e in lost)


def test_split_halves_are_exact_and_short():
    for a in _doubles(7, 300) + BANDS + UNIT_ENTRIES + NEAR_MINUS_ONE + [0.0]:
        hi, lo = split(a)
        assert Fraction(hi) + Fraction(lo) == Fraction(a)
        assert _significant_bits(hi) <= 26
        assert _significant_bits(lo) <= 26


def test_two_product_is_exact_where_no_partial_product_underflows():
    checked = 0
    for a, b in PRODUCT_PAIRS:
        # the smallest partial product, of two low halves, is about
        # |a b| 2^-54 and needs its 53 bits above 2^-1074
        if abs(a * b) < 2.0**-960:
            continue
        p, e = two_product(a, b)
        assert p == a * b
        assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)
        checked += 1
    assert checked >= 0.8 * len(PRODUCT_PAIRS)


def test_two_product_takes_the_halves_of_b():
    for a, b in PRODUCT_PAIRS:
        assert two_product(a, b, split(b)) == two_product(a, b)


def _bits(*values):
    return [np.float64(v).tobytes() for v in values]


def test_float_and_array_calls_give_the_same_bits():
    for a, b in SUM_PAIRS[::5] + PRODUCT_PAIRS[::5]:
        for f, args in ((two_sum, (a, b)), (split, (a,)), (two_product, (a, b))):
            scalar = f(*args)
            array = f(*(np.array([v]) for v in args))
            assert all(isinstance(v, float) for v in scalar)
            assert _bits(*scalar) == _bits(*(v[0] for v in array))
