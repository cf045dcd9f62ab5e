"""Error-free transformations of double-precision arithmetic.

Each returns the rounded result of one operation together with its
rounding error, both as doubles, so that the pair represents the exact
result (Knuth, TAOCP vol. 2, 1969; Dekker, Numer. Math. 18, 1971; Ogita,
Rump & Oishi, SISC 26, 2005).  Every function runs the same operations
on Python floats and on numpy float64 arrays, elementwise, and gives the
same bits on both; the module imports nothing.
"""

# Veltkamp's splitting constant 2^27 + 1: a double splits into two halves
# of at most 26 significant bits each, whose products are exact.
_SPLITTER = 2.0**27 + 1.0


def two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth's
    TwoSum, six operations, no branch on the magnitudes), barring
    overflow."""
    s = a + b
    b_rounded = s - a
    return s, (a - (s - b_rounded)) + (b - b_rounded)


def split(a):
    """(hi, lo) with hi + lo = a exactly and at most 26 significant bits
    in each (Veltkamp), for |a| below about 2^996, where 2^27 a still
    fits."""
    hi = _SPLITTER * a
    hi -= hi - a
    return hi, a - hi


def two_product(a, b, b_halves):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker's
    TwoProduct), barring overflow and underflow of the partial products.
    `b_halves` is split(b), which a caller multiplying one vector by
    several bands takes once."""
    a1, a2 = split(a)
    b1, b2 = b_halves
    p = a * b
    return p, a2 * b2 - (((p - a1 * b1) - a2 * b1) - a1 * b2)
