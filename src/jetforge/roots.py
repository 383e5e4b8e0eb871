"""Univariate root hunting over exact rationals.

Polynomials here are coefficient lists ``[c0, c1, ...]`` of Fractions
(low degree first).  Every remainder is taken in integers, by the one
pseudo-division loop ``_prem`` that the gcd and the Sturm chains share.
Rational roots are isolated in integers too: a primitive integer
polynomial P with lead a > 0 becomes, with z = a*x, a monic Q whose
integer roots are a times P's rational roots.  An integer Sturm chain
counts Q's roots between half-integers, where Q never vanishes, so
bisecting Q's root bound finds them in steps logarithmic in the bound.
"""

from __future__ import annotations

import math
from fractions import Fraction


def normalize(coeffs) -> list[Fraction]:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_gcd(a, b) -> list[Fraction]:
    """Monic gcd over the rationals.

    Euclid runs on primitive integer polynomials: each pseudo-remainder is
    a rational multiple of the remainder, which leaves the gcd's roots alone.
    """
    a, b = [p and _integer_poly(p) for p in (normalize(a), normalize(b))]
    while b:
        r = _prem(a, b)
        a, b = b, r and _integer_poly(r)
    return [Fraction(c, a[-1]) for c in a]


def _integer_poly(coeffs: list[Fraction]) -> list[int]:
    """The primitive integer polynomial with positive lead and the roots of coeffs."""
    den = math.lcm(*[c.denominator for c in coeffs])
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
    return [c // g for c in ints]


def _prem(a: list[int], b: list[int]) -> list[int]:
    """The remainder of a by b over the rationals, times a positive integer.

    Pseudo-division with b's lead made positive: a <- lead*a - top*x^shift*b
    until deg a < deg b, so the remainder keeps its signs everywhere.
    """
    b = b if b[-1] > 0 else [-c for c in b]
    lead, a = b[-1], list(a)
    while len(a) >= len(b):
        top = a.pop()
        shift = len(a) + 1 - len(b)
        a = [lead * c for c in a]
        for j, c in enumerate(b[:-1], shift):
            a[j] -= top * c
        while a and not a[-1]:
            a.pop()
    return a


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """A Sturm chain of p (degree >= 1) in integers.

    Each member is the member of the chain over the rationals times a
    positive number, so it has the same signs everywhere; the remainders
    are made primitive to keep their coefficients short.
    """
    chain = [p, [k * c for k, c in enumerate(p)][1:]]
    while len(chain[-1]) > 1:
        a = _prem(chain[-2], chain[-1])
        if not a:
            break
        g = math.gcd(*a)
        chain.append([-c // g for c in a])
    return chain


def _sign_changes(values) -> int:
    """Sign changes along a sequence of integers, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _horner(p: list[int], x: int) -> int:
    total = 0
    for c in reversed(p):
        total = total * x + c
    return total


def count_real_roots(coeffs) -> int:
    """Number of distinct real roots, by Sturm sign changes."""
    coeffs = normalize(coeffs)
    if len(coeffs) <= 1:
        return 0
    chain = _sturm_chain(_integer_poly(coeffs))
    # signs at -infinity and +infinity: the leads, times (-1)^degree at -inf
    at_minus = _sign_changes(p[-1] if len(p) % 2 else -p[-1] for p in chain)
    return at_minus - _sign_changes(p[-1] for p in chain)


def _least_root(q: list[int], halved: list[list[int]], sign: int, bound: int):
    """The least k in 1..bound with q(sign*k) = 0, or None.

    ``halved`` holds 2^deg * s(h/2) as a polynomial in h for each member s
    of q's Sturm chain, so the sign changes at sign*(k + 1/2) are read at
    the odd integer h = sign*(2k + 1).  Ranges [lo, hi] whose end points
    lo - 1/2 and hi + 1/2 see equal changes hold no root and are dropped;
    the lower half of a range is searched first.
    """

    def changes(k: int) -> int:
        return _sign_changes(_horner(p, sign * (2 * k + 1)) for p in halved)

    ranges = [(1, bound, changes(0), changes(bound))]
    while ranges:
        lo, hi, at_lo, at_hi = ranges.pop()
        if at_lo == at_hi:
            continue
        if lo == hi:
            if not _horner(q, sign * lo):
                return lo
            continue
        mid = (lo + hi) // 2
        at_mid = changes(mid)
        ranges.append((mid + 1, hi, at_mid, at_hi))
        ranges.append((lo, mid, at_lo, at_mid))
    return None


def first_rational_root(coeffs):
    """The first rational root, or None.

    Zero comes first if it is a root at all; the rest ascend in absolute
    value with each positive root before its negative.
    """
    coeffs = normalize(coeffs)
    if len(coeffs) <= 1:
        return None
    if not coeffs[0]:
        return Fraction(0)
    p = _integer_poly(coeffs)
    n, a = len(p) - 1, p[-1]
    if n == 1:
        return Fraction(-p[0], a)
    # q(z) = a^(n-1) * p(z/a) is monic; a > 0 keeps the order by |root|
    q = [c * a ** (n - 1 - i) for i, c in enumerate(p[:-1])] + [1]
    # Fujiwara's bound 2 * max |q_i|^(1/(n-i)) on |z|, rounded up to a power
    # of 2; Cauchy's 1 + max |q_i| would bisect q's largest coefficient
    top = max(-(-abs(c).bit_length() // (n - i)) for i, c in enumerate(q[:-1]))
    bound = 2 << top
    halved = [
        [c << (len(s) - 1 - i) for i, c in enumerate(s)] for s in _sturm_chain(q)
    ]
    z = _least_root(q, halved, 1, bound)
    # a negative root wins only if it is strictly nearer zero
    w = _least_root(q, halved, -1, bound if z is None else z - 1)
    z = z if w is None else -w
    return None if z is None else Fraction(z, a)
