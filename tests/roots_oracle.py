"""The root search and root count that jetforge.roots replaced, kept as a test oracle.

``first_rational_root`` tries every p/q from the divisors of the constant
and the lead coefficient, in ``rational_root_candidates`` order, by
Fraction Horner; ``count_real_roots`` counts sign changes of a Fraction
Sturm chain at plus and minus a root bound.  The integer isolation in
``jetforge.roots`` must return the same root and the same count.
"""

from __future__ import annotations

from fractions import Fraction

from jetforge.roots import normalize, poly_rem


def eval_poly(coeffs, x: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


def poly_derivative(coeffs) -> list[Fraction]:
    return normalize([c * k for k, c in enumerate(coeffs)][1:])


def sturm_chain(coeffs) -> list[list[Fraction]]:
    chain = [normalize(coeffs)]
    d = poly_derivative(coeffs)
    if d:
        chain.append(d)
        while True:
            r = poly_rem(chain[-2], chain[-1])
            if not r:
                break
            chain.append([-c for c in r])
    return chain


def _sign_changes(chain, x: Fraction) -> int:
    signs = []
    for p in chain:
        v = eval_poly(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    changes = 0
    for a, b in zip(signs, signs[1:]):
        if a != b:
            changes += 1
    return changes


def root_bound(coeffs) -> Fraction:
    """B with every real root strictly inside (-B, B)."""
    coeffs = normalize(coeffs)
    lead = abs(coeffs[-1])
    return 1 + max((abs(c) / lead for c in coeffs[:-1]), default=Fraction(0))


def count_real_roots(coeffs) -> int:
    """Number of distinct real roots, by Sturm sign changes."""
    coeffs = normalize(coeffs)
    if len(coeffs) <= 1:
        return 0
    bound = root_bound(coeffs)
    while eval_poly(coeffs, bound) == 0 or eval_poly(coeffs, -bound) == 0:
        bound += 1
    chain = sturm_chain(coeffs)
    return _sign_changes(chain, -bound) - _sign_changes(chain, bound)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def rational_root_candidates(coeffs) -> list[Fraction]:
    """Candidate rational roots p/q, in deterministic search order.

    Zero comes first if it is a root at all; the rest ascend in absolute
    value with each positive candidate before its negative.
    """
    coeffs = normalize(coeffs)
    if len(coeffs) <= 1:
        return []
    low = 0
    while coeffs[low] == 0:
        low += 1
    candidates = []
    if low > 0:
        candidates.append(Fraction(0))
    reduced = coeffs[low:]
    scale = 1
    for c in reduced:
        scale *= c.denominator
    ints = [int(c * scale) for c in reduced]
    seen = set()
    pairs = []
    for p in _divisors(ints[0]):
        for q in _divisors(ints[-1]):
            cand = Fraction(p, q)
            if cand not in seen:
                seen.add(cand)
                pairs.append(cand)
    pairs.sort()
    for cand in pairs:
        candidates.append(cand)
        candidates.append(-cand)
    return candidates


def first_rational_root(coeffs):
    """First rational root in candidate order, or None."""
    coeffs = normalize(coeffs)
    if len(coeffs) <= 1:
        return None
    for cand in rational_root_candidates(coeffs):
        if eval_poly(coeffs, cand) == 0:
            return cand
    return None
