from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

import roots_oracle
from jetforge import roots
from jetforge.roots import count_real_roots, first_rational_root, poly_gcd
from roots_oracle import rational_root_candidates, sturm_chain


def F(*values):
    return [Fraction(v) for v in values]


def test_sturm_chain_quadratic():
    chain = sturm_chain(F(-4, 0, 1))  # y^2 - 4
    assert chain[0] == F(-4, 0, 1)
    assert chain[1] == F(0, 2)


def test_count_real_roots():
    assert count_real_roots(F(-4, 0, 1)) == 2  # y^2 - 4
    assert count_real_roots(F(1, 0, 1)) == 0  # y^2 + 1
    assert count_real_roots(F(0, 1)) == 1  # y
    assert count_real_roots(F(0, 0, 1)) == 1  # y^2: one distinct root
    assert count_real_roots(F(5)) == 0
    assert count_real_roots(F(-2, 0, 0, 1)) == 1  # y^3 - 2 (irrational)


def test_candidate_order_positive_first():
    cands = rational_root_candidates(F(-4, 0, 1))
    assert cands[:4] == [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)]


def test_first_rational_root():
    assert first_rational_root(F(-4, 0, 1)) == 2
    assert first_rational_root(F(1, 0, 1)) is None
    assert first_rational_root(F(-2, 0, 0, 1)) is None
    # 2y^2 - y: roots 0 and 1/2; zero is tested first
    assert first_rational_root(F(0, -1, 2)) == 0
    # 3y - 2
    assert first_rational_root(F(-2, 3)) == Fraction(2, 3)
    # 4y^2 - 1: roots +-1/2, found only through z = 4y
    assert first_rational_root(F(-1, 0, 4)) == Fraction(1, 2)
    # (y + 1)(2y - 3): the nearer root is negative
    assert first_rational_root(F(-3, -1, 2)) == -1


def test_fractional_coefficients_cleared():
    # y^2/4 - 1: roots +-2
    assert first_rational_root([Fraction(-1), Fraction(0), Fraction(1, 4)]) == 2


def test_poly_gcd():
    # gcd of (y^2 - 1) and (y - 1) is y - 1 (monic)
    assert poly_gcd(F(-1, 0, 1), F(-1, 1)) == F(-1, 1)
    # coprime
    assert poly_gcd(F(1, 1), F(2, 1)) == F(1)
    # gcd with zero
    assert poly_gcd([], F(0, 2)) == F(0, 1)


def _times(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _planted(roots, factor, scale):
    """scale * factor(y) * prod (q*y - p) over the roots p/q."""
    poly = F(*factor)
    for r in roots:
        poly = _times(poly, F(-r.numerator, r.denominator))
    return [c * scale for c in poly]


def _rationals(height):
    return st.builds(
        Fraction, st.integers(-height, height), st.integers(1, 6)
    )


# real factors with no rational root: none, y^2 + k (no real root),
# y^2 - 2 and y^2 - 3 (irrational roots)
FACTORS = [(1,), (1, 0, 1), (5, 0, 1), (-2, 0, 1), (-3, 0, 1)]


@st.composite
def equations(draw):
    """Equations of degree 1-5 whose divisor search stays fast."""
    if draw(st.booleans()):
        degree = draw(st.integers(1, 5))
        coeffs = draw(st.lists(_rationals(30), min_size=degree, max_size=degree))
        lead = draw(_rationals(30).filter(bool))
        return coeffs + [lead]
    factor = draw(st.sampled_from(FACTORS))
    roots = draw(st.lists(_rationals(12), max_size=5 - len(factor) + 1))
    if roots and draw(st.booleans()):
        roots.append(draw(st.sampled_from(roots)))  # a repeated root
    if roots and draw(st.booleans()):
        roots[0] = -roots[-1]  # a tie in absolute value
    big = draw(st.integers(-10**4, 10**4).filter(bool))
    if roots and draw(st.booleans()):
        roots[-1] = Fraction(big, draw(st.integers(1, 6)))  # large height
    roots = roots[: 5 - len(factor) + 1]
    if len(roots) + len(factor) == 1:
        roots = [Fraction(big)]
    scale = Fraction(draw(st.sampled_from([1, -1, 2, -3])), draw(st.integers(1, 3)))
    return _planted(roots, factor, scale)


@settings(max_examples=300)
@given(equations())
def test_roots_match_divisor_search_oracle(coeffs):
    assert first_rational_root(coeffs) == roots_oracle.first_rational_root(coeffs)
    assert count_real_roots(coeffs) == roots_oracle.count_real_roots(coeffs)


@settings(max_examples=100)
@given(
    st.lists(_rationals(10**30).filter(bool), min_size=1, max_size=3),
    st.sampled_from(FACTORS),
    st.booleans(),
)
def test_planted_roots_of_any_height_are_found(roots, factor, with_zero):
    # far past the divisor search: the answer is read off the planted roots
    roots = roots[: 5 - len(factor) + 1 - with_zero] + [Fraction(0)] * with_zero
    coeffs = _planted(roots, factor, Fraction(-7, 3))
    first = min(roots, key=lambda r: (abs(r), r < 0))
    assert first_rational_root(coeffs) == first
    irrational = 2 if factor[0] < 0 else 0
    assert count_real_roots(coeffs) == len(set(roots)) + irrational


def test_no_real_root_and_constants():
    for coeffs in (F(1, 0, 1), F(5, 0, 6, 0, 1), F(7), F(0), []):
        assert first_rational_root(coeffs) is None
        assert count_real_roots(coeffs) == 0
    # a root of height 10^41 behind a constant of 83 digits
    square = F(-(10**82), 0, 1)
    assert first_rational_root(square) == 10**41
    assert count_real_roots(square) == 2


def _gcd_pairs():
    """(a, b, coprime): a shared factor, a coprime pair, or two free draws."""
    poly = st.lists(_rationals(9), max_size=4)  # [], zeros and constants too
    shared = st.builds(
        lambda f, g, c: (_times(f, c), _times(g, c), False), poly, poly, poly
    )
    # f and f + 1 share no root, so their gcd is 1
    coprime = poly.map(lambda f: (f, [f[0] + 1, *f[1:]] if f else F(1), True))
    return shared | coprime | st.tuples(poly, poly, st.just(False))


@settings(max_examples=200)
@given(_gcd_pairs())
@example(([], [], False))
@example((F(0, 0), F(0), False))
@example(([], F(3), True))
@example((F(-4, 0, 2), [], False))
def test_poly_gcd_matches_fraction_euclid_oracle(pair):
    a, b, coprime = pair
    got = poly_gcd(a, b)
    assert got == poly_gcd(b, a) == roots_oracle.poly_gcd(a, b)
    assert all(type(c) is Fraction for c in got)
    if coprime:
        assert got == F(1)


def test_gcd_remainders_are_made_primitive(monkeypatch):
    """Knuth's coprime pair (TAOCP vol. 2, 4.6.1): the remainders peak at
    28 bits, and at 61 bits when they are not made primitive.  The bound
    leaves 29% headroom."""
    prem, bits = roots._prem, []

    def recorded(a, b):
        r = prem(a, b)
        bits.extend(abs(c).bit_length() for c in r)
        return r

    monkeypatch.setattr(roots, "_prem", recorded)
    assert poly_gcd(F(-5, 2, 8, -3, -3, 0, 1, 0, 1), F(21, -9, -4, 0, 5, 0, 3)) == F(1)
    assert max(bits) <= 36
