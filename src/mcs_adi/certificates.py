"""Exact certificates of the stability thresholds, in rational arithmetic.

A polynomial is a list of coefficients (index = power), a complex one a
(re, im) pair of them.  `mcs_parts` expands S = N/D exactly, and each thmN_*
certificate proves one polynomial identity with its factors written out,
raising ArithmeticError when it fails; for theorem 4 that is
64 (5 den - 12 num) = (x - 2)^2 (5x^4 + 100x^3 + 456x^2 + 400x + 80).  The
expansion runs over the integers: with theta = a/b it builds 4 b^4 N and
4 b^4 D from integer constants, so integer z-coefficients keep every
intermediate an int, and it divides each coefficient once, by 4 b^4, into
the exact Fractions it returns.  The package registers this module
lazily, so it runs, and loads `fractions` and `decimal`, only when a
certificate does.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product, zip_longest

from .stability import SpectralPoint


def _padd(p, q):
    """Sum of two polynomials."""
    return [c + d for c, d in zip_longest(p, q, fillvalue=0)]


def _pmul(p, q):
    """Product of two polynomials."""
    out = [0] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        for j, d in enumerate(q):
            out[i + j] += c * d
    return out


def _cadd(u, v):
    """Sum of two complex polynomials."""
    return _padd(u[0], v[0]), _padd(u[1], v[1])


def _psub(p, q):
    """Difference of two polynomials."""
    return _padd(p, _pmul([-1], q))


def _cmul(u, v):
    """Product of two complex polynomials."""
    return _psub(_pmul(u[0], v[0]), _pmul(u[1], v[1])), _padd(_pmul(u[0], v[1]), _pmul(u[1], v[0]))


def _abs2(u):
    """|u|^2 of a complex polynomial u in a real variable."""
    return _padd(_pmul(u[0], u[0]), _pmul(u[1], u[1]))


def _cdiv(u, s):
    """Complex polynomial u divided by the int s, as exact Fractions."""
    return [Fraction(c, s) for c in u[0]], [Fraction(c, s) for c in u[1]]


def mcs_parts(theta, z0, z1, z2):
    """Numerator N and denominator D = p^2 of S = N/D for complex polynomials z0, z1, z2.

    theta is exact (a Fraction or an int).  From the additive form of `stability_function`:
    N = p^2 + zz p + theta z0 zz + (1/2 - theta) zz^2 with
    p = (1 - theta z1)(1 - theta z2) and zz = z0 + z1 + z2.

    With theta = a/b the expansion runs on integer constants: P = 2 (b - a z1)(b - a z2)
    = 2 b^2 p, ZZ = 2 b^2 zz and T = 2 a b z0 + b (b - 2 a) zz give
    4 b^4 N = P^2 + ZZ P + ZZ T and 4 b^4 D = P^2, so for integer z-coefficients
    every intermediate is an int, and each coefficient is divided once, by 4 b^4.
    """
    a, b = theta.as_integer_ratio()
    den, minus = ([b], []), ([-a], [])
    p = _cmul(([2], []), _cmul(_cadd(den, _cmul(minus, z1)), _cadd(den, _cmul(minus, z2))))
    zs = _cadd(z0, _cadd(z1, z2))
    zz = _cmul(([2 * b * b], []), zs)
    d = _cmul(p, p)
    tail = _cadd(_cmul(([2 * a * b], []), z0), _cmul(([b * (b - 2 * a)], []), zs))
    n = _cadd(_cadd(d, _cmul(zz, p)), _cmul(zz, tail))
    return _cdiv(n, 4 * b**4), _cdiv(d, 4 * b**4)


def thm1_coefficient(theta: float) -> float:
    """float(c), c = (2 theta - 1)^2 (4 theta - 1) / 4, certified on the imaginary axis.

    At z0 = 0, z1 = i b1, z2 = i b2 the identity |D|^2 - |N|^2 = c (b1 + b2)^4
    holds exactly, so |S| <= 1 for all real b1, b2 iff c >= 0 (theta >= 1/4),
    and |S| = 1 at theta = 1/2.  Both sides have degree <= 4 in b2, so the
    identity in b1 at five values of b2 proves it; raises ArithmeticError if not.
    """
    t = Fraction(theta)
    c = (2 * t - 1) ** 2 * (4 * t - 1) / 4
    for b2 in range(5):
        n, d = mcs_parts(t, ([], []), ([], [0, 1]), ([], [b2]))
        b = _pmul([b2, 1], [b2, 1])
        if any(_psub(_psub(_abs2(d), _abs2(n)), _pmul([c], _pmul(b, b)))):
            raise ArithmeticError(f"the imaginary-axis identity fails at theta = {theta:.17g}")
    return float(c)


def thm2_upper(theta: float | str) -> tuple[float, bool]:
    """float(16 (3 theta - 1)(theta - 1)) and whether S <= 1 is proven on the all-real cone.

    theta: a float or an exact string such as "1/3".  On the cone z1 = -u^2,
    z2 = -v^2, z0 = 2tuv (|t| <= 1), exactly 2 (D - N) = (u^2 + v^2 - 2tuv) *
    (2tuv + 2 theta^2 u^2 v^2 + (4 theta - 1)(u^2 + v^2) + 2), checked in u at
    5 x 3 values of (v, t): one more than its degrees in v and t.  The first
    factor is >= 0; for theta >= 1/4 the second is >= 2 theta^2 w^2 + (8 theta - 4) w + 2,
    w = |uv|, which is >= 0 if its discriminant (returned) is <= 0 or all its
    coefficients are positive; with D = p^2 > 0 then S <= 1.  Raises
    ArithmeticError if the identity fails.
    """
    th = Fraction(theta)
    for v, t in product(range(1, 6), (-1, 0, 1)):
        n, d = mcs_parts(th, ([0, 2 * t * v], []), ([0, 0, -1], []), ([-v * v], []))
        second = [2 + (4 * th - 1) * v * v, 2 * t * v, 2 * th * th * v * v + 4 * th - 1]
        if any(_psub(_pmul([2], _psub(d[0], n[0])), _pmul([v * v, -2 * t * v, 1], second))):
            raise ArithmeticError(f"the all-real cone identity fails at theta = {theta}")
    disc = 16 * (3 * th - 1) * (th - 1)
    return float(disc), 4 * th - 1 >= 0 and (disc <= 0 or 8 * th - 4 > 0)


def thm2_lower(theta: float | str) -> tuple[float, bool]:
    """3.0 and whether 2 (N + D) >= 3, so S > -1, is proven for real z0 and z1, z2 <= 0.

    theta as in `thm2_upper`, which this completes to |S| <= 1 on the all-real cone.
    Exactly 2 (N + D) = (z0 + X)^2 + R with X, R the x, r below at z1 = a, z2 = b,
    checked in z0 at 3 x 3 values of (a, b), one more than its degrees in each.
    For theta > 0 each term of R is >= 0, so R >= 3.  Raises ArithmeticError if the
    identity fails.
    """
    th = Fraction(theta)
    for a, b in product(range(3), repeat=2):
        n, d = mcs_parts(th, ([0, 1], []), ([a], []), ([b], []))
        x = 1 - (2 * th - 1) * (a + b) + th**2 * a * b
        r = (3 - 4 * th * (a + b) + 6 * th**2 * a * b - 4 * th**3 * a * b * (a + b)
             + 3 * th**4 * (a * b) ** 2)
        if any(_psub(_pmul([2], _padd(n[0], d[0])), [x * x + r, 2 * x, 1])):
            raise ArithmeticError(f"the all-real N + D identity fails at theta = {theta}")
    return 3.0, th > 0


def exact_real_s(theta: float, pt: SpectralPoint) -> float:
    """S at an all-real triplet, exact at the float inputs and rounded once."""
    n, d = mcs_parts(Fraction(theta), *(([Fraction(z.real)], []) for z in (pt.z0, pt.z1, pt.z2)))
    return float(n[0][0] / d[0][0])


def thm3_cubic(theta: float) -> tuple[float, bool]:
    """float(C) and C == 40 theta^2 - 16 theta, C the a^3 coefficient of |N|^2 - |D|^2.

    N and D are `mcs_parts` on the family z0 = -2a, z1 = z2 = a(1+i), and C is
    exact at the exact value of theta.  Raises ArithmeticError unless the
    a^0 .. a^2 coefficients vanish exactly, or when C does not fit a float.
    """
    t = Fraction(theta)
    n, d = mcs_parts(t, ([0, -2], []), ([0, 1], [0, 1]), ([0, 1], [0, 1]))
    diff = _psub(_abs2(n), _abs2(d))
    if any(diff[:3]):
        raise ArithmeticError(f"|S|^2 - 1 has terms below a^3 at theta = {theta:.17g}")
    try:
        return float(diff[3]), diff[3] == 40 * t * t - 16 * t
    except OverflowError:
        raise ArithmeticError(
            f"cubic coefficient at theta = {theta:.17g} is too large for a float"
        ) from None


def thm4_polynomials():
    """Numerator and denominator of `analysis.thm4_ratio` as exact polynomials in x."""
    p = [1, 1, Fraction(1, 4)]
    p2 = _pmul(p, p)
    return _padd([0, 0, 0, 1], _pmul([0, 0, 2], p)), _padd(_pmul(p2, p), _pmul(p2, [0, 1]))


def thm4_certify() -> None:
    """Prove that the threshold ratio is <= 5/12 on x >= 0, with equality only at x = 2.

    With num/den the ratio, exactly 64 (5 den - 12 num) = (x - 2)^2 Q(x) with
    Q = 5x^4 + 100x^3 + 456x^2 + 400x + 80.  Q and den have only positive
    coefficients, so on x >= 0 both are > 0 and 5/12 - num/den =
    (x - 2)^2 Q / (768 den) is >= 0, and 0 only at x = 2.  Raises
    ArithmeticError if the identity fails or den has a coefficient <= 0.
    """
    num, den = thm4_polynomials()
    lhs = _pmul([64], _psub(_pmul([5], den), _pmul([12], num)))
    if any(_psub(lhs, _pmul([4, -4, 1], [80, 400, 456, 100, 5]))) or not all(c > 0 for c in den):
        raise ArithmeticError("the 5/12 certificate of the threshold ratio does not hold")
