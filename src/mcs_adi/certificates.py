"""Exact certificates of the stability thresholds, in integer arithmetic.

A polynomial is a list of coefficients (index = power), a complex one a
(re, im) pair of them.  With theta = a/b, `mcs_parts` expands s N and s D of
S = N/D, s = 4 b^4, from integer constants, so integer z-coefficients give int
coefficients.  Each thmN_* certificate proves one polynomial identity with its
factors written out, multiplied through by powers of b and s so that both sides
are integer polynomials, and raises ArithmeticError when it fails; for theorem 4
that is 64 (5 den - 12 num) = (x - 2)^2 (5x^4 + 100x^3 + 456x^2 + 400x + 80).
The package registers this module lazily, so it runs, and loads `fractions`
and `decimal`, only when a certificate does.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product, zip_longest

from .stability import SpectralPoint


def _padd(p, q):
    """Sum of two polynomials."""
    return [c + d for c, d in zip_longest(p, q, fillvalue=0)]


def _pmul(p, q):
    """Product of two polynomials; an empty operand or a zero coefficient adds nothing."""
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        if c:
            for j, d in enumerate(q):
                out[i + j] += c * d
    return out


def _cadd(u, v):
    """Sum of two complex polynomials."""
    return _padd(u[0], v[0]), _padd(u[1], v[1])


def _psub(p, q):
    """Difference of two polynomials."""
    return [c - d for c, d in zip_longest(p, q, fillvalue=0)]


def _cmul(u, v):
    """Product of two complex polynomials."""
    return _psub(_pmul(u[0], v[0]), _pmul(u[1], v[1])), _padd(_pmul(u[0], v[1]), _pmul(u[1], v[0]))


def _abs2(u):
    """|u|^2 of a complex polynomial u in a real variable."""
    return _padd(_pmul(u[0], u[0]), _pmul(u[1], u[1]))


def mcs_parts(theta, z0, z1, z2):
    """s N, s D and the scale s of S = N/D, D = p^2, for complex polynomials z0, z1, z2.

    theta = a/b is exact (a Fraction, an int or a float).  From the additive form of
    `stability_function`: N = p^2 + zz p + theta z0 zz + (1/2 - theta) zz^2 with
    p = (1 - theta z1)(1 - theta z2) and zz = z0 + z1 + z2.  P = 2 (b - a z1)(b - a z2)
    = 2 b^2 p, ZZ = 2 b^2 zz and T = 2 a b z0 + b (b - 2 a) zz give s N = P^2 + ZZ P + ZZ T
    and s D = P^2 with s = 4 b^4: integer z-coefficients give int coefficients.
    """
    a, b = theta.as_integer_ratio()
    den, minus = ([b], []), ([-a], [])
    p = _cmul(([2], []), _cmul(_cadd(den, _cmul(minus, z1)), _cadd(den, _cmul(minus, z2))))
    zs = _cadd(z0, _cadd(z1, z2))
    zz = _cmul(([2 * b * b], []), zs)
    d = _cmul(p, p)
    tail = _cadd(_cmul(([2 * a * b], []), z0), _cmul(([b * (b - 2 * a)], []), zs))
    return _cadd(_cadd(d, _cmul(zz, p)), _cmul(zz, tail)), d, 4 * b**4


def thm1_coefficient(theta: float) -> float:
    """float(c), c = (2 theta - 1)^2 (4 theta - 1) / 4, certified on the imaginary axis.

    At z0 = 0, z1 = i b1, z2 = i b2 the identity |D|^2 - |N|^2 = c (b1 + b2)^4
    holds exactly, so |S| <= 1 for all real b1, b2 iff c >= 0 (theta >= 1/4),
    and |S| = 1 at theta = 1/2.  Both sides have degree <= 4 in b2, so the
    identity in b1 at five values of b2 proves it; raises ArithmeticError if not.
    Times s^2 = 16 b^8 (theta = a/b) it reads |sD|^2 - |sN|^2 = k (b1 + b2)^4 below.
    """
    t = Fraction(theta)
    a, b = t.as_integer_ratio()
    k = 4 * b**5 * (2 * a - b) ** 2 * (4 * a - b)
    for b2 in range(5):
        n, d, _ = mcs_parts(t, ([], []), ([], [0, 1]), ([], [b2]))
        bb = _pmul([b2, 1], [b2, 1])
        if any(_psub(_psub(_abs2(d), _abs2(n)), _pmul([k], _pmul(bb, bb)))):
            raise ArithmeticError(f"the imaginary-axis identity fails at theta = {theta:.17g}")
    return k / (16 * b**8)


def thm2_upper(theta: float | str) -> tuple[float, bool]:
    """float(16 (3 theta - 1)(theta - 1)) and whether S <= 1 is proven on the all-real cone.

    theta: a float or an exact string such as "1/3".  On the cone z1 = -u^2,
    z2 = -v^2, z0 = 2tuv (|t| <= 1), exactly 2 (D - N) = (u^2 + v^2 - 2tuv) *
    (2tuv + 2 theta^2 u^2 v^2 + (4 theta - 1)(u^2 + v^2) + 2), checked in u at
    5 x 3 values of (v, t): one more than its degrees in v and t.  The first
    factor is >= 0; for theta >= 1/4 the second is >= 2 theta^2 w^2 + (8 theta - 4) w + 2,
    w = |uv|, which is >= 0 if its discriminant (returned) is <= 0 or all its
    coefficients are positive; with D = p^2 > 0 then S <= 1.  The identity is
    checked times s b^2 (theta = a/b).  Raises ArithmeticError if it fails.
    """
    th = Fraction(theta)
    a, b = th.as_integer_ratio()
    for v, t in product(range(1, 6), (-1, 0, 1)):
        n, d, s = mcs_parts(th, ([0, 2 * t * v], []), ([0, 0, -1], []), ([-v * v], []))
        second = [2 * b * b + (4 * a - b) * b * v * v, 2 * t * v * b * b,
                  2 * a * a * v * v + (4 * a - b) * b]
        if any(_psub(_pmul([2 * b * b], _psub(d[0], n[0])),
                     _pmul([s * v * v, -2 * s * t * v, s], second))):
            raise ArithmeticError(f"the all-real cone identity fails at theta = {theta}")
    disc = 16 * (3 * th - 1) * (th - 1)
    return float(disc), 4 * th - 1 >= 0 and (disc <= 0 or 8 * th - 4 > 0)


def thm2_lower(theta: float | str) -> tuple[float, bool]:
    """3.0 and whether 2 (N + D) >= 3, so S > -1, is proven for real z0 and z1, z2 <= 0.

    theta as in `thm2_upper`, which this completes to |S| <= 1 on the all-real cone.
    Exactly 2 (N + D) = (z0 + X)^2 + R with X = x / b^2, R = r / b^4 below (theta = a/b),
    checked in z0 times s b^4 at 3 x 3 values of (z1, z2), one more than its degrees
    in each.  For theta > 0 each term of R is >= 0, so R >= 3.  Raises ArithmeticError
    if the identity fails.
    """
    th = Fraction(theta)
    a, b = th.as_integer_ratio()
    for z1, z2 in product(range(3), repeat=2):
        n, d, s = mcs_parts(th, ([0, 1], []), ([z1], []), ([z2], []))
        x = b * b - (2 * a - b) * b * (z1 + z2) + a * a * z1 * z2
        r = (3 * b**4 - 4 * a * b**3 * (z1 + z2) + 6 * (a * b) ** 2 * z1 * z2
             - 4 * a**3 * b * z1 * z2 * (z1 + z2) + 3 * (a * a * z1 * z2) ** 2)
        if any(_psub(_pmul([2 * b**4], _padd(n[0], d[0])),
                     _pmul([s], [x * x + r, 2 * x * b * b, b**4]))):
            raise ArithmeticError(f"the all-real N + D identity fails at theta = {theta}")
    return 3.0, th > 0


def exact_real_s(theta: float, pt: SpectralPoint) -> float:
    """S at an all-real triplet, exact at the float inputs and rounded once."""
    n, d, _ = mcs_parts(Fraction(theta), *(([Fraction(z.real)], []) for z in (pt.z0, pt.z1, pt.z2)))
    return float(n[0][0] / d[0][0])


def thm3_cubic(theta: float) -> tuple[float, bool]:
    """float(C) and C == 40 theta^2 - 16 theta, C the a^3 coefficient of |N|^2 - |D|^2.

    N and D are `mcs_parts` on the family z0 = -2a, z1 = z2 = a(1+i), and C is
    exact at the exact theta = a/b: s^2 C is compared with 16 b^6 (40 a^2 - 16 ab).
    Raises ArithmeticError unless the a^0 .. a^2 coefficients vanish exactly, or
    when C does not fit a float.
    """
    t = Fraction(theta)
    a, b = t.as_integer_ratio()
    n, d, s = mcs_parts(t, ([0, -2], []), ([0, 1], [0, 1]), ([0, 1], [0, 1]))
    diff = _psub(_abs2(n), _abs2(d))
    if any(diff[:3]):
        raise ArithmeticError(f"|S|^2 - 1 has terms below a^3 at theta = {theta:.17g}")
    try:
        return float(diff[3] / (s * s)), diff[3] == 16 * b**6 * (40 * a * a - 16 * a * b)
    except OverflowError:
        raise ArithmeticError(f"cubic coefficient at theta = {theta:.17g} is too large "
                              "for a float") from None


def thm4_polynomials():
    """Numerator and denominator of `analysis.thm4_ratio`, times 64, as integer polynomials in x."""
    p = [4, 4, 1]
    p2 = _pmul(p, p)
    return _padd([0, 0, 0, 64], _pmul([0, 0, 32], p)), _padd(_pmul(p2, p), _pmul(p2, [0, 4]))


def thm4_certify() -> None:
    """Prove that the threshold ratio is <= 5/12 on x >= 0, with equality only at x = 2.

    With num/den the ratio (both times 64), exactly 5 den - 12 num = (x - 2)^2 Q(x) with
    Q = 5x^4 + 100x^3 + 456x^2 + 400x + 80.  Q and den have only positive
    coefficients, so on x >= 0 both are > 0 and 5/12 - num/den =
    (x - 2)^2 Q / (12 den) is >= 0, and 0 only at x = 2.  Raises
    ArithmeticError if the identity fails or den has a coefficient <= 0.
    """
    num, den = thm4_polynomials()
    lhs = _psub(_pmul([5], den), _pmul([12], num))
    if any(_psub(lhs, _pmul([4, -4, 1], [80, 400, 456, 100, 5]))) or not all(c > 0 for c in den):
        raise ArithmeticError("the 5/12 certificate of the threshold ratio does not hold")
