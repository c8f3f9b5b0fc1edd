"""The rational quaternions a + bi + cj + dk: a noncommutative division ring.

fields.field_by_name loads this module only for the 'quaternion' selector,
so a process over the rationals never compiles it.  It shares the rational
literal reader and the random coefficient draw with fields.RationalField.
The fields docstring gives the literal grammar, and the QuaternionField
docstring lists each kernel's gcds.
"""

from __future__ import annotations

import math
import re

from .fields import Element, Field, _parse_rational, _random_fraction_terms


class QuaternionField(Field):
    """Rational quaternions a + bi + cj + dk: a noncommutative division ring.

    Payload is a 5-tuple of ints (a, b, c, d, n) standing for
    (a + bi + cj + dk) / n, with n > 0 and gcd(a, b, c, d, n) == 1.  That
    form is unique, so equal quaternions have equal payloads.  The norm
    (a^2+b^2+c^2+d^2)/n^2 vanishes only at zero (sums of squares), which is
    what makes every nonzero element invertible.

    Coordinates of constructed points reach thousands of bits, so each
    kernel avoids work that grows with operand size:

    - sum: split the gcd of the denominators (Knuth, TAOCP vol. 2,
      4.5.1), so the only common factor left to remove divides it;
    - product: 8 integer products instead of 16 (Howell & Lafon, "The
      complexity of the quaternion product", Cornell TR 75-245, 1975);
    - inverse: the reducing factor is known to be gcd(n, norm) times the
      content gcd(a, b, c, d), two gcds at operand size;
    - quotients x^-1 * y (_ldiv) and x * y^-1 (_rdiv): the scalar
      denominators cancel first, so one conjugate product and one gcd give
      the reduced result, and no inverse is built to be multiplied away;
    - format: one gcd per coefficient, with no Fraction built;
    - parse: the terms' ints summed over the lcm of their denominators,
      then one gcd of the five ints.
    """

    name = "quaternion"
    commutative = False

    def _coerce(self, raw):
        if isinstance(raw, int):
            return (int(raw), 0, 0, 0, 1)  # int(): a bool becomes the int it equals
        from fractions import Fraction

        if isinstance(raw, Fraction):
            return (raw.numerator, 0, 0, 0, raw.denominator)
        if isinstance(raw, tuple) and len(raw) == 4:
            for part in raw:
                if not isinstance(part, (int, Fraction)):
                    raise TypeError(f"cannot make a quaternion coefficient from {type(part).__name__}")
            parts = [Fraction(part) for part in raw]
            n = math.lcm(*(part.denominator for part in parts))
            # Already reduced: for each prime p of n, the part whose denominator
            # holds p's full power has n // den and its numerator both prime to p.
            return (*(part.numerator * (n // part.denominator) for part in parts), n)
        raise TypeError(f"cannot make a quaternion from {type(raw).__name__}")

    def _is_zero(self, q):
        return not (q[0] or q[1] or q[2] or q[3])

    def _add(self, x, y):
        a1, b1, c1, d1, n1 = x
        a2, b2, c2, d2, n2 = y
        g = math.gcd(n1, n2)
        s, t = n1 // g, n2 // g
        a, b, c, d = a1 * t + a2 * s, b1 * t + b2 * s, c1 * t + c2 * s, d1 * t + d2 * s
        # The sum is (x*t + y*s) / (s*n2).  A prime of s divides y*s but
        # neither t nor x's content, which is prime to n1, so it cannot divide
        # every numerator; likewise for t.  So the common factor divides g,
        # which goes first so that math.gcd stops early once it reaches 1.
        h = math.gcd(g, a, b, c, d)
        if h == 1:
            return (a, b, c, d, s * n2)
        return (a // h, b // h, c // h, d // h, s * (n2 // h))

    def _sub(self, x, y):
        # _add with y negated, written out: see _add for why h divides g
        a1, b1, c1, d1, n1 = x
        a2, b2, c2, d2, n2 = y
        g = math.gcd(n1, n2)
        s, t = n1 // g, n2 // g
        a, b, c, d = a1 * t - a2 * s, b1 * t - b2 * s, c1 * t - c2 * s, d1 * t - d2 * s
        h = math.gcd(g, a, b, c, d)
        if h == 1:
            return (a, b, c, d, s * n2)
        return (a // h, b // h, c // h, d // h, s * (n2 // h))

    def _neg(self, x):
        a, b, c, d, n = x
        return (-a, -b, -c, -d, n)

    def _mul(self, x, y):
        a1, b1, c1, d1, n1 = x
        a2, b2, c2, d2, n2 = y
        a, b, c, d = _hamilton(a1, b1, c1, d1, a2, b2, c2, d2)
        return _reduced(a, b, c, d, n1 * n2)

    def _inv(self, q):
        # n(a - bi - cj - dk) / (a^2+b^2+c^2+d^2), reduced by its known common
        # factor gcd(n, norm) * content: the content is prime to n and its
        # square divides the norm.
        a, b, c, d, n = q
        norm = a * a + b * b + c * c + d * d
        content = math.gcd(a, b, c, d)
        g = math.gcd(n, norm)
        m = n // g
        return (
            a // content * m,
            b // content * -m,
            c // content * -m,
            d // content * -m,
            norm // (g * content),
        )

    def _ldiv(self, x, y):
        # x^-1 * y = n1 * conj(X) * Y / (N(X) * n2), for x = X/n1, y = Y/n2
        a1, b1, c1, d1, n1 = x
        a2, b2, c2, d2, n2 = y
        product = _hamilton(a1, -b1, -c1, -d1, a2, b2, c2, d2)
        return _divided(n1, a1 * a1 + b1 * b1 + c1 * c1 + d1 * d1, n2, product)

    def _rdiv(self, x, y):
        # x * y^-1 = n2 * X * conj(Y) / (N(Y) * n1), for x = X/n1, y = Y/n2
        a1, b1, c1, d1, n1 = x
        a2, b2, c2, d2, n2 = y
        product = _hamilton(a1, b1, c1, d1, a2, -b2, -c2, -d2)
        return _divided(n2, a2 * a2 + b2 * b2 + c2 * c2 + d2 * d2, n1, product)

    def norm(self, x: Element) -> Fraction:
        """Quaternion norm, the sum of the squared coefficients, as an exact Fraction."""
        from fractions import Fraction

        a, b, c, d, n = x.value
        return Fraction(a * a + b * b + c * c + d * d, n * n)

    def _random(self, rng):
        # Four RationalField draws, numerator then denominator each, put
        # over the common denominator n0*n1*n2*n3.
        getrandbits = rng.getrandbits
        (a, n0), (b, n1), (c, n2), (d, n3) = [_random_fraction_terms(getrandbits) for _ in range(4)]
        return _reduced(
            a * n1 * n2 * n3, b * n0 * n2 * n3, c * n0 * n1 * n3, d * n0 * n1 * n2, n0 * n1 * n2 * n3
        )

    def basis(self):
        units = ((0, 1, 0, 0, 1), (0, 0, 1, 0, 1), (0, 0, 0, 1, 1))
        return [self.one] + [Element(self, unit) for unit in units]

    def is_central(self, x):
        # Scalars are exactly the quaternions commuting with i, j and k.
        _, b, c, d, _ = x.value
        return b == 0 and c == 0 and d == 0

    def _format(self, q):
        n = q[4]
        names = ("", "i", "j", "k")
        terms = []
        for part, unit in zip(q, names):
            if part == 0:
                continue
            g = math.gcd(part, n)
            num, den = part // g, n // g
            if unit and den == 1 and (num == 1 or num == -1):
                body = unit if num > 0 else "-" + unit
            elif den == 1:
                body = f"{num}{unit}"
            else:
                body = f"{num}/{den}{unit}"
            if terms and not body.startswith("-"):
                terms.append("+" + body)
            else:
                terms.append(body)
        return "".join(terms) or "0"

    def _parse(self, text):
        return _parse_quaternion(text)

    def __eq__(self, other):
        return isinstance(other, QuaternionField)

    def __hash__(self):
        return hash(self.name)


def _hamilton(a1, b1, c1, d1, a2, b2, c2, d2) -> tuple:
    """The Hamilton product of two integer quaternions from 8 integer products (Howell-Lafon)."""
    t0 = (d1 - c1) * (c2 - d2)
    t1 = (a1 + b1) * (a2 + b2)
    t2 = (a1 - b1) * (c2 + d2)
    t3 = (d1 + c1) * (a2 - b2)
    t4 = (d1 - b1) * (b2 - c2)
    t5 = (d1 + b1) * (b2 + c2)
    t6 = (a1 + c1) * (a2 - d2)
    t7 = (a1 - c1) * (a2 + d2)
    t8 = t5 + t6 + t7
    t9 = (t4 + t8) >> 1  # t4 + t8 is always even
    return t0 + t9 - t5, t1 + t9 - t8, t2 + t9 - t7, t3 + t9 - t6


def _divided(m: int, norm: int, n: int, product: tuple) -> tuple:
    """The payload of m * product / (norm * n) in lowest terms; m, norm and n are positive.

    The scalars cancel first, m against n and then what is left of m against
    norm (Knuth, TAOCP vol. 2, 4.5.1).  What is left of m is then prime to the
    denominator, so the one common factor to remove is that of the
    denominator and the product's coefficients.
    """
    g = math.gcd(m, n)
    if g != 1:
        m, n = m // g, n // g
    g = math.gcd(m, norm)
    if g != 1:
        m, norm = m // g, norm // g
    den = norm * n
    a, b, c, d = product
    h = math.gcd(den, a, b, c, d)
    if h != 1:
        a, b, c, d, den = a // h, b // h, c // h, d // h, den // h
    if m != 1:
        a, b, c, d = a * m, b * m, c * m, d * m
    return (a, b, c, d, den)


def _reduced(a: int, b: int, c: int, d: int, n: int) -> tuple:
    """The payload (a, b, c, d, n) in lowest terms; n must be positive."""
    g = math.gcd(a, b, c, d, n)
    if g == 1:
        return (a, b, c, d, n)
    return (a // g, b // g, c // g, d // g, n // g)


_QUAT_TERM_RE = re.compile(r"([+-]?)(?:(\d+(?:/\d+)?)([ijk])?|([ijk]))", re.ASCII)
_UNIT_SLOT = {"": 0, "i": 1, "j": 2, "k": 3}


def _parse_quaternion(text: str) -> tuple:
    """The payload of a quaternion literal.

    Each term's coefficient is added to its unit's numerator over a common
    denominator, the lcm of the terms' denominators, and the sum is reduced
    once at the end.
    """
    if not text:
        raise ValueError("empty quaternion literal")
    nums = [0, 0, 0, 0]
    den = 1
    pos = 0
    while pos < len(text):
        m = _QUAT_TERM_RE.match(text, pos)
        if not m or (pos and not m.group(1)):
            raise ValueError(f"invalid quaternion literal: {text!r}")
        if m.group(4) is not None:
            n, d, unit = 1, 1, m.group(4)
        else:
            n, d = _parse_rational(m.group(2))
            unit = m.group(3) or ""
        if m.group(1) == "-":
            n = -n
        g = math.gcd(den, d)
        if g != d:  # widen den to lcm(den, d)
            s = d // g
            nums = [num * s for num in nums]
            den *= s
        nums[_UNIT_SLOT[unit]] += n * (den // d)
        pos = m.end()
    return _reduced(*nums, den)
