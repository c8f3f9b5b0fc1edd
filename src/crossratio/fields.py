"""Exact arithmetic in three concrete skew fields behind one element type.

Supported fields: the rationals, prime fields GF(p), and the rational
quaternions (a genuinely noncommutative division ring).  All arithmetic is
arbitrary-precision and exact; floating point never appears.  Elements carry
a reference to their field instance and refuse to combine across unequal
fields; equal instances mix, and `is` is tested first only as a shortcut.

The module also owns the element literal grammar shared with the CLI:

    rational   := '-'? digits ('/' digits)?
    gfp        := digits                       (reduced mod p from context)
    quaternion := term (('+'|'-') term)*
    term       := rational unit? | unit ;  unit := 'i' | 'j' | 'k'

Digits are ASCII 0-9 only.  Whitespace is ignored.  ``str(field.parse(s))``
is the canonical spelling of ``s``.

Each field computes on payloads through its kernels _add, _sub, _neg, _mul,
_inv, _ldiv (x^-1 * y) and _rdiv (x * y^-1), and each kernel returns the
canonical payload.  Every division in this package goes through _ldiv or
_rdiv, called only on a divisor its branch has proven nonzero; _inv serves
Element.inv and the inverse terms of ratio.cross_ratio_alt.

Payloads are plain ints and tuples of ints, so equal elements have equal
payloads: a rational is (n, d) with d > 0 and gcd(n, d) == 1, a GF(p)
element a residue in [0, p), and a quaternion (a, b, c, d, n) over one
positive denominator in lowest terms.  Rational and quaternion kernels
reduce with gcds on the smallest operands that suffice (Knuth, TAOCP vol. 2,
4.5.1): a sum or difference splits the gcd of the denominators and reduces
only by a divisor of it, a rational product or quotient cross-cancels
before it multiplies, and a quaternion quotient cancels its scalar
denominators first.  The RationalField and QuaternionField docstrings list
each kernel's gcds.  Fraction appears only at the edges: coercion takes
one and QuaternionField.norm returns one, and only these two load the
fractions module.  Rational and quaternion literals are read as ints: a
quaternion literal sums each unit's coefficients over a common denominator.
"""

from __future__ import annotations

import math
import re

# Bound on random numerators/denominators: keeps bignum growth desk-scale.
RANDOM_COEFF_BOUND = 1000


def _randbelow(getrandbits, n: int, k: int) -> int:
    """rng.randrange(n) for n > 0 with k = n.bit_length(), bit for bit.

    random.Random.randrange(start, stop) is start + _randbelow(stop - start),
    and _randbelow rejects k-bit getrandbits draws until one is below n, the
    same loop on Python 3.10 to 3.13.  Calling the loop directly skips the
    argument checks, so a draw returns the same value and leaves the
    generator in the same state.
    """
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


# randint(-bound, bound) and randint(1, bound): widths and their bit lengths
_NUMERATOR_WIDTH = 2 * RANDOM_COEFF_BOUND + 1
_NUMERATOR_BITS = _NUMERATOR_WIDTH.bit_length()
_DENOMINATOR_BITS = RANDOM_COEFF_BOUND.bit_length()


def _random_fraction_terms(getrandbits) -> tuple[int, int]:
    """(rng.randint(-bound, bound), rng.randint(1, bound)), drawn in that order.

    The two _randbelow loops are written out: a quaternion draw runs them
    four times, and the calls alone would double its cost.
    """
    r = getrandbits(_NUMERATOR_BITS)
    while r >= _NUMERATOR_WIDTH:
        r = getrandbits(_NUMERATOR_BITS)
    s = getrandbits(_DENOMINATOR_BITS)
    while s >= RANDOM_COEFF_BOUND:
        s = getrandbits(_DENOMINATOR_BITS)
    return r - RANDOM_COEFF_BOUND, s + 1


class PreconditionError(ValueError):
    """Base of every error raised for input that breaks a stated precondition.

    The CLI exits with the class's exit_code: 3 here, and 4 for
    ratio.InfiniteSolutionError.
    """

    exit_code = 3


class FieldMismatchError(PreconditionError):
    """Binary operation applied to elements of unequal fields."""


class DivisionByZeroError(PreconditionError, ZeroDivisionError):
    """Multiplicative inverse of the zero element was requested."""


class Element:
    """One exact element of a skew field, tagged with its field instance."""

    __slots__ = ("field", "value", "_text")

    def __init__(self, field: "Field", value):
        self.field = field
        self.value = value

    @property
    def is_zero(self) -> bool:
        return self.field._is_zero(self.value)

    def inv(self) -> "Element":
        """Multiplicative inverse; raises DivisionByZeroError on zero."""
        if self.is_zero:
            raise DivisionByZeroError(f"cannot invert zero in {self.field}")
        return Element(self.field, self.field._inv(self.value))

    # The binary ops call _check_elements only off the common path of an
    # Element of the very same field instance, saving a Python call per operation.
    def __add__(self, other):
        if other.__class__ is not Element or other.field is not self.field:
            _check_elements((self, other))
        return Element(self.field, self.field._add(self.value, other.value))

    def __sub__(self, other):
        if other.__class__ is not Element or other.field is not self.field:
            _check_elements((self, other))
        return Element(self.field, self.field._sub(self.value, other.value))

    def __neg__(self):
        return Element(self.field, self.field._neg(self.value))

    def __mul__(self, other):
        if other.__class__ is not Element or other.field is not self.field:
            _check_elements((self, other))
        return Element(self.field, self.field._mul(self.value, other.value))

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.value == other.value and (self.field is other.field or self.field == other.field)

    def __hash__(self):
        return hash(self.value)  # equal elements have equal payloads

    def __str__(self):
        # Formatted once: a line shares its slope Element with its parallels.
        try:
            return self._text
        except AttributeError:
            self._text = text = self.field._format(self.value)
            return text

    def __repr__(self):
        return f"<{self.field}: {self.field._format(self.value)}>"


class Field:
    """A concrete skew field instance.  Subclasses define the payload ops."""

    name: str
    commutative: bool

    @property
    def zero(self) -> Element:
        return Element(self, self._coerce(0))

    @property
    def one(self) -> Element:
        return Element(self, self._coerce(1))

    def element(self, raw) -> Element:
        """Coerce an int, a Fraction or 4 quaternion coefficients to an Element; parse() reads literals."""
        if isinstance(raw, Element):
            if raw.field is not self and raw.field != self:
                raise FieldMismatchError(f"element of {raw.field} is not in {self}")
            return raw
        return Element(self, self._coerce(raw))

    def parse(self, text: str) -> Element:
        return Element(self, self._parse(_WHITESPACE_RE.sub("", text)))

    def random_element(self, rng, nonzero: bool = False) -> Element:
        while True:
            value = self._random(rng)
            if not (nonzero and self._is_zero(value)):
                return Element(self, value)

    def basis(self) -> list[Element]:
        """Spanning elements whose centralizer determines the center."""
        return [self.one]

    def is_central(self, x: Element) -> bool:
        """Whether x commutes with every element; noncommutative fields override this."""
        return self.commutative

    def __str__(self):
        return self.name

    def __repr__(self):
        return self.name


class RationalField(Field):
    """The field of rationals, stored as reduced pairs of arbitrary-precision ints.

    Payload is a 2-tuple of ints (n, d) standing for n/d, with d > 0 and
    gcd(n, d) == 1, so zero is (0, 1).  That form is unique, so equal
    rationals have equal payloads.  Each kernel takes its gcds on the
    smallest operands that suffice (Knuth, TAOCP vol. 2, 4.5.1):

    - sum and difference: split g = gcd(d1, d2); a factor common to the new
      numerator and denominator divides g, so the second gcd is against g;
    - product: cross-cancel, gcd(n1, d2) and gcd(n2, d1);
    - quotients x^-1 * y (_ldiv) and x * y^-1 (_rdiv): cross-cancel the two
      numerators and the two denominators, then move the sign to the
      numerator;
    - inverse: swap numerator and denominator, moving the sign, with no gcd;
    - parse and random draw: one gcd of the literal's or the draw's two ints;
    - format: what str(Fraction) prints, with no gcd and no Fraction built.
    """

    name = "rational"
    commutative = True

    def _coerce(self, raw):
        if isinstance(raw, int):
            return (int(raw), 1)  # int(): a bool becomes the int it equals
        from fractions import Fraction

        if isinstance(raw, Fraction):
            return (raw.numerator, raw.denominator)
        raise TypeError(f"cannot make a rational from {type(raw).__name__}")

    def _is_zero(self, a):
        return a[0] == 0

    def _add(self, a, b):
        n1, d1 = a
        n2, d2 = b
        g = math.gcd(d1, d2)
        if g == 1:
            return (n1 * d2 + n2 * d1, d1 * d2)
        s = d1 // g
        t = n1 * (d2 // g) + n2 * s
        # The sum is t / (s * d2).  A prime of s divides n2 * s but neither
        # n1 nor d2 // g, so it cannot divide t; likewise for d2 // g.  So
        # the common factor divides g.
        h = math.gcd(t, g)
        if h == 1:
            return (t, s * d2)
        return (t // h, s * (d2 // h))

    def _sub(self, a, b):
        # _add with b negated, written out: see _add for why h divides g
        n1, d1 = a
        n2, d2 = b
        g = math.gcd(d1, d2)
        if g == 1:
            return (n1 * d2 - n2 * d1, d1 * d2)
        s = d1 // g
        t = n1 * (d2 // g) - n2 * s
        h = math.gcd(t, g)
        if h == 1:
            return (t, s * d2)
        return (t // h, s * (d2 // h))

    def _neg(self, a):
        return (-a[0], a[1])

    def _mul(self, a, b):
        n1, d1 = a
        n2, d2 = b
        g1 = math.gcd(n1, d2)
        g2 = math.gcd(n2, d1)
        return ((n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1))

    def _inv(self, a):
        n, d = a
        return (-d, -n) if n < 0 else (d, n)

    def _ldiv(self, a, b):
        # b / a: _rdiv with the operands swapped, written out
        n1, d1 = b
        n2, d2 = a
        g1 = math.gcd(n1, n2)
        g2 = math.gcd(d1, d2)
        n, d = (n1 // g1) * (d2 // g2), (d1 // g2) * (n2 // g1)
        return (-n, -d) if d < 0 else (n, d)

    def _rdiv(self, a, b):
        # (n1/d1) / (n2/d2) = (n1 * d2) / (d1 * n2), cross-cancelled
        n1, d1 = a
        n2, d2 = b
        g1 = math.gcd(n1, n2)
        g2 = math.gcd(d1, d2)
        n, d = (n1 // g1) * (d2 // g2), (d1 // g2) * (n2 // g1)
        return (-n, -d) if d < 0 else (n, d)

    def _random(self, rng):
        n, d = _random_fraction_terms(rng.getrandbits)
        g = math.gcd(n, d)
        return (n // g, d // g)

    def _format(self, a):
        n, d = a
        return str(n) if d == 1 else f"{n}/{d}"

    def _parse(self, text):
        n, d = _parse_rational(text)
        g = math.gcd(n, d)
        return (n // g, d // g)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(self.name)


# Strong-probable-prime bases: the first 13 primes.  No composite below
# PRIME_TEST_LIMIT passes all of them (Sorenson & Webster, Math. Comp. 2017;
# the first 12 primes alone are fooled at 318665857834031151167461).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; exact for every p < PRIME_TEST_LIMIT."""
    if p < 2:
        return False
    for base in _PRIME_BASES:
        if p % base == 0:
            return p == base
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in _PRIME_BASES:
        x = pow(base, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class GaloisField(Field):
    """Prime field GF(p); residues in [0, p).  Mixing moduli is an error."""

    commutative = True

    def __init__(self, p: int):
        if p >= PRIME_TEST_LIMIT:
            raise ValueError(f"GF modulus must be below {PRIME_TEST_LIMIT}, got {p}")
        if not _is_prime(p):
            raise ValueError(f"GF modulus must be prime, got {p}")
        self.p = p
        self.name = f"gf:{p}"

    def _coerce(self, raw):
        if isinstance(raw, int):
            return raw % self.p
        raise TypeError(f"cannot make a GF({self.p}) element from {type(raw).__name__}")

    def _is_zero(self, a):
        return a == 0

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _inv(self, a):
        return pow(a, -1, self.p)

    def _ldiv(self, a, b):
        p = self.p
        return pow(a, -1, p) * b % p

    def _rdiv(self, a, b):
        p = self.p
        return a * pow(b, -1, p) % p

    def _random(self, rng):
        return _randbelow(rng.getrandbits, self.p, self.p.bit_length())

    def _format(self, a):
        return str(a)

    def _parse(self, text):
        if not (text.isascii() and text.isdigit()):
            raise ValueError(f"invalid GF({self.p}) literal: {text!r}")
        return int(text) % self.p

    def elements(self) -> list[Element]:
        return [Element(self, r) for r in range(self.p)]

    def __eq__(self, other):
        return isinstance(other, GaloisField) and other.p == self.p

    def __hash__(self):
        return hash((GaloisField, self.p))


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


_WHITESPACE_RE = re.compile(r"\s+")
# re.ASCII: \d is [0-9] only, so no other script's digits get through to int().
_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$", re.ASCII)
_QUAT_TERM_RE = re.compile(r"([+-]?)(?:(\d+(?:/\d+)?)([ijk])?|([ijk]))", re.ASCII)
_UNIT_SLOT = {"": 0, "i": 1, "j": 2, "k": 3}


def _parse_rational(text: str) -> tuple[int, int]:
    """The numerator and positive denominator of a rational literal, not reduced."""
    m = _RATIONAL_RE.match(text)
    if not m:
        raise ValueError(f"invalid rational literal: {text!r}")
    num, den = m.group(1), m.group(2)
    if den is None:
        return int(num), 1
    d = int(den)
    if d == 0:
        raise ValueError(f"zero denominator in literal: {text!r}")
    return int(num), d


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


def field_by_name(name: str) -> Field:
    """Resolve a field selector: 'rational', 'gf:P' (P prime), or 'quaternion'."""
    if name == "rational":
        return RationalField()
    if name == "quaternion":
        return QuaternionField()
    if name.startswith("gf:"):
        body = name[3:]
        if not (body.isascii() and body.isdigit()):
            raise ValueError(f"invalid GF modulus: {body!r}")
        return GaloisField(int(body))
    raise ValueError(f"unknown field selector: {name!r}")


def _same_field(xs) -> Field:
    """The field of xs[0], which every later x in xs must equal (`is`, then `==`)."""
    field = xs[0].field
    for x in xs[1:]:
        if x.field is not field and x.field != field:
            raise FieldMismatchError(f"mixing elements of {field} and {x.field}")
    return field


def _check_elements(xs) -> None:
    """TypeError for a non-Element among xs, then FieldMismatchError through _same_field.

    Callers test the common case, Elements of one field instance, inline and
    call this only off it.
    """
    for x in xs:
        if not isinstance(x, Element):
            raise TypeError(f"expected a field element, got {type(x).__name__}")
    _same_field(xs)


def commutes(x: Element, y: Element) -> bool:
    """Whether x*y == y*x."""
    if not (x.__class__ is y.__class__ is Element and x.field is y.field):
        _check_elements((x, y))
    f = x.field
    return f._mul(x.value, y.value) == f._mul(y.value, x.value)


def conjugate_by(p: Element, q: Element) -> Element:
    """The conjugate q^-1 * p * q; q must be nonzero."""
    if not (p.__class__ is q.__class__ is Element and p.field is q.field):
        _check_elements((q, p))  # q first: a mismatch names q's field first, as in q^-1 * p
    f = q.field
    qv = q.value
    if f._is_zero(qv):
        raise DivisionByZeroError(f"cannot invert zero in {f}")
    return Element(f, f._mul(f._ldiv(qv, p.value), qv))
