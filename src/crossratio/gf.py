"""Prime fields GF(p): residues in [0, p), one field per prime modulus.

fields.field_by_name loads this module only for a 'gf:P' selector, so a
process over the rationals never compiles it.  A literal is ASCII digits,
reduced mod p.  The modulus must pass a deterministic Miller-Rabin test,
exact below PRIME_TEST_LIMIT; a larger modulus is refused.
"""

from __future__ import annotations

from .fields import Element, Field


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
