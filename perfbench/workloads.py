"""Seeded request streams: every workload is an endless, deterministic argv list.

The program sees only these argv lists.  The same (workload, seed) pair
always yields the same stream, so a run can be replayed request by request.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterator

from oracle import ALGEBRAS, format_point, point_at

# verify requests: the sample count is fixed so every request does the same work.
VERIFY_SAMPLES = {"verify-quaternion": 3, "verify-gf": 20}
# verify-gf interleaves two sampled gf:101 runs with one gf:5 run (exhaustive
# enumerators plus sampled checks that redraw often).  Two to one keeps the
# latency median inside the gf:101 cluster instead of in the gap between them.
GF_FIELDS = ("gf:101", "gf:101", "gf:5")
# requests-bignum: numerator and denominator sizes, in bits.
COEFF_BITS = (64, 256)
DESARGUES_COUNT = 2
# One cycle of requests-bignum, shuffled per cycle, so the mix is exact in
# every run.  Rational eval/solve make up 10 of the 16, which puts the latency
# median inside that one cluster; the rest is slower and sets the mean.
BIGNUM_CYCLE = (
    *[("eval", "rational")] * 5,
    *[("solve", "rational")] * 5,
    ("eval", "quaternion"),
    ("solve", "quaternion"),
    ("construct-svg", "rational"),
    ("construct", "rational"),
    ("construct", "quaternion"),
    ("desargues", None),
)

WORKLOADS = ("verify-quaternion", "verify-gf", "requests-bignum")


def requests(workload: str, seed: int, svg_path: str) -> Iterator[list[str]]:
    """The endless argv stream of one workload; svg_path is where figures go."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    if workload == "verify-quaternion":
        return (_verify(rng, "quaternion", VERIFY_SAMPLES[workload]) for _ in itertools.count())
    if workload == "verify-gf":
        return (
            _verify(rng, field, VERIFY_SAMPLES[workload])
            for field in itertools.cycle(GF_FIELDS)
        )
    if workload == "requests-bignum":
        return _bignum(rng, svg_path)
    raise ValueError(f"unknown workload {workload!r}")


def _verify(rng: random.Random, field: str, samples: int) -> list[str]:
    return [
        "verify", "--field", field, "--seed", str(rng.getrandbits(32)),
        "--samples", str(samples), "--format", "json",
    ]


def _bignum(rng: random.Random, svg_path: str):
    while True:
        cycle = list(BIGNUM_CYCLE)
        rng.shuffle(cycle)
        for kind, field in cycle:
            argv = _BUILDERS[kind](rng, field)
            yield argv + ["--svg", svg_path] if kind == "construct-svg" else argv


def _rational(rng: random.Random) -> Fraction:
    num = rng.getrandbits(rng.randint(*COEFF_BITS)) | 1
    den = rng.getrandbits(rng.randint(*COEFF_BITS)) | 1
    return Fraction(num if rng.random() < 0.5 else -num, den)


def _element(rng: random.Random, field: str):
    if field == "rational":
        return _rational(rng)
    return tuple(_rational(rng) for _ in range(4))


def _literal(rng: random.Random, field: str) -> str:
    return ALGEBRAS[field].format(_element(rng, field))


def _eval(rng, field):
    points = [_literal(rng, field) for _ in range(4)]
    if rng.random() < 0.25:
        points[rng.randrange(4)] = "inf"
    return ["eval", "--field", field, "--format", rng.choice(("text", "json")), "--", *points]


def _solve(rng, field):
    values = [_literal(rng, field) for _ in range(4)]
    return ["solve", "--field", field, "--format", rng.choice(("text", "json")), "--", *values]


def _construct(rng, field):
    """A ruler construction on a random axis; A and B sit on it at random coordinates."""
    K = ALGEBRAS[field]
    o, i, aux = ((_element(rng, field), _element(rng, field)) for _ in range(3))
    a, b = (point_at(K, o, i, _element(rng, field)) for _ in range(2))
    points = {"O": o, "I": i, "A": a, "B": b, "aux": aux}
    argv = ["construct", rng.choice(("add", "mul")), "--field", field, "--format", "json"]
    return argv + [f"--{name}={format_point(K, p)}" for name, p in points.items()]


def _desargues(rng, field):
    return [
        "desargues", "--field", rng.choice(("rational", "quaternion")), "--count", str(DESARGUES_COUNT),
        "--mode", rng.choice(("parallel", "concurrent")),
        "--seed", str(rng.getrandbits(32)), "--format", "json",
    ]


_BUILDERS = {
    "eval": _eval,
    "solve": _solve,
    "construct": _construct,
    "construct-svg": _construct,
    "desargues": _desargues,
}
