"""Shared fixtures, element strategies, and the acceptance result board."""

import functools
import random

import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st

from crossratio import ratio, verify
from crossratio.fields import RationalField
from crossratio.gf import GaloisField
from crossratio.quaternion import QuaternionField
from crossratio.ratio import cross_ratio

# No shrink phase: shrinking a failure of the exact-arithmetic kernels can
# take minutes per test, so a broken kernel would show as a timeout rather
# than as a report.  A failure is reported with the example as generated.
settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
settings.load_profile("suite")

RATIONAL = RationalField()
GF5 = GaloisField(5)
GF7 = GaloisField(7)
GF101 = GaloisField(101)
QUATERNION = QuaternionField()

# every field under test; MAIN_FIELDS is the heavy-duty trio used at scale
FIELDS = (RATIONAL, GF5, GF101, QUATERNION)
MAIN_FIELDS = (RATIONAL, GF101, QUATERNION)


@pytest.fixture(params=FIELDS, ids=lambda f: f.name)
def field(request):
    return request.param


@pytest.fixture
def rng():
    return random.Random(977)


@pytest.fixture
def broken_ratios(monkeypatch):
    """Corrupt the ratio functions the checks call, so witnesses get recorded."""
    monkeypatch.setattr(verify, "cross_ratio", lambda *args: -ratio.cross_ratio(*args))
    monkeypatch.setattr(verify, "ratio2", lambda *args: ratio.ratio2(*args) + args[0].field.one)
    monkeypatch.setattr(verify, "ratio3", lambda *args: ratio.ratio3(*args) + args[0].field.one)


def element_strategy(field, nonzero=False):
    # bounded literals keep bignum growth small while exercising signs and denominators
    if isinstance(field, GaloisField):
        strat = st.integers(min_value=0, max_value=field.p - 1).map(field.element)
    elif isinstance(field, QuaternionField):
        scalar = st.fractions(min_value=-6, max_value=6, max_denominator=6)
        strat = st.tuples(scalar, scalar, scalar, scalar).map(field.element)
    else:
        strat = st.fractions(min_value=-40, max_value=40, max_denominator=24).map(
            field.element
        )
    if nonzero:
        strat = strat.filter(lambda x: not x.is_zero)
    return strat


@st.composite
def field_and_elements(draw, n, nonzero=False, distinct=False, fields=FIELDS):
    fld = draw(st.sampled_from(list(fields)))
    xs = draw(
        st.lists(
            element_strategy(fld, nonzero=nonzero),
            min_size=n,
            max_size=n,
            unique=distinct,
        )
    )
    return fld, xs


def swapped_inverse_form_matches(field, seed, samples):
    """How many of cr_inverse_points_conjugation's own draws the swapped order fits.

    The swapped order A * c(A,C;B,D) * A^-1 is A * (1 - X) * A^-1 with
    X = c(A,B;C,D), by the complement law, so against the inverse-points law
    A * X * A^-1 it can match exactly when X = 1/2; each draw asserts that.
    """
    check = verify.CHECKS["cr_inverse_points_conjugation"]
    half = (field.one + field.one).inv()
    matches = 0
    for index in range(samples):
        (a, b, c, d), _ = verify._draw_valid(check, field, seed, index)
        lhs = cross_ratio(a.inv(), b.inv(), c.inv(), d.inv())
        swapped = lhs == a * cross_ratio(a, c, b, d).value * a.inv()
        assert swapped == (cross_ratio(a, b, c, d) == half), (field.name, seed, index)
        matches += swapped
    return matches


# one line per acceptance criterion, echoed after the run so a scan of the
# terminal output shows the pass/fail state of each numbered criterion
ACCEPTANCE_RESULTS = []


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                ACCEPTANCE_RESULTS.append((label, "FAIL"))
                raise
            ACCEPTANCE_RESULTS.append((label, "PASS"))

        return run

    return wrap


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for label, status in ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"{status}  {label}")
