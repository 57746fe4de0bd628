"""Property tests over random expressions of the grammar."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gridsde.expr import (  # noqa: E402
    Add,
    Bump,
    Call,
    Const,
    Div,
    ExprDomainError,
    Mul,
    Neg,
    Pow,
    Sub,
    TestFunction,
    Var,
    parse,
)

_LEAVES = st.one_of(
    st.sampled_from([Var("t"), Var("x")]),
    st.floats(-4.0, 4.0, allow_nan=False).map(Const),
)


def _extend(children):
    return st.one_of(
        children.map(Neg),
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Div, children, children),
        st.builds(Pow, children, st.integers(0, 4)),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp", "log", "sqrt"]), children),
        st.builds(Bump, st.integers(0, 3), children),
    )


EXPRESSIONS = st.recursive(_LEAVES, _extend, max_leaves=12)
POINTS = st.floats(-2.0, 2.0, allow_nan=False)
SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _scalar(e, t, x):
    """e(t, x), or None where the scalar call reports a domain fault."""
    try:
        return e(t, x)
    except ExprDomainError:
        return None


@SETTINGS
@given(EXPRESSIONS, POINTS, POINTS)
def test_scalar_call_matches_vectorized_closure(e, t, x):
    scalar = _scalar(e, t, x)
    if scalar is None:
        return
    assert np.isfinite(scalar)
    xs = np.array([x, 0.5])
    fn = e.vectorized()
    with np.errstate(all="ignore"):
        scalar_t = np.broadcast_to(fn(t, xs), xs.shape)[0]
        array_t = np.broadcast_to(fn(np.full(2, t), xs), xs.shape)[0]
    assert scalar_t == scalar
    assert array_t == scalar


@SETTINGS
@given(EXPRESSIONS, POINTS, POINTS)
def test_reparse_evaluates_identically(e, t, x):
    assert _scalar(parse(str(e)), t, x) == _scalar(e, t, x)


# Affine bump arguments u(v) and the interval |u| < 1 worked out by hand;
# a width or slope s is drawn with either sign.
AFFINE_ARGUMENTS = {
    "(v-c)/w": (lambda v, c, s: Div(Sub(v, Const(c)), Const(s)), lambda c, s: (c - abs(s), c + abs(s))),
    "(c-v)/w": (lambda v, c, s: Div(Sub(Const(c), v), Const(s)), lambda c, s: (c - abs(s), c + abs(s))),
    "k*(v+c)": (lambda v, c, s: Mul(Const(s), Add(v, Const(c))), lambda c, s: (-c - 1 / abs(s), -c + 1 / abs(s))),
    "v/w+c": (lambda v, c, s: Add(Div(v, Const(s)), Const(c)), lambda c, s: sorted((s * (-1 - c), s * (1 - c)))),
    "-(v-c)*k": (lambda v, c, s: Mul(Neg(Sub(v, Const(c))), Const(s)), lambda c, s: (c - 1 / abs(s), c + 1 / abs(s))),
}


@SETTINGS
@given(
    st.sampled_from(sorted(AFFINE_ARGUMENTS)),
    st.sampled_from(["t", "x"]),
    st.floats(-2.0, 2.0, allow_nan=False),
    st.floats(0.05, 4.0),
    st.sampled_from([1.0, -1.0]),
)
def test_support_of_affine_bump_argument(shape, var, c, magnitude, sign):
    build, interval = AFFINE_ARGUMENTS[shape]
    phi = TestFunction.from_expression(Bump(0, build(Var(var), c, sign * magnitude)))
    support, other = (phi.t_support, phi.x_support) if var == "t" else (phi.x_support, phi.t_support)
    lo, hi = interval(c, sign * magnitude)
    scale = max(abs(lo), abs(hi))
    assert abs(support[0] - lo) <= 1e-15 * scale
    assert abs(support[1] - hi) <= 1e-15 * scale
    assert other == (-np.inf, np.inf)

    def at(v):
        return (v, 0.3) if var == "t" else (0.3, v)

    margin = 1e-9 * (1.0 + scale)
    for v in (support[0] - margin, support[1] + margin):
        assert [fn(*at(v)) for fn in (phi, phi.d_t, phi.d_x, phi.d_xx)] == [0.0] * 4
    assert phi(*at((support[0] + support[1]) / 2)) > 0.0
