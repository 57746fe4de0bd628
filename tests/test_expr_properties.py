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
