"""Property tests on random small problems: the prefix tree and the
recombining lattice agree with the per-path reduction, a level step gives
the same bits in given buffers as in fresh ones, and the exhaustive
identities hold on random alphabets."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from gridsde import sde  # noqa: E402
from gridsde.grids import GridLevel  # noqa: E402
from gridsde.identities import (  # noqa: E402
    increment_report,
    moment_report,
    tower_property_report,
)
from gridsde.noise import NoiseAlphabet, conditional, enumerate_paths  # noqa: E402
from gridsde.sde import CauchyProblem  # noqa: E402
from test_sde import assert_matches_per_path  # noqa: E402

COEFFICIENTS = st.integers(-8, 8).map(lambda i: i / 8)


@st.composite
def tree_cases(draw):
    if draw(st.booleans()):
        a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        alphabet = NoiseAlphabet.from_symbols((-float(a + b), float(a), float(b)))
        n = draw(st.integers(4, 6))
    else:
        alphabet = NoiseAlphabet.white()
        n = draw(st.integers(4, 9))
    level = GridLevel(n)
    c = [draw(COEFFICIENTS) for _ in range(6)]
    drift = f"{c[0]!r}*sin(x) + {c[1]!r}*t - {abs(c[2])!r}*x"
    diffusion = f"{c[3]!r} + {c[4]!r}*cos(x)"
    problem = CauchyProblem(drift, diffusion, c[5], level)
    ensemble = enumerate_paths(level, alphabet)
    digits = draw(st.lists(st.integers(0, alphabet.size - 1), max_size=3))
    if digits:
        ensemble = conditional(ensemble, tuple(alphabet.scaled(level)[digits]))
    return problem, ensemble, draw(st.sampled_from([3, 64, 1 << 15]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(tree_cases())
def test_tree_matches_per_path_reduction(case):
    problem, ensemble, batch_size = case
    assert_matches_per_path(problem, ensemble, batch_size)


@st.composite
def lattice_cases(draw):
    """A constant f and h, an x0 and a full enumeration of at most 2^11 or 3^7 paths."""
    if draw(st.booleans()):
        a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        alphabet = NoiseAlphabet.from_symbols((-float(a + b), float(a), float(b)))
        n = draw(st.integers(4, 6))
    else:
        alphabet = NoiseAlphabet.white()
        n = draw(st.integers(4, 10))
    # dyadic values step exactly more often, and so merge more often, than arbitrary floats
    value = st.one_of(COEFFICIENTS, st.floats(-2.0, 2.0))
    drift, diffusion, x0 = draw(value), draw(value), draw(value)
    return CauchyProblem(drift, diffusion, x0, GridLevel(n)), enumerate_paths(GridLevel(n), alphabet)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(lattice_cases())
# 0.0 and -0.0 are equal floats but different states: f = -0.0 and h = 0 from x0 = -0.0
@example((CauchyProblem(-0.0, 0.0, -0.0, GridLevel(5)), enumerate_paths(GridLevel(5))))
def test_lattice_matches_per_path_reduction(case):
    assert_matches_per_path(*case)


@st.composite
def walk_cases(draw):
    """A problem, a level of nodes and the noise of a few steps from it.

    f and h are each constant, read x or read t.  A step gives each node
    one child or one per symbol.  A coin-flip walk alternates the two
    symbols, so its increments cancel exactly for f = 0.  States may be
    NaN, inf or next to the divergence guard.
    """
    cancelling = draw(st.booleans())
    alphabet = NoiseAlphabet.white() if cancelling else draw(
        st.sampled_from([NoiseAlphabet.white(), NoiseAlphabet.from_symbols((-3.0, 1.0, 2.0))])
    )
    fan_out = 1 if cancelling else draw(st.sampled_from([1, alphabet.size]))
    n, steps, nodes = draw(st.integers(1, 64)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    a, b = draw(COEFFICIENTS), draw(st.floats(-2.0, 2.0))
    coefficient = st.sampled_from([repr(a), f"{a!r}*x - {b!r}*sin(x)", f"{a!r} + {b!r}*t"])
    drift = "0" if cancelling else draw(coefficient)
    problem = CauchyProblem(drift, draw(coefficient), 0.0, GridLevel(n))
    guard = sde.DIVERGENCE_GUARD
    edge = [guard, -guard, np.nextafter(guard, 0.0), guard - 0.25, np.nan, np.inf, -np.inf]
    state = st.one_of(COEFFICIENTS, st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(edge))
    x = np.array([draw(state) for _ in range(nodes)])
    comp = np.array([draw(st.one_of(st.just(0.0), st.floats(-1e-3, 1e-3))) for _ in range(nodes)])
    symbols, columns = alphabet.scaled(problem.level), []
    for k in range(min(steps, n)):
        nodes *= fan_out
        if cancelling:
            digits = [k % 2] * nodes
        else:
            digits = draw(st.lists(st.integers(0, alphabet.size - 1), min_size=nodes, max_size=nodes))
        columns.append(symbols[digits])
    return problem, x, comp, columns


def reference_step(problem, k, x, comp, xi, out=None):
    """The level step written as expressions, each one a fresh array."""
    n, tk, node = problem.level.n, k / problem.level.n, x[:, None]
    fv = np.asarray(problem.drift.vectorized()(tk, x), dtype=np.float64)[..., None]
    hv = np.asarray(problem.diffusion.vectorized()(tk, x), dtype=np.float64)[..., None]
    inc = (fv + hv * xi.reshape(x.shape[0], -1)) / n - comp[:, None]
    nxt = node + inc
    new_comp = (nxt - node) - inc
    return nxt.ravel(), new_comp.ravel(), (np.abs(nxt) <= sde.DIVERGENCE_GUARD).ravel()


def walk(problem, x, comp, columns, step=sde._step_nodes, buffered=False):
    """Each step's (states, compensations, mask) bytes along the noise columns.

    With ``buffered`` each step writes into the fronts of three of five
    buffers, the other two holding its nodes, and the outputs take the
    nodes' place after it, as in a sampled tile; the buffers start as NaN,
    so an element read before it is written shows.
    """
    size = max(len(xi) for xi in columns)
    inc, x_buf, comp_buf, nxt_buf, new_comp_buf = (np.full(size, np.nan) for _ in range(5))
    x_buf[: len(x)], comp_buf[: len(x)] = x, comp
    x, comp, seen = x_buf[: len(x)], comp_buf[: len(x)], []
    with np.errstate(all="ignore"):
        for k, xi in enumerate(columns):
            out = None
            if buffered:
                out = inc[: len(xi)], nxt_buf[: len(xi)], new_comp_buf[: len(xi)]
            x, comp, ok = step(problem, k, x, comp, xi, out)
            if buffered:
                assert x is out[1] and comp is out[2]
                x_buf, comp_buf, nxt_buf, new_comp_buf = nxt_buf, new_comp_buf, x_buf, comp_buf
            seen.append((x.tobytes(), comp.tobytes(), ok.tobytes()))
    return seen


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(walk_cases())
def test_a_step_in_given_buffers_is_the_fresh_step_bit_for_bit(case):
    fresh = walk(*case)
    assert walk(*case, buffered=True) == fresh
    assert walk(*case, step=reference_step) == fresh


@st.composite
def identity_cases(draw):
    a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    alphabet = NoiseAlphabet.from_symbols((-float(a + b), float(a), float(b)))
    n = draw(st.integers(2, 5))
    level = GridLevel(n)
    c = [draw(COEFFICIENTS) for _ in range(4)]
    drift = f"{c[0]!r}*sin(x) - {abs(c[1])!r}*x"
    diffusion = f"1 + {c[2]!r}*cos(x)"
    problem = CauchyProblem(drift, diffusion, c[3], level)
    return problem, enumerate_paths(level, alphabet), draw(st.integers(1, n))


PATH_FUNCTIONALS = [
    ("mean increment", lambda v: v.mean(axis=1)),
    ("squared midpoint", lambda v: v[:, v.shape[1] // 2] ** 2),
    ("running max", lambda v: v.cumsum(axis=1).max(axis=1)),
]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(identity_cases())
def test_exhaustive_identities_hold_on_random_alphabets(case):
    problem, ensemble, split_index = case
    n = problem.level.n
    assert moment_report(ensemble).max_relative_deviation <= 1e-10
    tower = tower_property_report(ensemble, PATH_FUNCTIONALS, split_index)
    assert tower.max_relative_gap <= 1e-10
    increments = increment_report(
        problem, ensemble, ["sin(x) + 1", "bump(x/4)", "x^2"], range(n + 1)
    )
    assert increments.max_orthogonality_rel <= 1e-10
    assert increments.max_quadratic_rel <= 1e-10
