"""Property tests on random small problems: the prefix tree and the
recombining lattice agree with the per-path reduction, and the exhaustive
identities hold on random alphabets."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

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
