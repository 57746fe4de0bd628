"""Property test: the prefix tree agrees with the per-path reduction on random small problems."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gridsde.grids import GridLevel  # noqa: E402
from gridsde.noise import NoiseAlphabet, conditional, enumerate_paths  # noqa: E402
from gridsde.sde import CauchyProblem  # noqa: E402
from test_sde import assert_tree_matches_per_path  # noqa: E402

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
    problem = CauchyProblem(drift, diffusion, c[5], level, t0=draw(st.integers(0, n)) / n)
    ensemble = enumerate_paths(level, alphabet)
    digits = draw(st.lists(st.integers(0, alphabet.size - 1), max_size=3))
    if digits:
        ensemble = conditional(ensemble, tuple(alphabet.scaled(level)[digits]))
    return problem, ensemble, draw(st.sampled_from([3, 64, 1 << 15]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(tree_cases())
def test_tree_matches_per_path_reduction(case):
    problem, ensemble, batch_size = case
    assert_tree_matches_per_path(problem, ensemble, batch_size)
