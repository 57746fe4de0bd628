"""Every level, count, index, order and seed follows one rule.

An integer, numpy's included, is taken and stored as a Python int; a bool or
a fraction is refused with the site's own error when the object is built or
the call is made, never truncated and never left to fail later.
"""

import json
import math

import numpy as np
import pytest

from gridsde.expr import Bump, ExprError, Pow, Var
from gridsde.grids import (
    GridError,
    GridFunction,
    GridLevel,
    UniformGrid,
    fundamental_theorem_check,
    grid_integral,
    multilevel_integral,
)
from gridsde.noise import (
    ConditionalEnsemble,
    NoiseAlphabet,
    NoiseEnsemble,
    NoiseError,
    enumerate_paths,
    sample_paths,
)
from gridsde.sde import CauchyProblem, TrajectorySet, density

GF = GridFunction(GridLevel(4).time_grid(), [0.0, 1.0, 4.0, 9.0, 16.0])
ENS = enumerate_paths(GridLevel(4))
PROBLEM = CauchyProblem("-x", "1", 0.0, GridLevel(4))
WHITE = NoiseAlphabet.white()


def descriptor(ens):
    return json.dumps(ens.descriptor())


# (site, its error, an accepted k, what the site keeps of v, as a Python value)
SITES = [
    ("GridLevel.n", GridError, 8, lambda v: GridLevel(v).n),
    ("UniformGrid.i_start", GridError, 1, lambda v: UniformGrid(GridLevel(8), v, 3).i_start),
    ("UniformGrid.i_stop", GridError, 3, lambda v: UniformGrid(GridLevel(8), 0, v).i_stop),
    ("UniformGrid.point", GridError, 2, lambda v: GridLevel(8).time_grid().point(v)),
    ("grid_integral.start", GridError, 1, lambda v: grid_integral(GF, v, 3)),
    ("grid_integral.stop", GridError, 3, lambda v: grid_integral(GF, 0, v)),
    ("fundamental_theorem_check.x", GridError, 1, lambda v: fundamental_theorem_check(GF, v, 3)),
    ("fundamental_theorem_check.y", GridError, 3, lambda v: fundamental_theorem_check(GF, 0, v)),
    ("multilevel_integral.levels", GridError, 8,
     lambda v: multilevel_integral(math.exp, (0.0, 1.0), [v, 16, 32], 1.0).levels),
    ("Pow.exponent", ExprError, 2, lambda v: str(Pow(Var("x"), v))),
    ("Bump.order", ExprError, 1, lambda v: str(Bump(v, Var("x")))),
    ("sample_paths.count", NoiseError, 4, lambda v: descriptor(sample_paths(GridLevel(4), v, 1))),
    ("sample_paths.seed", NoiseError, 3, lambda v: descriptor(sample_paths(GridLevel(4), 4, v))),
    ("NoiseEnsemble.count", NoiseError, 16,
     lambda v: descriptor(NoiseEnsemble("exhaustive", GridLevel(3), WHITE, v))),
    ("ConditionalEnsemble.first", NoiseError, 8,
     lambda v: descriptor(ConditionalEnsemble(GridLevel(3), WHITE, 1, first=v))),
    ("NoiseEnsemble.prefix_rows", NoiseError, 2, lambda v: ENS.prefix_rows(v)),
    ("NoiseEnsemble.path", NoiseError, 3, lambda v: ENS.path(v).path_index),
    ("NoiseEnsemble.batches", NoiseError, 4, lambda v: [start for start, _ in ENS.batches(v)]),
    ("TrajectorySet.batch_size", NoiseError, 4,
     lambda v: TrajectorySet(PROBLEM, sample_paths(GridLevel(4), 10, 1), batch_size=v).batch_size),
    ("TrajectorySet.steps", GridError, 2,
     lambda v: [w for _, _, _, w in TrajectorySet(PROBLEM, ENS).steps((v,))]),
    ("density.time_indices", GridError, 2, lambda v: density(TrajectorySet(PROBLEM, ENS), (v,)).time_indices),
]


@pytest.mark.parametrize("value", [True, 2.5, "numpy"], ids=["bool", "fraction", "numpy"])
@pytest.mark.parametrize("site, error, k, keep", SITES, ids=[site[0] for site in SITES])
def test_one_integer_rule_at_every_site(site, error, k, keep, value):
    if value == "numpy":
        # repr tells a numpy integer from an int, in tuples and lists too
        assert repr(keep(np.int64(k))) == repr(keep(k))
        return
    with pytest.raises(error):
        keep(value)
