"""The one step loop behind the batch walk, the tiles and a single path.

``sde._walk`` steps every walk but the lattice, and ``sde._Tiles`` hands out
its units with the earliest divergence so far, for the per-path view
``TrajectorySet.batches()`` as for a sampled ensemble's tiles.
"""

import numpy as np
import pytest

from gridsde.grids import GridLevel
from gridsde.noise import NoiseEnsemble, enumerate_paths, sample_paths
from gridsde.sde import CauchyProblem, DivergenceError, TrajectorySet


def test_a_step_1_divergence_makes_no_later_noise_block(monkeypatch):
    # from x0 = 5e11 with f = 0 and h = 4e12, one step takes x past 1e12 after an
    # upper symbol, and two steps after two lower ones.  Of the 64 batches of 8 paths,
    # batch 0 diverges at step 2, batches 1-31 are stepped one step, and batch 32 (path
    # 256, the first with an upper xi_0) diverges at step 1; no step is earlier, so no
    # later batch is taken and no noise block made for it
    level = GridLevel(8)
    problem, ensemble = CauchyProblem(0, 4e12, 5e11, level), enumerate_paths(level)
    values_for, blocks = NoiseEnsemble._values_for, []

    def counting(self, start, stop, out=None):
        blocks.append(start)
        return values_for(self, start, stop, out)

    monkeypatch.setattr(NoiseEnsemble, "_values_for", counting)
    trajectories = TrajectorySet(problem, ensemble, batch_size=8)
    with pytest.raises(DivergenceError) as info:
        for _ in trajectories.batches():
            pytest.fail("a batch was yielded after the first batch diverged")
    assert blocks == list(range(0, 33 * 8, 8))
    assert (info.value.step, info.value.path_index) == (1, 256)


@pytest.mark.parametrize(
    "drift, ensemble, batch_size",
    [
        (0, enumerate_paths(GridLevel(6)), 1 << 15),
        ("-x", enumerate_paths(GridLevel(6)), 16),
        ("-x", sample_paths(GridLevel(6), 50, seed=4), 16),
    ],
    ids=["lattice", "batch-walk", "tiles"],
)
def test_the_callers_errstate_holds_in_its_loop_body(drift, ensemble, batch_size):
    # every walk ignores floating-point errors in its own steps alone: at each yield the
    # caller's numpy error state is the one it set
    trajectories = TrajectorySet(CauchyProblem(drift, 1, 0.25, ensemble.level), ensemble, batch_size)
    yields = 0
    with np.errstate(divide="raise"):
        for _ in trajectories.steps(range(ensemble.level.n + 1), with_noise=True):
            with pytest.raises(FloatingPointError):
                np.ones(1) / 0.0
            yields += 1
    assert yields >= ensemble.level.n + 1
