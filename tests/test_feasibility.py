"""2-DOF feasibility diagnostic: free components of an oracle grid.

Labels a 241 x 241 grid over the input square with the oracle and splits
its free cells into connected components with ``scipy.ndimage.label``.
A start/goal pair whose cells fall in different components has no
collision-free path at the grid's resolution, so a planner that runs to
its iteration cap on it reports an infeasible query, not a planner fault.
"""

import numpy as np
import pytest
from scipy import ndimage

from fastron.bench.config import load_config
from fastron.bench.runners import Scene

GRID = 241

# the random dof2 scenarios of test_proxy_plan_invalid_edge_fraction_and_repair_rate
_RANDOM_DOF2 = {
    "robot": {"type": "dof2"},
    "obstacles": {"count": 4, "randomize_count": True, "size_range": [0.12, 0.2]},
    "fastron": {"gamma": 30.0, "beta": 100.0, "n0": 2000},
    "eval": {"holdout": 1500, "timing_calls": 2000, "timing_batch": 500},
}


def free_components(label, structure=None):
    """Component id of every grid cell (0 = in collision) and the component count."""
    axis = np.linspace(-1.0, 1.0, GRID)
    free = np.array([[label((x, y)) == -1 for y in axis] for x in axis])
    return ndimage.label(free, structure=structure)


def grid_cell(p) -> tuple[int, int]:
    return tuple(int(i) for i in np.rint((np.asarray(p) + 1.0) * (GRID - 1) / 2.0))


def _planning_scene(seed: int):
    """The oracle and the start/goal pair that ``plan_seed`` draws for ``seed``."""
    scene = Scene(load_config(_RANDOM_DOF2), seed)
    model, _ = scene.train()
    return scene.label, scene.start_goal(model)


@pytest.mark.parametrize("seed", [0, 1, 8])
def test_unsolved_random_dof2_queries_are_infeasible(seed):
    # apart even when diagonal neighbours count as connected
    label, (start, goal) = _planning_scene(seed)
    comp, _ = free_components(label, structure=np.ones((3, 3)))
    a, b = comp[grid_cell(start)], comp[grid_cell(goal)]
    assert a > 0 and b > 0 and a != b


def test_feasible_random_dof2_query_shares_a_component():
    # seed 10 has two free components; its pair lies in one of them even
    # when only edge neighbours count as connected
    label, (start, goal) = _planning_scene(10)
    comp, count = free_components(label)
    assert count > 1
    assert comp[grid_cell(start)] > 0
    assert comp[grid_cell(start)] == comp[grid_cell(goal)]
