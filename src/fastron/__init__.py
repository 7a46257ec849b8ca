"""Learned proxy collision detection for robot configuration spaces.

A trained model answers "is this configuration in collision?" one to two
orders of magnitude faster than running forward kinematics plus convex
intersection tests, at the price of being approximate. The package pairs
the learner with the exact geometric oracle it is trained against,
sampling-based planners that consume either checker, and a benchmark CLI.
"""

from .kernels import LazyGramMatrix, rq_kernel
from .model import DuplicatePointError, FastronModel, TrainParams, TrainReport
from .sampling import SamplerParams, generate_active_set, update_cycle
from .geometry import (
    Box,
    Capsule,
    KinematicChain,
    Workspace,
    from_input_space,
    gjk_intersect,
    kcd_label,
    make_label_fn,
    to_input_space,
    two_dof_rod,
    four_dof_rod,
)
from .planning import (
    MotionPlan,
    PlanQuery,
    edge_valid,
    repair_plan,
    rrt_connect_plan,
    rrt_plan,
    verify_plan,
)

__all__ = [
    "rq_kernel",
    "LazyGramMatrix",
    "FastronModel",
    "TrainParams",
    "TrainReport",
    "DuplicatePointError",
    "SamplerParams",
    "generate_active_set",
    "update_cycle",
    "Box",
    "Capsule",
    "Workspace",
    "KinematicChain",
    "two_dof_rod",
    "four_dof_rod",
    "gjk_intersect",
    "kcd_label",
    "to_input_space",
    "from_input_space",
    "make_label_fn",
    "PlanQuery",
    "MotionPlan",
    "edge_valid",
    "rrt_plan",
    "rrt_connect_plan",
    "verify_plan",
    "repair_plan",
]

__version__ = "0.1.0"
