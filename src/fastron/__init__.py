"""Learned proxy collision detection for robot configuration spaces.

A trained model answers "is this configuration in collision?" several times
faster per query than forward kinematics plus convex intersection tests, more
in batches (the newest ``BENCH_<n>.json`` holds the measured ratios), at the
price of being approximate. The package pairs the learner with the exact
geometric oracle it is trained against, planners that consume either checker,
and a benchmark CLI.
"""

from . import kernels, model, sampling, geometry, planning
from .kernels import *
from .model import *
from .sampling import *
from .geometry import *
from .planning import *

# the package surface is its modules' public names, each listed once, in its module
__all__ = kernels.__all__ + model.__all__ + sampling.__all__ + geometry.__all__ + planning.__all__

__version__ = "0.1.0"
