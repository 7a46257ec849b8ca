"""Learned proxy collision detection for robot configuration spaces.

A trained model answers "is this configuration in collision?" one to two
orders of magnitude faster than running forward kinematics plus convex
intersection tests, at the price of being approximate. The package pairs
the learner with the exact geometric oracle it is trained against,
sampling-based planners that consume either checker, and a benchmark CLI.
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
