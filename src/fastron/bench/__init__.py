"""Benchmark harness: configs, scenario generation, runners, CSV reports."""

from . import config, report, runners, scenarios
from .config import *
from .report import *
from .runners import *
from .scenarios import *

# the package surface is its modules' public names, each listed once, in its module
__all__ = config.__all__ + report.__all__ + runners.__all__ + scenarios.__all__
