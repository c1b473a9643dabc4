"""Uncertainty deficit of factorized Gaussian variational approximations.

Closed-form solutions and entropy-gap decompositions for dense Gaussian
targets, extremal bounds on each piece of the gap over condition-number
classes of correlation matrices, and a stochastic fitting engine for
probing the same quantities on non-Gaussian targets.
"""

from .bounds import *
from .engine import *
from .gaussian import *
from .generators import *

__version__ = "0.1.0"

__all__ = ["__version__", *gaussian.__all__, *generators.__all__, *bounds.__all__, *engine.__all__]
