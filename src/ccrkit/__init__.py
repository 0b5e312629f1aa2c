"""Complementarity measures and complete complementarity relations.

A small numpy library for multipartite qudit states: tensor structure and
partial traces, predictability / coherence / non-local-coherence
quantifiers, the complementarity balances they satisfy, factories for the
standard example states, and a Haar-random sampler.  A CLI (``ccrkit``)
exposes balance checks, CSV parameter sweeps, and random audits.

Each module's ``__all__`` is its public list; the package re-exports those lists.
"""

from . import ccr, core, errors, measures, states
from .ccr import *
from .core import *
from .errors import *
from .measures import *
from .states import *

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *core.__all__, *measures.__all__, *ccr.__all__, *states.__all__]
