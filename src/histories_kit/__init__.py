"""Consistent-histories toolkit: projective decompositions, history families,
CHSH machinery, hidden-variable feasibility, and reproducible sampling.

The package re-exports every name its layers list in their `__all__`."""

from __future__ import annotations

from . import config, errors, hilbert, histories, bell, sampler
from .config import *
from .errors import *
from .hilbert import *
from .histories import *
from .bell import *
from .sampler import *

__all__ = [
    name for layer in (config, errors, hilbert, histories, bell, sampler) for name in layer.__all__
]

__version__ = "0.1.0"
