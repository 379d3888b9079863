"""Numerical toolkit for stretch-twist dynamo constructions.

Four building blocks, each usable on its own:

- maps: linear torus maps (cat / shear / twist families), exact 2x2
  classification, orbits, frozen-field transport and growth rates.
- frenet: Frenet-Serret frame integration, twist angle and tube stretch.
- tube: twisted-flux-tube metric, compact radial operator, flow residuals,
  the poloidal/toroidal ratio quadratics, and pressure / vorticity /
  alpha-effect diagnostics.
- filament: thin-filament induction matrix, growth-rate solver and dynamo
  regime classification.

The dynamokit command-line tool (dynamokit.cli) writes deterministic
CSV/JSON reports and static SVG plots for all four.
"""

__version__ = "0.1.0"

from .filament import *  # noqa: F401,F403
from .frenet import *  # noqa: F401,F403
from .maps import *  # noqa: F401,F403
from .tube import *  # noqa: F401,F403

__all__ = [name for name in dir() if not name.startswith("_")]
