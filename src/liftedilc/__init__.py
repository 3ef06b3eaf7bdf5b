"""Lifted-system iterative learning control with closed-form fast-forward.

The package models finite-horizon sampled systems in lifted (matrix) form,
runs iterative learning updates under three gain laws, evaluates when to
switch learning from a model to hardware, and inverts non-minimum-phase
plants by deleting the leading rows of the lifted map.

Each module's ``__all__`` is the one declaration of its public names; the
package root re-exports their union.
"""

from . import config, engine, errors, experiments, laws, lifted, lti, switching
from .config import *  # noqa: F401,F403
from .engine import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403
from .laws import *  # noqa: F401,F403
from .lifted import *  # noqa: F401,F403
from .lti import *  # noqa: F401,F403
from .switching import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (config, engine, errors, experiments, laws, lifted, lti, switching)
    for name in module.__all__
] + ["__version__"]
