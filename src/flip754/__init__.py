"""Single bit flips in binary floating-point words.

Exact tools for studying what one flipped bit does to an IEEE-style
binary word: class transitions (normalized / denormalized / NaN / Inf),
exact relative errors as rationals, closed-form probabilities for a
uniform random flip, and empirical validation by exhaustive enumeration
on small formats and seeded Monte Carlo sampling on large ones.

The package API is the union of the `__all__` lists of `formats`,
`relerr`, `analytic`, `montecarlo`, `fileio` and `rationals`, each
star-imported here.  A public name is added or removed in its module's
list only.
"""

from . import analytic, fileio, formats, montecarlo, rationals, relerr
from .analytic import *  # noqa: F403
from .fileio import *  # noqa: F403
from .formats import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .rationals import *  # noqa: F403
from .relerr import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__", *formats.__all__, *relerr.__all__, *analytic.__all__,
    *montecarlo.__all__, *fileio.__all__, *rationals.__all__,
]
