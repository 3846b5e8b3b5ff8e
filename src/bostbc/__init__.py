"""Block-orthogonal space-time block codes.

Constructions of linear STBCs whose QR factor splits into block-orthogonal
form, detection and verification of that structure on random channels, and
a depth-first sphere decoder that exploits it through metric memoization.

The package root re-exports every name its layer modules list in
``__all__``; those lists are the public API.
"""

from . import codes, decoder, linalg, sim, structure
from .codes import *
from .decoder import *
from .linalg import *
from .sim import *
from .structure import *

__all__ = list(dict.fromkeys(
    name for layer in (codes, decoder, linalg, sim, structure)
    for name in layer.__all__))

__version__ = "0.1.0"
