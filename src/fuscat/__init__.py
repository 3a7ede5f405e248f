"""fuscat: exact-arithmetic good/bad prime calculator for fusion categories.

Modules:
    cyclotomic  exact arithmetic in Q(zeta_n): norms, Galois action, q-integers
    rootsys     simply-laced root systems and alcove weights
    verlinde    quantum dimensions and the level classifier
    finitegroup permutation groups, character degrees, Sylow verification
    gtcat       group-theoretical (bimodule) categories, trivial cocycles
    amplitude   trivalent-graph amplitude certificates
    cli         the `fuscat` command-line front end
"""

from .cyclotomic import CycNum, CycPoly, cyclotomic_polynomial, q_integer
from .errors import InternalCheckError, PreconditionError
from .finitegroup import PermGroup, builtin_group, char_degrees
from .rootsys import RootSystem, build_root_system, enumerate_alcove
from .verlinde import PrimeVerdict, Verdict, classify_prime, qdim

__version__ = "0.1.0"

__all__ = [
    "CycNum",
    "CycPoly",
    "InternalCheckError",
    "PermGroup",
    "PreconditionError",
    "PrimeVerdict",
    "RootSystem",
    "Verdict",
    "builtin_group",
    "build_root_system",
    "char_degrees",
    "classify_prime",
    "cyclotomic_polynomial",
    "enumerate_alcove",
    "q_integer",
    "qdim",
    "__version__",
]
