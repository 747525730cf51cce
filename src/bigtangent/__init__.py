"""Differential geometry on the big-tangent manifold TM + T*M.

Coordinates are (x^i, y^i, z_i): base, fiber-vector and fiber-covector
blocks.  All derivatives are exact, computed by truncated Taylor jet
arithmetic over a small expression language; finite differences appear
only as test oracles.
"""

from .exprdsl import ParseError, eval_jet, fd_oracle, parse_expr
from .jets import Jet, JetDomainError
from .points import ChartPoint, sample_box

__version__ = "0.2.0"

__all__ = [
    "ChartPoint",
    "Jet",
    "JetDomainError",
    "ParseError",
    "eval_jet",
    "fd_oracle",
    "parse_expr",
    "sample_box",
    "__version__",
]
