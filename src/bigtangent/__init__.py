"""Differential geometry on the big-tangent manifold TM + T*M.

Coordinates are (x^i, y^i, z_i): base, fiber-vector and fiber-covector
blocks.  All derivatives are exact, computed by truncated Taylor jet
arithmetic over a small expression language (``parse_expr``, then
``f.jet(point, order)``, which returns the jet: its coefficient array in
the ``JetSpace`` ``jet_space(3m, order)``); finite differences appear
only in the test suite, as oracles.
"""

from .exprdsl import ParseError, parse_expr
from .jets import JetDomainError
from .points import ChartPoint, sample_box

__version__ = "0.4.0"

__all__ = [
    "ChartPoint",
    "JetDomainError",
    "ParseError",
    "parse_expr",
    "sample_box",
    "__version__",
]
