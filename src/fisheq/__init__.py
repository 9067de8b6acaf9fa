"""Exact equilibrium computation for Fisher markets with budget-additive
(capped linear) utilities.

The names exported here are the package's API: the market model, the
maximum- and minimum-revenue solvers, the verifier, the lattice
operations, exact number formatting and the errors they raise.  The flow
layer (``fisheq.flow``), the buyer-pass helpers of ``fisheq.market`` and
the state functions of ``fisheq.descend`` are importable from their
modules, with no compatibility promise.
"""

from .descend import EventRecord, SolveResult, solve_max_revenue
from .errors import FormatError, InvalidMarketError, InvariantError
from .exact import INF, format_rational, parse_rational
from .lattice import PricePartition, join, meet, partition
from .market import Market, capped_utility, normalize, strip_trivial
from .minrev import min_revenue
from .verify import (
    Equilibrium,
    VerificationReport,
    equilibrium_from_allocation,
    verify,
    verify_allocation,
)

__all__ = [
    "INF",
    "Equilibrium",
    "EventRecord",
    "FormatError",
    "InvalidMarketError",
    "InvariantError",
    "Market",
    "PricePartition",
    "SolveResult",
    "VerificationReport",
    "capped_utility",
    "equilibrium_from_allocation",
    "format_rational",
    "join",
    "meet",
    "min_revenue",
    "normalize",
    "parse_rational",
    "partition",
    "solve_max_revenue",
    "strip_trivial",
    "verify",
    "verify_allocation",
]
