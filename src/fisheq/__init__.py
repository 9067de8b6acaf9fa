"""Exact equilibrium computation for Fisher markets with budget-additive
(capped linear) utilities."""

from .descend import EventRecord, SolveResult, solve_max_revenue
from .errors import FormatError, InvalidMarketError, InvariantError
from .exact import INF, format_rational, parse_rational
from .flow import (
    Flow,
    FlowNetwork,
    balanced_flow,
    is_balanced,
    max_flow,
    residual_reach,
    tight_set_scale,
)
from .lattice import PricePartition, join, meet, partition
from .market import (
    Market,
    NormalizedMarket,
    active_budget_at,
    buyer_pass,
    capped_utility,
    equality_graph,
    normalize,
    strip_trivial,
)
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
    "Flow",
    "FlowNetwork",
    "FormatError",
    "InvalidMarketError",
    "InvariantError",
    "Market",
    "NormalizedMarket",
    "PricePartition",
    "SolveResult",
    "VerificationReport",
    "active_budget_at",
    "balanced_flow",
    "buyer_pass",
    "capped_utility",
    "equality_graph",
    "equilibrium_from_allocation",
    "format_rational",
    "is_balanced",
    "join",
    "max_flow",
    "meet",
    "min_revenue",
    "normalize",
    "parse_rational",
    "partition",
    "residual_reach",
    "solve_max_revenue",
    "strip_trivial",
    "tight_set_scale",
    "verify",
    "verify_allocation",
]
