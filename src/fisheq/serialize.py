"""JSON (de)serialization for instances and equilibria, and the trace writer.

Rationals travel as lowest-terms "p/q" strings (or plain integers); floats
are rejected.  Unbounded caps are the string "inf".
"""

from __future__ import annotations

import json

from .errors import FormatError
from .exact import format_rational, parse_rational
from .market import Market
from .verify import _check_dimensions, verify_allocation


def _json_list(value, name):
    if not isinstance(value, list):
        raise FormatError(f"{name} must be a JSON list, not {type(value).__name__}")
    return value


def market_to_doc(market):
    return {
        "buyers": [
            {
                "budget": format_rational(market.budgets[i]),
                "cap": "inf" if market.caps[i] is None else format_rational(market.caps[i]),
                "utilities": [format_rational(u) for u in market.utilities[i]],
            }
            for i in range(market.n)
        ]
    }


def market_from_doc(doc):
    if not isinstance(doc, dict) or "buyers" not in doc:
        raise FormatError("instance document must contain a 'buyers' list")
    buyers = doc["buyers"]
    if not isinstance(buyers, list) or not buyers:
        raise FormatError("instance needs at least one buyer")
    budgets, caps, utilities = [], [], []
    for entry in buyers:
        if not isinstance(entry, dict):
            raise FormatError("buyer entries must be objects")
        try:
            budgets.append(parse_rational(entry["budget"]))
            cap = entry["cap"]
            caps.append(None if cap == "inf" else parse_rational(cap))
            row = _json_list(entry["utilities"], "buyer utilities")
            utilities.append(tuple(map(parse_rational, row)))
        except KeyError as missing:
            raise FormatError(f"buyer entry missing {missing}") from None
    lengths = {len(row) for row in utilities}
    if len(lengths) != 1:
        raise FormatError("all utility rows must have the same length")
    try:
        return Market(tuple(budgets), tuple(caps), tuple(utilities))
    except ValueError as bad:
        raise FormatError(str(bad)) from None


def equilibrium_to_doc(equilibrium):
    return {
        "prices": [format_rational(p) for p in equilibrium.prices],
        "allocation": [
            [format_rational(x) for x in row] for row in equilibrium.allocation
        ],
        "utilities": [format_rational(u) for u in equilibrium.utilities],
        "capped": list(equilibrium.capped),
        "revenue": format_rational(equilibrium.revenue),
    }


def equilibrium_from_doc(doc, market):
    """The record of an equilibrium document, built by one
    ``verify_allocation`` walk on ``market``; a malformed document, one of
    the wrong dimensions or one whose stated fields disagree with its
    prices and allocation raises ``FormatError``.  The record need not be
    an equilibrium."""
    return _checked_from_doc(doc, market)[1]


def _checked_from_doc(doc, market):
    """(report, equilibrium): ``equilibrium_from_doc``'s record and the
    report of the walk that built it, the one ``verify`` gives."""
    if not isinstance(doc, dict) or "prices" not in doc or "allocation" not in doc:
        raise FormatError("equilibrium document needs 'prices' and 'allocation'")
    prices = tuple(parse_rational(p) for p in _json_list(doc["prices"], "prices"))
    allocation = tuple(
        tuple(parse_rational(x) for x in _json_list(row, "allocation row"))
        for row in _json_list(doc["allocation"], "allocation")
    )
    try:
        _check_dimensions(market, prices, allocation)
    except ValueError as bad:
        raise FormatError(str(bad)) from None
    report, equilibrium, _ = verify_allocation(market, prices, allocation)
    if "utilities" in doc:
        stated = tuple(parse_rational(u) for u in _json_list(doc["utilities"], "utilities"))
        if stated != equilibrium.utilities:
            raise FormatError("stated utilities disagree with the allocation")
    if "capped" in doc:
        stated = tuple(_json_list(doc["capped"], "capped"))
        if not all(type(c) is bool for c in stated):
            raise FormatError("capped flags must be JSON booleans")
        if stated != equilibrium.capped:
            raise FormatError("stated capped flags disagree with the allocation")
    if "revenue" in doc and parse_rational(doc["revenue"]) != equilibrium.revenue:
        raise FormatError("stated revenue disagrees with the allocation")
    return report, equilibrium


def record_to_doc(record):
    return {
        "phase": record.phase,
        "iteration": record.iteration,
        "event": record.kind,
        "x": format_rational(record.x),
        "buyers": list(record.buyers),
        "goods": list(record.goods),
        "scaled_buyers": list(record.scaled_buyers),
        "prices": [format_rational(p) for p in record.prices],
        "active_budgets": [format_rational(a) for a in record.active_budgets],
        "surpluses": [format_rational(r) for r in record.surpluses],
    }


def trace_to_ndjson(trace):
    return "".join(json.dumps(record_to_doc(r), sort_keys=True) + "\n" for r in trace)
