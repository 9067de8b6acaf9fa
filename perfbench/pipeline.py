"""One market through the pipeline a user runs, with every check the
benchmark makes on the results.

All fisheq functions are looked up on their module at call time, so a
tracer that rebinds them in the module namespaces sees these calls.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from time import perf_counter

import fisheq
import fisheq.serialize as ser

EVENT_KINDS = ("cap", "new-edge", "tight-set", "zero-price")


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _check(condition, what):
    if not condition:
        raise CheckFailed(what)


def _round_trip_equilibrium(market, equilibrium, name):
    text = json.dumps(ser.equilibrium_to_doc(equilibrium), sort_keys=True)
    back = ser.equilibrium_from_doc(json.loads(text), market)
    _check(back == equilibrium, f"{name} equilibrium changed in a serialize round trip")
    return text


def _price_bits(result):
    """Largest bit length of a committed price's numerator or denominator."""
    return max(
        (
            max(abs(p.numerator).bit_length(), p.denominator.bit_length())
            for record in result.trace
            for p in getattr(record, "prices", ())
        ),
        default=0,
    )


def run_market(doc, clock=perf_counter):
    """Run and check one market given as an instance document.

    Each output is checked as soon as it is produced, before it is handed
    to the next step, so a wrong output is reported as one here rather
    than as the next step's complaint about its input.  The markets are
    valid generator output, so an exception is a wrong output too.

    Returns a dict: ``ok``; ``error``, the first failed check or exception,
    else None; ``digest``, the sha256 of both exact equilibria; ``times``,
    per timed step, its durations on ``clock``; and ``counts`` of the
    solve's phases, events by kind and committed price bit length.
    """
    out = {"ok": False, "error": None, "digest": None, "times": {}, "counts": {}}
    try:
        _run(doc, out, clock)
        out["ok"] = True
    except CheckFailed as bad:
        out["error"] = f"wrong output: {bad}"
    except Exception as bad:  # the program failed on a valid market
        out["error"] = f"program raised {type(bad).__name__}: {bad}"
    return out


def _timed(times, step, clock, call, *args):
    start = clock()
    value = call(*args)
    times.setdefault(step, []).append(clock() - start)
    return value


def _run(doc, out, clock):
    times = out["times"]

    market = ser.market_from_doc(doc)
    again = ser.market_to_doc(market)
    back = ser.market_from_doc(json.loads(json.dumps(again, sort_keys=True)))
    _check(again == doc and back == market, "market changed in a serialize round trip")

    result = _timed(times, "solve", clock, fisheq.solve_max_revenue, market)
    high = result.equilibrium
    _check(all(r == 0 for r in result.final_surpluses), "final surpluses not all zero")
    report = _timed(times, "verify", clock, fisheq.verify, market, high)
    _check(report.ok, f"maximum-revenue endpoint fails verify: {report.violations}")
    texts = [_round_trip_equilibrium(market, high, "maximum-revenue")]

    low = _timed(times, "min_revenue", clock, fisheq.min_revenue, market, high)
    report = _timed(times, "verify", clock, fisheq.verify, market, low)
    _check(report.ok, f"minimum-revenue endpoint fails verify: {report.violations}")
    _check(
        all(lo <= hi for lo, hi in zip(low.prices, high.prices)),
        "a minimum-revenue price exceeds its maximum-revenue price",
    )
    _check(low.utilities == high.utilities, "utilities differ between the endpoints")
    texts.append(_round_trip_equilibrium(market, low, "minimum-revenue"))

    bottom = _timed(times, "lattice", clock, fisheq.meet, market, high, low)
    top = _timed(times, "lattice", clock, fisheq.join, market, high, low)
    _check(bottom.prices == low.prices, "meet does not return the minimum-revenue prices")
    _check(top.prices == high.prices, "join does not return the maximum-revenue prices")

    kinds = Counter(record.kind for record in result.trace)
    out["counts"] = {
        "descend.phases": len(result.phases),
        "descend.events": len(result.trace),
        **{f"descend.events.{kind}": kinds[kind] for kind in EVENT_KINDS},
        "exact.max_price_bits": _price_bits(result),
    }
    out["digest"] = hashlib.sha256("\n".join(texts).encode()).hexdigest()


def price_bound_bits(doc):
    """Bit length of the solver's own price bound on the normalized,
    stripped market, read from the state it starts a solve with."""
    stripped, _, _ = fisheq.strip_trivial(fisheq.normalize(ser.market_from_doc(doc)))
    return fisheq.descend.initialize(stripped).price_bound.bit_length()
