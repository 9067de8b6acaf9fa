import json
import sys

import pytest

from fisheq import FormatError, solve_max_revenue
from fisheq.cli import generate_market, main
from fisheq.exact import format_rational
from fisheq.serialize import (
    equilibrium_from_doc,
    equilibrium_to_doc,
    market_from_doc,
    market_to_doc,
)


def test_market_round_trip(capped_market):
    doc = market_to_doc(capped_market)
    assert doc["buyers"][0]["cap"] == "1"
    assert doc["buyers"][1]["cap"] == "inf"
    assert market_from_doc(doc) == capped_market


def test_equilibrium_round_trip(capped_market):
    eq = solve_max_revenue(capped_market).equilibrium
    doc = equilibrium_to_doc(eq)
    assert doc["prices"] == ["10/13", "5/13"]
    assert doc["revenue"] == "15/13"
    assert equilibrium_from_doc(doc, capped_market) == eq


def test_library_round_trip_past_the_int_str_digit_limit():
    # A price of this equilibrium is 5,997 digits over 4,498, past the limit
    # of 4,300 that int <-> str conversion enforces by default since Python
    # 3.10.7 and 3.11.  The library writes and reads it without lifting the
    # interpreter's limit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    market = generate_market(3, 3, 10**1500, 1)
    eq = solve_max_revenue(market).equilibrium
    doc = equilibrium_to_doc(eq)
    assert max(len(part) for p in doc["prices"] for part in p.split("/")) > 4300
    assert equilibrium_from_doc(json.loads(json.dumps(doc)), market) == eq
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_trace_ndjson_fields(capped_market, tmp_path, capsys):
    # The event log `fisheq solve --trace` writes: one JSON line per
    # committed event, in order, carrying the event's own fields.
    market_path, trace_path = tmp_path / "market.json", tmp_path / "trace.ndjson"
    market_path.write_text(json.dumps(market_to_doc(capped_market)))
    assert main(["solve", str(market_path), "--trace", str(trace_path)]) == 0
    capsys.readouterr()
    lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
    trace = solve_max_revenue(capped_market).trace
    assert len(lines) == len(trace) == 2
    for line, record in zip(lines, trace):
        assert line["event"] == record.kind
        assert line["x"] == format_rational(record.x)
        assert line["buyers"] == list(record.buyers)
        assert line["goods"] == list(record.goods)
        assert (line["phase"], line["iteration"]) == (record.phase, record.iteration)


def test_metadata_mismatch_rejected(capped_market):
    eq = solve_max_revenue(capped_market).equilibrium
    doc = equilibrium_to_doc(eq)
    doc["utilities"][0] = "2"
    with pytest.raises(FormatError):
        equilibrium_from_doc(doc, capped_market)


def test_floats_rejected_in_instances():
    doc = {"buyers": [{"budget": "1.5", "cap": "inf", "utilities": ["1"]}]}
    with pytest.raises(FormatError):
        market_from_doc(doc)


def test_ragged_rows_rejected():
    doc = {
        "buyers": [
            {"budget": "1", "cap": "inf", "utilities": ["1", "2"]},
            {"budget": "1", "cap": "inf", "utilities": ["1"]},
        ]
    }
    with pytest.raises(FormatError):
        market_from_doc(doc)


def test_empty_buyers_rejected():
    with pytest.raises(FormatError):
        market_from_doc({"buyers": []})


@pytest.mark.parametrize("utilities", [5, "12", {"0": "1"}, None])
def test_non_list_utilities_rejected(utilities):
    # "12" used to be read as the utilities (1, 2), and 5 raised TypeError.
    doc = {"buyers": [{"budget": "1", "cap": "inf", "utilities": utilities}]}
    with pytest.raises(FormatError, match="must be a JSON list"):
        market_from_doc(doc)


@pytest.mark.parametrize(
    "field, value",
    [
        ("prices", "01"),
        ("prices", 3),
        ("allocation", "0110"),
        ("allocation", ["10", "01"]),
        ("utilities", 7),
        ("utilities", "1"),
        ("capped", 3),
        ("capped", "10"),
    ],
)
def test_non_list_equilibrium_fields_rejected(capped_market, field, value):
    doc = equilibrium_to_doc(solve_max_revenue(capped_market).equilibrium)
    doc[field] = value
    with pytest.raises(FormatError, match="must be a JSON list"):
        equilibrium_from_doc(doc, capped_market)


@pytest.mark.parametrize(
    "flags",
    [[1, False], ["false", False], [True, 0], [True, []], [True, None], [[0], []]],
)
def test_non_boolean_capped_flags_rejected(capped_market, flags):
    # Each list used to be read through bool() as the (True, False) the
    # allocation gives, and accepted.
    doc = equilibrium_to_doc(solve_max_revenue(capped_market).equilibrium)
    assert doc["capped"] == [True, False]
    doc["capped"] = flags
    with pytest.raises(FormatError, match="JSON booleans"):
        equilibrium_from_doc(doc, capped_market)
