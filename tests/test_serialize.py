import pytest

from fisheq import FormatError, solve_max_revenue
from fisheq.serialize import (
    equilibrium_from_doc,
    equilibrium_to_doc,
    market_from_doc,
    market_to_doc,
    trace_from_ndjson,
    trace_to_ndjson,
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


def test_trace_round_trip(capped_market):
    trace = solve_max_revenue(capped_market).trace
    text = trace_to_ndjson(trace)
    assert trace_from_ndjson(text) == trace


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
