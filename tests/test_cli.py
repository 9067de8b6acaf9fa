import copy
import errno
import json
import os
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fisheq.cli
import fisheq.descend
from fisheq import min_revenue, solve_max_revenue
from fisheq.cli import generate_market, main
from fisheq.serialize import (
    equilibrium_from_doc,
    equilibrium_to_doc,
    market_from_doc,
    market_to_doc,
)
from oracle import reference_verify
from test_descend import _fail_on_call
from test_records import replaced


@pytest.fixture
def ex1_path(tmp_path, capped_market):
    path = tmp_path / "ex1.json"
    path.write_text(json.dumps(market_to_doc(capped_market)))
    return str(path)


@pytest.fixture
def ex2_path(tmp_path, overlap_market):
    path = tmp_path / "ex2.json"
    path.write_text(json.dumps(market_to_doc(overlap_market)))
    return str(path)


def test_solve_max_revenue(ex1_path, capsys):
    assert main(["solve", ex1_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["prices"] == ["10/13", "5/13"]
    assert doc["allocation"] == [["1/5", "0"], ["4/5", "1"]]


def test_solve_min_revenue(ex2_path, capsys):
    assert main(["solve", ex2_path, "--objective", "min-revenue"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["prices"] == ["0", "1"]
    assert doc["allocation"] == [["1", "0"], ["0", "1"]]


def test_solve_writes_trace(ex1_path, tmp_path, capsys):
    trace_path = tmp_path / "trace.ndjson"
    assert main(["solve", ex1_path, "--trace", str(trace_path)]) == 0
    capsys.readouterr()
    lines = [json.loads(l) for l in trace_path.read_text().splitlines()]
    assert [l["event"] for l in lines] == ["new-edge", "tight-set"]
    assert {"phase", "iteration", "event", "x", "prices", "surpluses"} <= set(lines[0])


def test_unwritable_trace_exits_2_before_solving(ex1_path, tmp_path, monkeypatch, capsys):
    # It used to solve, then die with a FileNotFoundError traceback and exit 1.
    def no_solve(market):
        raise AssertionError("solved before the trace path was checked")

    monkeypatch.setattr(fisheq.cli, "solve_max_revenue", no_solve)
    missing = tmp_path / "no" / "such" / "dir" / "t.ndjson"
    assert main(["solve", ex1_path, "--trace", str(missing)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot write")
    assert not missing.parent.exists()


FULL = os.strerror(errno.ENOSPC)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_trace_to_a_full_device_exits_2(ex1_path, capsys):
    # The trace opens, and the write fails; it used to exit 1 with a traceback.
    assert main(["solve", ex1_path, "--trace", "/dev/full"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cannot write /dev/full: {FULL}\n"


class FullStdout:
    """A stdout on a full disk: ``write`` fails, or with ``buffered`` only
    the flush that would empty its buffer does."""

    def __init__(self, buffered=False):
        self.buffered = buffered

    def write(self, text):
        if not self.buffered:
            raise OSError(errno.ENOSPC, FULL)
        return len(text)

    def flush(self):
        if self.buffered:
            raise OSError(errno.ENOSPC, FULL)


def _assert_full_stdout_exits_2(argv, monkeypatch, capsys, buffered=False):
    # A failed output write used to exit 1, the failed-verification code,
    # with an OSError traceback.
    monkeypatch.setattr(sys, "stdout", FullStdout(buffered))
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: cannot write stdout: {FULL}\n"


def test_solve_to_a_full_stdout_exits_2(ex1_path, monkeypatch, capsys):
    _assert_full_stdout_exits_2(["solve", ex1_path], monkeypatch, capsys)


def test_solve_flushes_stdout_before_returning(ex1_path, monkeypatch, capsys):
    _assert_full_stdout_exits_2(["solve", ex1_path], monkeypatch, capsys, buffered=True)


def test_verify_to_a_full_stdout_exits_2(ex1_path, tmp_path, capped_market, monkeypatch, capsys):
    eq_path = tmp_path / "eq.json"
    eq = solve_max_revenue(capped_market).equilibrium
    eq_path.write_text(json.dumps(equilibrium_to_doc(eq)))
    argv = ["verify", ex1_path, "--equilibrium", str(eq_path)]
    _assert_full_stdout_exits_2(argv, monkeypatch, capsys)


def test_generate_to_a_full_stdout_exits_2(monkeypatch, capsys):
    argv = ["generate", "--buyers", "2", "--goods", "2", "--max-value", "5"]
    _assert_full_stdout_exits_2(argv, monkeypatch, capsys)


def test_empty_instance_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"buyers": []}))
    assert main(["solve", str(path)]) == 2


def test_min_revenue_rejecting_solver_output_exits_3(ex1_path, monkeypatch, capsys):
    def broken_solve(market):
        result = solve_max_revenue(market)
        prices = list(result.equilibrium.prices)
        prices[0] *= 2
        return replaced(result, equilibrium=replaced(result.equilibrium, prices=prices))

    monkeypatch.setattr(fisheq.cli, "solve_max_revenue", broken_solve)
    assert main(["solve", ex1_path, "--objective", "min-revenue"]) == 3
    assert "internal invariant failure" in capsys.readouterr().err


def test_solver_internal_value_error_exits_3(ex1_path, monkeypatch, capsys):
    def broken_solve(market):
        raise ValueError("flow on non-edge (0, 1)")

    monkeypatch.setattr(fisheq.cli, "solve_max_revenue", broken_solve)
    assert main(["solve", ex1_path]) == 3
    assert "internal invariant failure" in capsys.readouterr().err


def test_solver_invariant_failure_prints_replay_state(ex1_path, monkeypatch, capsys):
    # The second event search fails: phase 1 has committed one new edge,
    # which grew S from {1} to {0, 1}, and no event is pending.
    monkeypatch.setattr(fisheq.descend, "next_event", _fail_on_call(fisheq.descend.next_event, 2))
    assert main(["solve", ex1_path]) == 3
    err = capsys.readouterr().err
    assert "internal invariant failure: injected failure" in err
    assert "(phase 1, iteration 1, S [0, 1], event None)" in err


@pytest.fixture
def ex1_eq_path(tmp_path, capped_market):
    path = tmp_path / "ex1_eq.json"
    eq = solve_max_revenue(capped_market).equilibrium
    path.write_text(json.dumps(equilibrium_to_doc(eq)))
    return str(path)


@pytest.mark.parametrize(
    "error", [KeyError, ZeroDivisionError, IndexError, TypeError, RecursionError]
)
@pytest.mark.parametrize("name", ["solve_max_revenue", "min_revenue", "verify"])
def test_any_error_after_the_input_is_read_exits_3(
    name, error, ex1_path, ex1_eq_path, monkeypatch, capsys
):
    # Only a ValueError used to reach exit 3; these escaped main as exit 1,
    # the failed-verification code, with a traceback.
    def broken(*args):
        raise error(7)

    monkeypatch.setattr(fisheq.cli, name, broken)
    argv = {
        "solve_max_revenue": ["solve", ex1_path],
        "min_revenue": ["solve", ex1_path, "--objective", "min-revenue"],
        "verify": ["verify", ex1_path, "--equilibrium", ex1_eq_path],
    }[name]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"internal invariant failure: {error.__name__}: {error(7)}\n"


def test_any_error_inside_the_descent_prints_replay_state(ex1_path, monkeypatch, capsys):
    def broken_next_event(state):
        raise KeyError(7)

    monkeypatch.setattr(fisheq.descend, "next_event", broken_next_event)
    assert main(["solve", ex1_path]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal invariant failure: KeyError: 7")
    assert err.endswith("(phase 1, iteration 0, S [1], event None)\n")


def test_a_library_caller_sees_the_descent_error_type(capped_market, monkeypatch):
    def broken_next_event(state):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(fisheq.descend, "next_event", broken_next_event)
    with pytest.raises(ZeroDivisionError) as caught:
        solve_max_revenue(capped_market)
    assert (caught.value.phase, caught.value.iteration) == (1, 0)
    assert (caught.value.S, caught.value.event) == ((1,), None)


NESTED = "[" * 100_000 + "]" * 100_000


def test_nested_instance_exits_2(tmp_path, capsys):
    # json.load used to raise RecursionError: exit 1 with a traceback.
    path = tmp_path / "nested.json"
    path.write_text(NESTED)
    assert main(["solve", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot read {path}")


def test_nested_equilibrium_exits_2(ex1_path, tmp_path, capsys):
    path = tmp_path / "nested_eq.json"
    path.write_text(NESTED)
    assert main(["verify", ex1_path, "--equilibrium", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot read {path}")


def test_non_utf8_instance_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"buyers": "\u00e9"}'.encode("latin-1"))
    assert main(["solve", str(path)]) == 2
    assert capsys.readouterr().out == ""


def test_all_zero_utilities_exit_2(tmp_path, capsys):
    path = tmp_path / "zero.json"
    buyers = [{"budget": "1", "cap": "inf", "utilities": ["0", "0"]}] * 2
    path.write_text(json.dumps({"buyers": buyers}))
    assert main(["solve", str(path)]) == 2
    assert "empty after preprocessing" in capsys.readouterr().err


def test_verify_accepts_solver_output(ex1_path, tmp_path, capsys):
    assert main(["solve", ex1_path]) == 0
    eq_path = tmp_path / "eq.json"
    eq_path.write_text(capsys.readouterr().out)
    assert main(["verify", ex1_path, "--equilibrium", str(eq_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == []


def test_verify_flags_immodest_allocation(ex1_path, tmp_path, capsys):
    eq_path = tmp_path / "linear.json"
    eq_path.write_text(
        json.dumps({"prices": ["3", "1"], "allocation": [["1", "0"], ["0", "1"]]})
    )
    assert main(["verify", ex1_path, "--equilibrium", str(eq_path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["is_modest"]
    assert any(v[0] == "modest" for v in report["violations"])


def test_verify_dimension_mismatch_exits_2(ex1_path, tmp_path, capsys):
    eq_path = tmp_path / "bad.json"
    eq_path.write_text(json.dumps({"prices": ["1"], "allocation": [["1"]]}))
    assert main(["verify", ex1_path, "--equilibrium", str(eq_path)]) == 2


def test_verifier_value_error_exits_3(ex1_path, tmp_path, monkeypatch, capsys):
    # The equilibrium file is well formed, so a ValueError out of verify is
    # the verifier's own fault, not bad input.
    assert main(["solve", ex1_path]) == 0
    eq_path = tmp_path / "eq.json"
    eq_path.write_text(capsys.readouterr().out)

    def broken_verify(market, equilibrium):
        raise ValueError("allocation and prices dimensionally inconsistent with market")

    monkeypatch.setattr(fisheq.cli, "verify", broken_verify)
    assert main(["verify", ex1_path, "--equilibrium", str(eq_path)]) == 3
    assert "internal invariant failure" in capsys.readouterr().err


def test_prices_beyond_the_default_digit_limit(tmp_path, capsys):
    # A price of the equilibrium is 5,997 digits over 4,498, past the limit
    # of 4,300 that int <-> str conversion enforces by default since Python
    # 3.10.7 and 3.11; ``main`` leaves that limit as it is.
    path = tmp_path / "big.json"
    path.write_text(json.dumps(market_to_doc(generate_market(3, 3, 10**1500, 1))))
    assert main(["solve", str(path)]) == 0
    eq_path = tmp_path / "eq.json"
    eq_path.write_text(capsys.readouterr().out)
    assert main(["verify", str(path), "--equilibrium", str(eq_path)]) == 0
    assert json.loads(capsys.readouterr().out)["violations"] == []


def test_max_value_past_the_digit_limit_leaves_the_limit_alone(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert main(["generate", "--buyers", "2", "--goods", "2",
                 "--max-value", "1" + "0" * 5000, "--seed", "1"]) == 0
    market = market_from_doc(json.loads(capsys.readouterr().out))
    assert max(u for row in market.utilities for u in row) > 10**4300
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


@pytest.mark.parametrize("text", ["5.0", "1e3", "", "five"])
def test_max_value_not_an_integer_exits_2(text, capsys):
    with pytest.raises(SystemExit) as stop:
        main(["generate", "--buyers", "2", "--goods", "2", "--max-value", text])
    assert stop.value.code == 2
    assert "invalid int value" in capsys.readouterr().err


def test_non_list_json_fields_exit_2(ex1_path, tmp_path, capsys):
    # Both used to end in a TypeError traceback and exit 1.
    market_path = tmp_path / "scalar_utilities.json"
    market_path.write_text(
        json.dumps({"buyers": [{"budget": "1", "cap": "inf", "utilities": 5}]})
    )
    assert main(["solve", str(market_path)]) == 2
    assert "must be a JSON list" in capsys.readouterr().err
    assert main(["solve", ex1_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["capped"] = 3
    eq_path = tmp_path / "scalar_capped.json"
    eq_path.write_text(json.dumps(doc))
    assert main(["verify", ex1_path, "--equilibrium", str(eq_path)]) == 2
    assert "must be a JSON list" in capsys.readouterr().err


def test_non_boolean_capped_flags_exit_2(ex1_path, tmp_path, capsys):
    # [1, 0] used to be read as (True, False), the flags the allocation
    # gives, and verify accepted the file.
    assert main(["solve", ex1_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["capped"] == [True, False]
    doc["capped"] = [1, 0]
    eq_path = tmp_path / "int_capped.json"
    eq_path.write_text(json.dumps(doc))
    assert main(["verify", ex1_path, "--equilibrium", str(eq_path)]) == 2
    assert "JSON booleans" in capsys.readouterr().err


def test_generate_round_trips_through_solve(tmp_path, capsys):
    assert main(["generate", "--buyers", "2", "--goods", "2",
                 "--max-value", "10", "--seed", "1"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "gen.json"
    path.write_text(text)
    assert main(["solve", str(path)]) == 0
    capsys.readouterr()


def test_generate_deterministic(capsys):
    assert main(["generate", "--buyers", "3", "--goods", "4",
                 "--max-value", "9", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["generate", "--buyers", "3", "--goods", "4",
                 "--max-value", "9", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first


def test_generate_linear_flag(capsys):
    assert main(["generate", "--buyers", "2", "--goods", "2",
                 "--max-value", "5", "--seed", "3", "--linear"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(b["cap"] == "inf" for b in doc["buyers"])


def test_generate_invalid_parameters(capsys):
    assert main(["generate", "--buyers", "0", "--goods", "2",
                 "--max-value", "5"]) == 2


def test_generator_markets_are_well_posed():
    for seed in range(10):
        market = generate_market(3, 4, 8, seed)
        assert all(any(u > 0 for u in row) for row in market.utilities)
        for j in range(market.m):
            assert any(market.utilities[i][j] > 0 for i in range(market.n))


# Values for a corrupted document, some of them valid rationals.  Each key
# of RAW_VALUES stands for a JSON text that ``json.dumps`` cannot write: a
# number past the int <-> str digit limit (Python 3.10.7 and 3.11 on), and
# lists nested past the parser's recursion limit.
RAW_VALUES = {
    "<huge literal>": "1" + "0" * 5000,
    "<deep list>": "[" * 100_000 + "]" * 100_000,
}
ODD_VALUES = [
    "0", "1/2", "3", " 2 ", "-1", "1/0", "nan", "NaN", "inf", "-inf", "", "1/2/3", "1.5",
    "x", "1" + "0" * 5000, 10**40, 7, 0.5, 1e308, -0.0, float("nan"), None, True,
    [], ["1"], [[]], {}, {"budget": "1"}, *RAW_VALUES,
]


@st.composite
def corrupted(draw, doc):
    """``doc`` after 1-3 mutations: a value replaced by an odd one, deleted,
    or replaced by a copy of a sibling (a duplicated list entry, or a
    duplicated key whose later value wins).  Each mutation walks down from
    the root to the value it changes, and stops at the root 1 time in 10
    and at each value below it 1 time in 3."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        parent, node, stop = None, doc, 9
        while isinstance(node, (dict, list)) and node and draw(st.integers(0, stop)):
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            parent, node, stop = node, node[key], 2
        odd = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        if parent is None:
            doc = odd
            continue
        action = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if action == "replace":
            parent[key] = odd
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(node))
        else:
            parent[key] = copy.deepcopy(parent[draw(st.sampled_from(list(parent)))])
    return doc


def _json_text(doc):
    """``doc`` as JSON, with each key of RAW_VALUES replaced by its text."""
    text = json.dumps(doc)
    for key, raw in RAW_VALUES.items():
        text = text.replace(json.dumps(key), raw)
    return text


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.data())
def test_corrupted_documents_exit_0_1_or_2(tmp_path, capsys, data):
    # A corrupted instance or equilibrium file is bad input or a valid one:
    # solve and verify exit 0, 1 or 2, never 3, and no exception escapes.
    # verify exits 0 only when the files parse to a market and an
    # equilibrium that the reference verifier accepts.
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    market = generate_market(n, m, 20, data.draw(st.integers(0, 99)))
    high = solve_max_revenue(market).equilibrium
    equilibrium = data.draw(st.sampled_from([high, min_revenue(market, high)]))
    docs = [market_to_doc(market), equilibrium_to_doc(equilibrium)]
    target = data.draw(st.integers(0, 1))
    docs[target] = data.draw(corrupted(docs[target]))
    texts = [_json_text(doc) for doc in docs]
    instance, answer = tmp_path / "instance.json", tmp_path / "equilibrium.json"
    instance.write_text(texts[0])
    answer.write_text(texts[1])

    assert main(["solve", str(instance)]) in (0, 2)
    code = main(["verify", str(instance), "--equilibrium", str(answer)])
    assert code in (0, 1, 2)
    capsys.readouterr()
    if code == 0:
        parsed = market_from_doc(json.loads(texts[0]))
        assert reference_verify(parsed, equilibrium_from_doc(json.loads(texts[1]), parsed)).ok
