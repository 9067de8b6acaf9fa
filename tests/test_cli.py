import json
from dataclasses import replace

import pytest

import fisheq.cli
import fisheq.descend
from fisheq import InvariantError, solve_max_revenue
from fisheq.cli import generate_market, main
from fisheq.serialize import market_to_doc


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


def test_empty_instance_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"buyers": []}))
    assert main(["solve", str(path)]) == 2


def test_min_revenue_rejecting_solver_output_exits_3(ex1_path, monkeypatch, capsys):
    def broken_solve(market):
        result = solve_max_revenue(market)
        prices = list(result.equilibrium.prices)
        prices[0] *= 2
        return replace(result, equilibrium=replace(result.equilibrium, prices=prices))

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
    def broken_search(*args):
        raise InvariantError("tight-set recursion failed to shrink")

    monkeypatch.setattr(fisheq.descend, "tight_set_scale", broken_search)
    assert main(["solve", ex1_path]) == 3
    err = capsys.readouterr().err
    assert "tight-set recursion failed to shrink" in err
    assert "(phase 1, iteration 0, S [1], event None)" in err


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
