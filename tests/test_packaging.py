import os
import subprocess
import sys
from pathlib import Path

import fisheq
import fisheq.flow
import fisheq.market

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_does_not_load_numpy():
    # numpy is a test dependency only; the runtime package must not need it.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-c", "import fisheq, sys; assert 'numpy' not in sys.modules"],
        env=env,
        check=True,
    )


def test_import_does_not_load_dataclasses_or_inspect():
    # Start-up pays for every module a fresh interpreter loads; the value
    # classes are plain classes, so neither module is needed.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    check = "assert not {'dataclasses', 'inspect'} & set(sys.modules), sorted(sys.modules)"
    for module in ("fisheq", "fisheq.cli"):
        subprocess.run(
            [sys.executable, "-c", f"import {module}, sys; {check}"], env=env, check=True
        )


PUBLIC = [
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

# solver internals, importable from their modules only
INTERNAL = [
    "Flow",
    "FlowNetwork",
    "balanced_flow",
    "is_balanced",
    "max_flow",
    "residual_reach",
    "tight_set_scale",
    "NormalizedMarket",
    "active_budget_at",
    "buyer_pass",
    "equality_graph",
]


def test_public_api_is_the_users_api():
    assert sorted(fisheq.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        assert getattr(fisheq, name) is not None
    for name in INTERNAL:
        assert not hasattr(fisheq, name)
        assert hasattr(fisheq.flow, name) or hasattr(fisheq.market, name)
