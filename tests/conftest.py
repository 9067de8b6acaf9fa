from fractions import Fraction as F

import pytest

from fisheq import Market


@pytest.fixture
def capped_market():
    """Two buyers, two goods; buyer 0 capped at 1.

    Max-revenue equilibrium: p = (10/13, 5/13), x = [[1/5, 0], [4/5, 1]].
    """
    return Market(
        budgets=(F(3), F(1)),
        caps=(F(1), None),
        utilities=((F(5), F(1)), (F(2), F(1))),
    )


@pytest.fixture
def linear_market():
    """Same numbers with no caps; equilibrium p = (3, 1), x_00 = x_11 = 1."""
    return Market(
        budgets=(F(3), F(1)),
        caps=(None, None),
        utilities=((F(5), F(1)), (F(2), F(1))),
    )


@pytest.fixture
def overlap_market():
    """Buyer 0 (capped at 1) values both goods, buyer 1 only good 1.

    Max revenue p = (1, 1); minimum revenue p = (0, 1), same allocation.
    """
    return Market(
        budgets=(F(1), F(1)),
        caps=(F(1), None),
        utilities=((F(1), F(1)), (F(0), F(1))),
    )


@pytest.fixture
def twin_market():
    """Two identical capped buyers; every uniform p in [0, 5] is an
    equilibrium price vector with the half-half allocation."""
    return Market(
        budgets=(F(5), F(5)),
        caps=(F(1), F(1)),
        utilities=((F(1), F(1)), (F(1), F(1))),
    )


@pytest.fixture
def buyer_passes(monkeypatch):
    """A list that gets one entry per ``fisheq.market.buyer_pass`` call,
    made through any fisheq module that imported it."""
    import sys

    from fisheq import market

    calls = []
    original = market.buyer_pass

    def counted(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "fisheq" and getattr(module, "buyer_pass", None) is original:
            monkeypatch.setattr(module, "buyer_pass", counted)
    return calls


@pytest.fixture
def walks(monkeypatch):
    """A list that gets the market of each ``fisheq.verify._walk`` call: one
    per check of a (prices, allocation), by ``verify`` or
    ``verify_allocation``."""
    import sys

    module = sys.modules["fisheq.verify"]  # ``fisheq.verify`` is the function
    calls = []
    original = module._walk

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(module, "_walk", counted)
    return calls
