import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fisheq.descend
import fisheq.flow
from fisheq import InvariantError, solve_max_revenue
from fisheq.cli import generate_market
from fisheq.flow import (
    _EMPTY_ROW,
    FlowNetwork,
    _saturate,
    balanced_flow,
    is_balanced,
    max_flow,
    residual_reach,
    tight_set_scale,
)
from oracle import (
    edge_flow,
    edges_of,
    equalize_balanced,
    flow_from_edges,
    min_cut,
    reference_balanced_flow,
    reference_cleared,
    reference_residual_reach,
    reference_saturate,
    reference_tight_set_scale,
    set_scale,
)


def ex1_initial_network():
    # Active budgets (4/5, 1) against prices (4, 4); only good 0 has edges.
    return FlowNetwork.from_edges((F(4, 5), F(1)), (F(4), F(4)), {(0, 0), (1, 0)})


def ex1_after_first_event():
    return FlowNetwork.from_edges((F(4, 5), F(1)), (F(4), F(2)), {(0, 0), (1, 0), (1, 1)})


def ex2_initial_network():
    return FlowNetwork.from_edges((F(1), F(1)), (F(2), F(2)), {(0, 0), (0, 1), (1, 1)})


def _value(flow):
    """Total money the flow carries."""
    return sum(edge_flow(flow).values(), F(0))


class TestMaxFlow:
    def test_example_initial_value(self):
        f = max_flow(ex1_initial_network())
        assert _value(f) == F(9, 5)
        assert edge_flow(f) == {(0, 0): F(4, 5), (1, 0): F(1)}

    def test_no_edges(self):
        f = max_flow(FlowNetwork.from_edges((F(1),), (F(1),), set()))
        assert _value(f) == 0

    def test_sink_bottleneck(self):
        f = max_flow(FlowNetwork.from_edges((F(1), F(1)), (F(1),), {(0, 0), (1, 0)}))
        assert _value(f) == 1

    def test_deterministic(self):
        net = ex1_after_first_event()
        assert edge_flow(max_flow(net)) == edge_flow(max_flow(net))


def test_network_capacities_converted_and_validated():
    # Fractions are kept, anything else goes through Fraction().
    net = FlowNetwork.from_edges((1, F(1, 2)), ("3/4",), {(0, 0)})
    assert all(type(c) is F for c in net.budgets + net.prices)
    assert net.budgets == (F(1), F(1, 2)) and net.prices == (F(3, 4),)
    # A negative capacity or an edge out of range is rejected.  edited
    # checks only the new capacities, the one input it does not take from
    # a checked network.
    for budgets, prices in (((-1,), (1,)), ((F(-1, 2),), (1,)), ((1,), (F(-1, 3),))):
        with pytest.raises(ValueError, match="nonnegative"):
            FlowNetwork.from_edges(budgets, prices, set())
    for edge in ((0, 1), (1, 0), (0, -1), (-1, 0)):
        with pytest.raises(ValueError, match="out of range"):
            FlowNetwork.from_edges((F(1),), (1,), {edge})
    for budgets, prices in (((F(-1), F(1)), net.prices), (net.budgets, (F(-3, 4),))):
        with pytest.raises(ValueError, match="nonnegative"):
            net.edited(budgets, prices, (), (), ())


@st.composite
def shared_denominator_networks(draw):
    """Capacities over a few denominators, as after events that scale
    several of them by one x: big denominators repeat, many capacities are
    integers and some are 0."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    shared = draw(st.lists(st.integers(2, 10**40), min_size=1, max_size=3))
    capacity = st.one_of(
        st.builds(F, st.integers(0, 10**50), st.sampled_from(shared)),
        st.integers(0, 10**20).map(F),
        st.just(F(0)),
    )
    budgets = draw(st.lists(capacity, min_size=n, max_size=n))
    prices = draw(st.lists(capacity, min_size=m, max_size=m))
    return FlowNetwork.from_edges(budgets, prices, set())


@settings(derandomize=True, max_examples=300, deadline=None)
@given(shared_denominator_networks())
@example(FlowNetwork.from_edges((F(0), F(3), F(1, 6)), (F(5, 4), F(7, 6), F(0), F(2)), set()))
def test_cleared_matches_the_reference_lcm(net):
    # One lcm and one quotient per distinct denominator clear every
    # capacity to the integers of one lcm over all n + m of them.
    assert net._cleared == reference_cleared(net)


def test_edited_network_equals_the_rebuilt_one():
    # Buyer 0 keeps only its edge to good 0, then two edges join; every
    # row stays ascending, as the constructor sorts it.
    net = FlowNetwork.from_edges((F(1),) * 3, (F(2),) * 3, {(0, 0), (0, 2), (1, 1), (2, 2)})
    edited = net.edited(net.budgets, net.prices, {0}, {0}, [(2, 1), (1, 0)])
    rebuilt = FlowNetwork.from_edges(
        net.budgets, net.prices, {(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)}
    )
    assert edited == rebuilt
    assert edited.buyer_goods == rebuilt.buyer_goods == ((0,), (0, 1), (1, 2))
    assert edited.good_buyers == rebuilt.good_buyers == ((0, 1), (1, 2), (2,))
    with pytest.raises(ValueError):
        net.edited((F(-1), F(1), F(1)), net.prices, (), (), [])


class TestMinCut:
    def test_example_initial(self):
        net = ex1_initial_network()
        source_side, sink_side = min_cut(net, max_flow(net))
        assert source_side == {"s"}
        assert ("good", 1) in sink_side

    def test_saturated_trivial(self):
        net = FlowNetwork.from_edges((F(1),), (F(1),), {(0, 0)})
        source_side, _ = min_cut(net, max_flow(net))
        assert source_side == {"s"}

    def test_sink_edge_cut(self):
        net = FlowNetwork.from_edges((F(1), F(1)), (F(1),), {(0, 0), (1, 0)})
        source_side, sink_side = min_cut(net, max_flow(net))
        assert source_side == {"s", ("buyer", 0), ("buyer", 1), ("good", 0)}
        assert sink_side == {"t"}

    def test_rejects_non_maximum_flow(self):
        net = ex1_initial_network()
        with pytest.raises(ValueError):
            min_cut(net, flow_from_edges(net, {}))

    def test_strong_duality_on_random_networks(self):
        rng = random.Random(5)
        for _ in range(60):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            net = FlowNetwork.from_edges(
                tuple(F(rng.randint(0, 8)) for _ in range(n)),
                tuple(F(rng.randint(0, 8)) for _ in range(m)),
                {(i, j) for i in range(n) for j in range(m) if rng.random() < 0.5},
            )
            f = max_flow(net)
            source_side, _ = min_cut(net, f)
            buyers_in = {i for k, i in source_side - {"s"} if k == "buyer"}
            goods_in = {j for k, j in source_side - {"s"} if k == "good"}
            for i, j in edges_of(net):  # no uncapacitated edge may cross the cut
                assert not (i in buyers_in and j not in goods_in)
            capacity = sum(
                (net.budgets[i] for i in range(n) if i not in buyers_in), F(0)
            ) + sum((net.prices[j] for j in goods_in), F(0))
            assert _value(f) == capacity


class TestResidualReach:
    def test_only_target_without_back_edges(self):
        net = ex1_after_first_event()
        f = flow_from_edges(net, {(0, 0): F(4, 5), (1, 0): F(1)})
        assert residual_reach(f, {0}) == {0}

    def test_empty_flow_reaches_targets_only(self):
        net = ex1_after_first_event()
        assert residual_reach(flow_from_edges(net, {}), {0}) == {0}

    def test_reach_through_carried_flow(self):
        net = ex1_after_first_event()
        f = flow_from_edges(net, {(0, 0): F(4, 5), (1, 0): F(1)})
        assert residual_reach(f, {1}) == {0, 1}


class TestBalancedFlow:
    def test_example_initial_surpluses(self):
        f = balanced_flow(ex1_initial_network())
        assert f.surpluses() == (F(11, 5), F(4))
        assert edge_flow(f) == {(0, 0): F(4, 5), (1, 0): F(1)}

    def test_single_pair(self):
        net = FlowNetwork.from_edges((F(1),), (F(3),), {(0, 0)})
        f = balanced_flow(net)
        assert f.surpluses() == (F(2),)

    def test_overlap_network_equalizes(self):
        # Brute force over buyer 0's split a: surpluses are (2-a, a), so
        # the norm (2-a)^2 + a^2 is minimized at a = 1.
        best = min(
            (F(k, 16) for k in range(17)),
            key=lambda a: (2 - a) ** 2 + a**2,
        )
        assert best == 1
        f = balanced_flow(ex2_initial_network())
        assert f.surpluses() == (F(1), F(1))
        assert edge_flow(f) == {(0, 0): F(1), (1, 1): F(1)}

    def test_unsaturable_sources_rejected(self):
        for budgets, prices in (
            ((F(5),), (F(1),)),
            # the root level is nonnegative; the one-good block {0} is not
            ((F(5),), (F(1), F(10))),
            # no surplus to balance, and the max-flow leaves money behind
            ((F(2),), (F(1), F(1))),
        ):
            net = FlowNetwork.from_edges(budgets, prices, {(0, 0)})
            with pytest.raises(InvariantError):
                balanced_flow(net)

    def test_components_are_refined_without_a_splitting_cut(self, monkeypatch):
        # Two components at different levels, two goods each: buyer 0
        # leaves 1 on goods 0 and 1, buyer 1 leaves 5/2 on goods 2 and 3.
        # Each component is one leaf max-flow; a root block over the whole
        # network spends a third max-flow on the cut between them.
        calls = []

        def counted(*args):
            calls.append(args)
            return _saturate(*args)

        monkeypatch.setattr(fisheq.flow, "_saturate", counted)
        net = FlowNetwork.from_edges(
            (F(2), F(1)), (F(2), F(2), F(3), F(3)), {(0, 0), (0, 1), (1, 2), (1, 3)}
        )
        assert balanced_flow(net).surpluses() == (F(1), F(1), F(5, 2), F(5, 2))
        assert len(calls) == 2

    def test_levels_with_clamped_and_split_blocks(self):
        # Three price levels: a rich dedicated good, a pair forming its own
        # block, and a cheap good nobody needs to touch.
        net = FlowNetwork.from_edges(
            (F(10), F(8)),
            (F(100), F(2), F(41), F(3)),
            {(0, 0), (1, 2), (1, 3)},
        )
        f = balanced_flow(net)
        # Peel levels: {g0} at (100-10), {g2} at (41-8), then the untouched
        # goods at their own prices.
        assert f.surpluses() == (F(90), F(2), F(33), F(3))


class TestIsBalanced:
    def test_certifies_balanced_output(self):
        assert is_balanced(balanced_flow(ex2_initial_network()))

    def test_rejects_skewed_split(self):
        net = ex2_initial_network()
        skewed = flow_from_edges(net, {(0, 1): F(1), (1, 1): F(1)})
        assert skewed.surpluses() == (F(2), F(0))
        assert not is_balanced(skewed)

    def test_rejects_non_maximum(self):
        net = ex1_initial_network()
        assert not is_balanced(flow_from_edges(net, {}))

    def test_denominator_of_the_flow_not_the_network(self):
        # Integer capacities (D = 1), flows in halves and thirds: the one
        # buyer's split must leave both goods the same surplus.
        net = FlowNetwork.from_edges((F(1),), (F(2), F(2)), {(0, 0), (0, 1)})
        halves = flow_from_edges(net, {(0, 0): F(1, 2), (0, 1): F(1, 2)})
        thirds = flow_from_edges(net, {(0, 0): F(1, 3), (0, 1): F(2, 3)})
        assert net._cleared[0] == 1 and thirds.denom == 3
        assert thirds.sources_saturated() and thirds.is_feasible()
        assert thirds.surpluses() == (F(5, 3), F(4, 3))
        assert is_balanced(halves)
        assert not is_balanced(thirds)


class TestTightSetScale:
    def test_first_tight_set_of_example(self):
        net = ex1_after_first_event()
        assert tight_set_scale(net, {0}, uncapped={1}, capped={0}) == (5, 16, {0, 1})

    def test_all_capped_marks_zero_price(self):
        net = ex1_after_first_event()
        assert tight_set_scale(net, {0}, uncapped=set(), capped={0, 1}) == (0, 1, {0, 1})

    def test_final_tight_set_of_example(self):
        net = FlowNetwork.from_edges(
            (F(1, 4), F(1)), (F(5, 4), F(5, 8)), {(0, 0), (1, 0), (1, 1)}
        )
        assert tight_set_scale(net, {0, 1}, uncapped={1}, capped={0}) == (8, 13, {0, 1})

    def test_recursion_narrows_to_subset(self):
        net = FlowNetwork.from_edges((F(1), F(1)), (F(2), F(10)), {(0, 0), (1, 1)})
        assert tight_set_scale(net, {0, 1}, uncapped={0, 1}, capped=set()) == (1, 2, {0})

    def test_negative_surplus_rejected(self):
        net = FlowNetwork.from_edges((F(3), F(3)), (F(4),), {(0, 0), (1, 0)})
        with pytest.raises(InvariantError):
            tight_set_scale(net, {0}, uncapped={0, 1}, capped=set())


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.sampled_from([20, 10**30]),
    st.integers(0, 2**32),
)
def test_tight_set_scale_equals_the_reference_brute_force(n, m, max_value, seed):
    # Every tight-set search of a solve against the enumeration of every
    # buyer set: the same scale, in lowest terms, and a witness that
    # attains it (the full set when no buyer is uncapped).  Tight sets are
    # not unique, so the witness may be any set attaining the scale.  An
    # event chosen without a search must have every tight set strictly
    # below its scale, by the same enumeration at the state it was chosen
    # in.
    calls, chosen = [], []
    search, choose = fisheq.descend.tight_set_scale, fisheq.descend.next_event

    def checked(network, S, uncapped, capped):
        num, den, witness = search(network, S, uncapped, capped)
        x = reference_tight_set_scale(network, S, uncapped, capped)
        assert (num, den) == (x.numerator, x.denominator)
        assert math.gcd(num, den) == 1
        if num:
            assert set_scale(network, S, uncapped, witness) == x
        else:
            assert witness == set(uncapped) | set(capped)
        calls.append(None)
        return num, den, witness

    def checked_event(state):
        calls.clear()
        event = choose(state)
        if not calls:
            network = state.network
            bprime = {i for j in state.S for i in network.good_buyers[j]}
            uncapped = {i for i in bprime if not state.capped[i]}
            x = reference_tight_set_scale(network, state.S, uncapped, bprime - uncapped)
            assert x < event.x
        chosen.append(event)
        return event

    fisheq.descend.tight_set_scale = checked
    fisheq.descend.next_event = checked_event
    try:
        trace = solve_max_revenue(generate_market(n, m, max_value, seed)).trace
    finally:
        fisheq.descend.tight_set_scale = search
        fisheq.descend.next_event = choose
    assert len(chosen) == len(trace)  # every committed event was checked


def _random_saturable_network(rng, density=0.55):
    n, m = rng.randint(1, 5), rng.randint(1, 5)
    budgets = [F(rng.randint(0, 10)) for _ in range(n)]
    prices = tuple(F(rng.randint(1, 12)) for _ in range(m))
    edges = {(i, j) for i in range(n) for j in range(m) if rng.random() < density}
    for i in range(n):
        if not any(e[0] == i for e in edges):
            budgets[i] = F(0)
    net = FlowNetwork.from_edges(tuple(budgets), prices, frozenset(edges))
    if not max_flow(net).sources_saturated():
        total = sum(budgets, F(0))
        net = FlowNetwork.from_edges(
            tuple(budgets), tuple(p + total for p in prices), frozenset(edges)
        )
    return net if max_flow(net).sources_saturated() else None


def _random_feasible_variant(net, flow, rng):
    """Degrade a balanced flow by rerouting along random residual paths."""
    flows = edge_flow(flow)
    for _ in range(6):
        goods = list(range(net.m))
        rng.shuffle(goods)
        moved = False
        for src in goods:
            current = flow_from_edges(net, flows)
            reachable = residual_reach(current, (src,)) - {src}
            if not reachable:
                continue
            dst = rng.choice(sorted(reachable))
            # walk one explicit path src -> ... -> dst
            path = _find_path(net, current, dst, src)
            if path is None:
                continue
            room = current.surpluses()[dst]
            bottleneck = min(
                (flows.get((path[k + 1], path[k]), F(0))
                 for k in range(0, len(path) - 1, 2)),
                default=F(0),
            )
            amount = min(room, bottleneck) * F(rng.randint(1, 3), 4)
            if amount <= 0:
                continue
            for k in range(0, len(path) - 1, 2):
                flows[(path[k + 1], path[k])] -= amount
                flows[(path[k + 1], path[k + 2])] = (
                    flows.get((path[k + 1], path[k + 2]), F(0)) + amount
                )
            moved = True
            break
        if not moved:
            break
    return flow_from_edges(net, {e: v for e, v in flows.items() if v})


def _find_path(net, flow, dst, src):
    """Residual good path src -> buyer -> good -> ... -> dst as a node list
    [good, buyer, good, ...]; arcs good->buyer need flow, buyer->good are free."""
    flows = edge_flow(flow)
    parent = {("g", src): None}
    queue = [("g", src)]
    while queue:
        kind, idx = queue.pop(0)
        if kind == "g":
            for i in net.good_buyers[idx]:
                if ("b", i) not in parent and flows.get((i, idx), 0) > 0:
                    parent[("b", i)] = (kind, idx)
                    queue.append(("b", i))
        else:
            for j in net.buyer_goods[idx]:
                if ("g", j) not in parent:
                    parent[("g", j)] = (kind, idx)
                    queue.append(("g", j))
    if ("g", dst) not in parent:
        return None
    path, node = [], ("g", dst)
    while node is not None:
        path.append(node[1])
        node = parent[node]
    path.reverse()
    return path


def _balanced_by_definition(net, flow):
    """is_balanced from its definition, one residual search per good: no
    good j with a residual path to a good k has r_j < r_k.  (A flow that
    saturates every source edge is maximum, so no augmenting-path test.)"""
    if not flow.is_feasible() or not flow.sources_saturated():
        return False
    r = flow.surpluses()
    return all(
        r[j] >= r[k] for k in range(net.m) for j in residual_reach(flow, (k,))
    )


def test_one_pass_certificate_matches_per_good_definition():
    rng = random.Random(81)
    verdicts = {True: 0, False: 0}
    done = 0
    while done < 60:
        net = _random_saturable_network(rng)
        if net is None:
            continue
        balanced = balanced_flow(net)
        for flow in (
            balanced,
            _random_feasible_variant(net, balanced, rng),
            _random_feasible_variant(net, balanced, rng),
        ):
            expected = _balanced_by_definition(net, flow)
            assert is_balanced(flow) == expected
            verdicts[expected] += 1
        done += 1
    # both verdicts occur among feasible, source-saturating flows
    assert verdicts[True] >= 60 and verdicts[False] >= 20


def test_balanced_flow_self_certifies_on_random_networks():
    rng = random.Random(77)
    done = 0
    while done < 40:
        net = _random_saturable_network(rng)
        if net is None:
            continue
        f = balanced_flow(net)
        assert is_balanced(f)
        done += 1


def test_surplus_vector_unique_vs_enumeration_oracle():
    rng = random.Random(78)
    done = 0
    while done < 40:
        net = _random_saturable_network(rng)
        if net is None:
            continue
        assert balanced_flow(net).surpluses() == equalize_balanced(net).surpluses()
        done += 1


def test_max_surplus_closure_has_uniform_surplus():
    rng = random.Random(79)
    done = 0
    while done < 40:
        net = _random_saturable_network(rng)
        if net is None:
            continue
        f = balanced_flow(net)
        r = f.surpluses()
        top = max(r)
        closure = residual_reach(f, (min(j for j in range(net.m) if r[j] == top),))
        assert all(r[j] == top for j in closure)
        done += 1


def test_norm_drop_against_degraded_feasible_flows():
    # A feasible flow whose surplus exceeds the balanced one on some good by
    # delta has squared norm at least delta^2 above the balanced norm.
    rng = random.Random(80)
    done = 0
    while done < 40:
        net = _random_saturable_network(rng)
        if net is None:
            continue
        balanced = balanced_flow(net)
        degraded = _random_feasible_variant(net, balanced, rng)
        assert degraded.is_feasible() and degraded.sources_saturated()
        r_bal, r_deg = balanced.surpluses(), degraded.surpluses()
        norm_bal = sum((v * v for v in r_bal), F(0))
        norm_deg = sum((v * v for v in r_deg), F(0))
        for j in range(net.m):
            delta = r_deg[j] - r_bal[j]
            if delta > 0:
                assert norm_bal <= norm_deg - delta * delta
        done += 1


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_rational_constructor_reproduces_kernel_flows(seed):
    # flow_from_edges clears the rationals into the integer form the
    # kernel builds directly; both must read back the same at the API.
    net = _random_saturable_network(random.Random(seed))
    assume(net is not None)
    for f in (max_flow(net), balanced_flow(net)):
        again = flow_from_edges(net, edge_flow(f))
        assert edge_flow(again) == edge_flow(f)
        assert again.surpluses() == f.surpluses()
        assert all(again.buyer_out(i) == f.buyer_out(i) for i in range(net.n))
        assert again.sources_saturated() == f.sources_saturated()
        assert again.is_feasible() == f.is_feasible()


@st.composite
def masked_networks(draw):
    """A random network and integer capacities zeroed outside a random
    subset of buyers (the seeds) and of goods, as a water-filling block or
    a tight-set test masks the live network."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1))))
    seeds = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    goods = draw(st.sets(st.integers(0, m - 1), min_size=1))
    budgets = [draw(st.integers(0, 12)) if i in seeds else 0 for i in range(n)]
    prices = [draw(st.integers(0, 12)) if j in goods else 0 for j in range(m)]
    return FlowNetwork.from_edges(budgets, prices, edges), seeds, budgets, prices


@settings(derandomize=True, max_examples=300, deadline=None)
@given(masked_networks())
def test_sweep_reproduces_reference_kernel(case):
    # The direct-edge sweep must leave exactly the flow, money sent and
    # minimum cut of augmenting every path by breadth-first search.  The
    # cut is read off the last search's marker lists, and the row shared
    # by the buyers outside the block is never written.
    _assert_matches_reference_saturate(*case)


def _assert_matches_reference_saturate(network, seeds, budgets, prices):
    """Checks ``_saturate`` against ``reference_saturate`` on one masked
    network; returns the number of paths each search ``_saturate``
    started yielded, in order."""
    started = []
    search = fisheq.flow._search

    def counted(*args):
        started.append(0)
        for end in search(*args):
            started[-1] += 1
            yield end

    fisheq.flow._search = counted
    try:
        flow, saturated, (from_good, from_buyer) = _saturate(network, seeds, budgets, prices)
    finally:
        fisheq.flow._search = search
    ref_flow, ref_fsrc, ref_cut = reference_saturate(network, seeds, budgets, prices)

    def entries(rows):
        return [[(j, v) for j, v in row.items() if v] for row in rows]

    assert entries(flow) == entries(ref_flow)
    assert [sum(row.values()) for row in flow] == ref_fsrc
    assert saturated == all(ref_fsrc[i] == budgets[i] for i in seeds)
    assert (
        {i for i, g in enumerate(from_good) if g is not None},
        {j for j, b in enumerate(from_buyer) if b is not None},
    ) == ref_cut
    assert _EMPTY_ROW == {}
    # only the last search may find no path
    assert started and 0 not in started[:-1]
    return started


@st.composite
def long_path_networks(draw):
    """A chain of buyers 0..L-1 and a last buyer L.  Buyer k < L spends
    its whole budget on its gate, good k, the lowest of its goods; its
    other edges go to the next gate and to some cheap goods (L and up).
    Buyer L reaches only gate 0, so its money gets to a cheap good with
    room only down the chain, over paths that cancel flow on the gates,
    and one search often finds several of a link's cheap goods.  A few
    random edges join."""
    links, cheap = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    n, m = links + 1, links + cheap
    gates = draw(st.lists(st.integers(1, 12), min_size=links, max_size=links))
    budgets = gates + [draw(st.integers(1, 30))]
    prices = gates + draw(st.lists(st.integers(0, 3), min_size=cheap, max_size=cheap))
    edges = {(k, k) for k in range(links)} | {(k, k + 1) for k in range(links - 1)}
    edges.add((links, 0))
    for k in range(links):
        edges |= {(k, j) for j in draw(st.sets(st.integers(links, m - 1)))}
    edges |= draw(
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)), max_size=2)
    )
    return FlowNetwork.from_edges(budgets, prices, edges), list(range(n)), budgets, prices


# buyer 1's money goes to good 1 and then good 2 through good 0 and buyer 0:
# both paths come from one search
ONE_SEARCH_TWO_PATHS = (
    FlowNetwork.from_edges((3, 5), (3, 1, 1), {(0, 0), (0, 1), (0, 2), (1, 0)}),
    [0, 1],
    [3, 5],
    [3, 1, 1],
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(long_path_networks())
@example(ONE_SEARCH_TWO_PATHS)
def test_resumed_searches_reproduce_reference_kernel(case):
    # A search resumed after a push that filled only its end good must
    # leave the flow, money sent and minimum cut of a fresh search per path.
    started = _assert_matches_reference_saturate(*case)
    if case is ONE_SEARCH_TWO_PATHS:
        assert started == [2]


@st.composite
def fractional_networks(draw):
    """A random network with fractional capacities.  Half the draws price
    the goods at a split of the budgets' total (no surplus to balance);
    many draws cannot saturate their sources, and water filling often ends
    in one-good blocks."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1))))
    budget = st.builds(F, st.integers(0, 12), st.integers(1, 4))
    budgets = draw(st.lists(budget, min_size=n, max_size=n))
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))
        total = sum(budgets, F(0))
        prices = [total * w / (sum(weights) or 1) for w in weights]
        prices[-1] += total - sum(prices, F(0))  # all weights 0: one good takes it
    else:
        price = st.builds(F, st.integers(0, 40), st.integers(1, 4))
        prices = draw(st.lists(price, min_size=m, max_size=m))
    return FlowNetwork.from_edges(budgets, prices, edges)


def _assert_matches_the_probing_reference(net):
    try:
        expected = reference_balanced_flow(net)
    except InvariantError:
        with pytest.raises(InvariantError):
            balanced_flow(net)
        return
    f = balanced_flow(net)
    assert list(edge_flow(f).items()) == list(edge_flow(expected).items())
    assert f.surpluses() == expected.surpluses()


@settings(derandomize=True, max_examples=400, deadline=None)
@given(fractional_networks())
# no surplus, saturable; no surplus, unsaturable; two one-good blocks; a
# one-good block whose second buyer has money but no edge to the good
@example(FlowNetwork.from_edges((F(1, 2), F(3, 2)), (F(3, 4), F(5, 4)), {(0, 0), (1, 0), (1, 1)}))
@example(FlowNetwork.from_edges((F(1, 2), F(3, 2)), (F(3, 2), F(1, 2)), {(0, 0), (1, 0)}))
@example(FlowNetwork.from_edges((F(1, 3), F(1, 2)), (F(7, 6), F(5)), {(0, 0), (1, 1)}))
@example(FlowNetwork.from_edges((F(1, 3), F(1, 2)), (F(7, 6),), {(0, 0)}))
# two two-good components at different levels, with interleaved indices;
# two at one level (one leaf of a whole-network root block); a component
# that splits inside; a buyer with money and no edges beside a component
@example(
    FlowNetwork.from_edges(
        (F(2), F(1)), (F(2), F(3), F(2), F(3)), {(0, 0), (0, 2), (1, 1), (1, 3)}
    )
)
@example(
    FlowNetwork.from_edges(
        (F(1), F(2)), (F(2), F(3), F(3), F(3)), {(0, 0), (0, 1), (1, 2), (1, 3)}
    )
)
@example(
    FlowNetwork.from_edges(
        (F(3), F(1, 2), F(1)),
        (F(2), F(2), F(4), F(1, 2), F(7)),
        {(0, 0), (0, 1), (1, 1), (1, 2), (2, 3), (2, 4)},
    )
)
@example(FlowNetwork.from_edges((F(1), F(1, 2)), (F(2), F(2)), {(0, 0), (0, 1)}))
def test_balanced_flow_matches_the_probing_reference(net):
    # Probing only at zero surplus, writing one-good blocks down and
    # refining each connected component on its own must leave every flow,
    # in dict order, and every rejection as they were.
    _assert_matches_the_probing_reference(net)


@st.composite
def saturable_networks(draw):
    """A random connected network of two or more goods whose sources can
    saturate: buyer 0 has an edge to every good, each buyer splits its
    budget over its edges, and each good is priced at the money it gets
    plus a surplus."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1))))
    edges |= {(0, j) for j in range(m)}
    share = st.builds(F, st.integers(0, 6), st.integers(1, 3))
    budgets, paid = [], [F(0)] * m
    for i in range(n):
        total = F(0)
        for j in sorted(j for h, j in edges if h == i):
            v = draw(share)
            paid[j] += v
            total += v
        budgets.append(total)
    surplus = st.builds(F, st.integers(0, 8), st.integers(1, 3))
    return FlowNetwork.from_edges(budgets, [p + draw(surplus) for p in paid], edges)


@st.composite
def network_unions(draw):
    """Two or three saturable connected networks and at most one network
    of ``fractional_networks`` side by side, their buyers and goods
    shuffled together."""
    parts = draw(st.lists(saturable_networks(), min_size=2, max_size=3))
    parts += draw(st.lists(fractional_networks(), max_size=1))
    n, m = sum(net.n for net in parts), sum(net.m for net in parts)
    buyer_at, good_at = draw(st.permutations(range(n))), draw(st.permutations(range(m)))
    budgets, prices, edges = [None] * n, [None] * m, set()
    i0 = j0 = 0
    for net in parts:
        for i, b in enumerate(net.budgets):
            budgets[buyer_at[i0 + i]] = b
        for j, p in enumerate(net.prices):
            prices[good_at[j0 + j]] = p
        edges |= {(buyer_at[i0 + i], good_at[j0 + j]) for i, j in edges_of(net)}
        i0, j0 = i0 + net.n, j0 + net.m
    return FlowNetwork.from_edges(budgets, prices, edges)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(network_unions())
def test_balanced_flow_matches_the_probing_reference_on_unions(net):
    _assert_matches_the_probing_reference(net)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.one_of(fractional_networks(), saturable_networks()))
def test_residual_reach_matches_the_reference_fixpoint(net):
    # The stack walk reads a buyer's predecessors off the keys of its flow
    # row; the reference follows the residual arcs of the rational flow.
    flows = [max_flow(net)]
    try:
        flows.append(balanced_flow(net))
    except InvariantError:  # the sources cannot saturate
        pass
    for f in flows:
        for size in range(1, net.m + 1):
            for targets in itertools.combinations(range(net.m), size):
                expected = reference_residual_reach(net, f, targets)
                assert residual_reach(f, targets) == expected


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
def test_residual_reach_is_the_same_for_every_balanced_flow(seed):
    # S, the residual closure of a balanced flow, does not depend on which
    # balanced flow it is read from (see the residual_reach docstring).
    # Besides the oracle's, the balanced flow of the network with buyers
    # and goods relabelled, read back, which on dense networks often
    # differs from the first.
    rng = random.Random(seed)
    net = _random_saturable_network(rng, density=0.8)
    assume(net is not None)
    buyers, goods = rng.sample(range(net.n), net.n), rng.sample(range(net.m), net.m)
    relabelled = balanced_flow(
        FlowNetwork.from_edges(
            [net.budgets[i] for i in buyers],
            [net.prices[j] for j in goods],
            {(buyers.index(i), goods.index(j)) for i, j in edges_of(net)},
        )
    )
    flows = (
        balanced_flow(net),
        equalize_balanced(net),
        flow_from_edges(
            net,
            {(buyers[i], goods[j]): v for (i, j), v in edge_flow(relabelled).items()},
        ),
    )
    for size in range(1, net.m + 1):
        for targets in itertools.combinations(range(net.m), size):
            assert len({residual_reach(f, targets) for f in flows}) == 1
