"""Property tests for the max-min fair bandwidth allocator."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Environment
from repro.sim.network import Network
from tests.sim.reference_maxmin import maxmin_rates


@st.composite
def topology_and_flows(draw):
    nlinks = draw(st.integers(min_value=1, max_value=4))
    capacities = [
        draw(st.floats(min_value=10.0, max_value=1000.0)) for _ in range(nlinks)
    ]
    nflows = draw(st.integers(min_value=1, max_value=6))
    flows = []
    for _ in range(nflows):
        path = sorted(
            draw(
                st.sets(
                    st.integers(min_value=0, max_value=nlinks - 1),
                    min_size=1,
                    max_size=nlinks,
                )
            )
        )
        size = draw(st.integers(min_value=1000, max_value=100_000))
        flows.append((path, size))
    return capacities, flows


@given(topology_and_flows())
@settings(max_examples=80, deadline=None)
def test_maxmin_feasible_and_saturating(setup):
    capacities, flows = setup
    env = Environment()
    net = Network(env)
    links = [net.add_link(f"l{i}", c) for i, c in enumerate(capacities)]
    for i, (path, size) in enumerate(flows):
        net.set_route(f"S{i}", f"D{i}", [links[j] for j in path], latency=0.0)
        net.transfer(f"S{i}", f"D{i}", size)

    rates = net.current_rates()
    assert len(rates) == len(flows)
    # Feasibility: no link carries more than its capacity.
    usage = {f"l{i}": 0.0 for i in range(len(capacities))}
    for names, rate in rates:
        assert rate > 0
        for name in names:
            usage[name] += rate
    for i, cap in enumerate(capacities):
        assert usage[f"l{i}"] <= cap * (1 + 1e-9)
    # Max-min: every flow crosses at least one saturated link (otherwise its
    # rate could be raised without hurting anyone).
    for names, _rate in rates:
        assert any(
            usage[name] >= capacities[int(name[1:])] * (1 - 1e-6)
            for name in names
        )
    # Liveness: the simulation drains all flows.
    env.run()
    assert net.active_flows == 0
    assert net.transfers_completed == len(flows)


class CheckedNetwork(Network):
    """Holds every allocation to the set-based reference, bit for bit."""

    def __init__(self, env):
        super().__init__(env)
        self.allocations = []

    def _maxmin(self):
        super()._maxmin()
        found = [flow.rate for flow in self._flows]
        assert found == maxmin_rates([flow.links for flow in self._flows])
        self.allocations.append(len(found))


#: A few capacities drawn often, so that links tie on their share.
TIED = st.sampled_from([10.0, 100.0, 100.0 / 3, 0.1 + 0.2, 12.5e6])


@st.composite
def staggered_flows(draw):
    nlinks = draw(st.integers(min_value=1, max_value=4))
    capacities = draw(st.lists(
        st.one_of(TIED, TIED, TIED, st.floats(min_value=1.0, max_value=1000.0)),
        min_size=nlinks, max_size=nlinks,
    ))
    flows = draw(st.lists(
        st.tuples(
            # a route crosses distinct links, in any order
            st.lists(
                st.integers(min_value=0, max_value=nlinks - 1),
                min_size=1, max_size=nlinks, unique=True,
            ),
            st.integers(min_value=1, max_value=50_000),
            st.just(0.0) | st.floats(min_value=0.0, max_value=200.0),
        ),
        min_size=1, max_size=8,
    ))
    return capacities, flows


@given(staggered_flows())
# Two links tie at 10/3; whichever is frozen first keeps 10/3 exactly and
# the other's flows get (10 - 10/3) / 2, one ulp less.
@example(([10.0, 10.0], [([0, 1], 900, 0.0)] + [([0], 900, 0.0)] * 2
          + [([1], 900, 0.0)] * 2))
@settings(max_examples=150, deadline=None)
def test_maxmin_rates_equal_the_set_based_reference(setup):
    """Flows start at staggered times and drain mid-run, so the allocator
    re-shares over every subset that is live at once; each allocation's
    rates ``==`` the reference's, so a tie is broken as it breaks it."""
    capacities, flows = setup
    env = Environment()
    net = CheckedNetwork(env)
    links = [net.add_link(f"l{i}", c) for i, c in enumerate(capacities)]

    def sender(env, i, start, size):
        yield env.timeout(start)
        yield net.transfer(f"S{i}", f"D{i}", size)

    for i, (path, size, start) in enumerate(flows):
        net.set_route(f"S{i}", f"D{i}", [links[j] for j in path], latency=0.0)
        env.process(sender(env, i, start, size))
    env.run()
    assert net.active_flows == 0
    assert net.transfers_completed == len(flows)
    # one allocation as each flow starts and at least one as flows drain
    assert len(net.allocations) > len(flows)
