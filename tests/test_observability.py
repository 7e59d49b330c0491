"""Physical observability of the reported monitor sets.

A PMU measures its own bus voltage and the current of every branch at
that bus, so a set observes exactly its topological closed
neighbourhood. `oracles.unobserved_count` reaches the same count from
the linear measurement model alone, as N - rank(H)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmuplace as pp
from pmuplace.cases import PQ, SLACK, Branch, Bus, PowerCase
from pmuplace.pipeline import RunConfig, run_structure
from conftest import BUNDLED, random_connected_adjacency
from oracles import unobserved_count

CONFIG = RunConfig(case_path="unused", jacobian_mode="solved", mode="full")

# Buses left unobserved at the solved point, in BUNDLED order: (structure,
# reported set) -> counts. The electrical sets meet their own adjacency,
# not the measurement model.
UNOBSERVED = {
    ("topological", "ilp_buses"): [0, 0, 0, 0, 0, 0],
    ("topological", "svd_buses"): [0, 1, 7, 4, 14, 20],
    ("electrical", "ilp_buses"): [1, 1, 3, 3, 2, 15],
    ("electrical", "svd_buses"): [3, 2, 6, 7, 8, 19],
}


def outside_neighbourhood(case, buses) -> int:
    """Buses outside the topological closed neighbourhood of `buses`."""
    bits = pp.topological_adjacency(case).bits
    return case.n - int(np.count_nonzero(
        bits[np.asarray(buses) - 1].any(axis=0)))


@pytest.mark.parametrize("structure", ["topological", "electrical"])
@pytest.mark.parametrize("name", BUNDLED)
def test_reported_sets_match_the_measurement_model(cases, name, structure):
    case = cases[name]
    sres = run_structure(case, structure, CONFIG, pp.build_ybus(case))
    sets = {"ilp_buses": sres.solution.nodes,
            "svd_buses": sres.ranking.buses}
    for label, buses in sets.items():
        count = unobserved_count(case, buses)
        assert count == outside_neighbourhood(case, buses), label
        assert count == UNOBSERVED[structure, label][BUNDLED.index(name)], \
            label


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_grids_match_the_measurement_model(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
    n = data.draw(st.integers(2, 12))
    bits = random_connected_adjacency(rng, n)
    branches = []
    for i, j in zip(*np.nonzero(np.triu(bits, k=1))):
        # Some branches are doubled, some carry an off-nominal tap and a
        # phase shift.
        for _ in range(1 + int(rng.random() < 0.2)):
            shifted = rng.random() < 0.3
            branches.append(Branch(
                int(i) + 1, int(j) + 1, r=rng.uniform(0.0, 0.1),
                x=rng.uniform(0.01, 0.5), b_charging=rng.uniform(0.0, 0.4),
                tap_ratio=rng.uniform(0.9, 1.1) if shifted else 1.0,
                shift_deg=rng.uniform(-10.0, 10.0) if shifted else 0.0))
    buses = tuple(Bus(k, k, SLACK if k == 1 else PQ)
                  for k in range(1, n + 1))
    case = PowerCase("random", 100.0, buses, tuple(branches))
    pmus = data.draw(st.lists(st.integers(1, n), min_size=1, unique=True))
    assert unobserved_count(case, pmus) == outside_neighbourhood(case, pmus)
