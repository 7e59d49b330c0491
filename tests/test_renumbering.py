"""Bus numbering is a symmetry: a case whose buses are listed in another
order is the same network. Every structure permutes with the buses,
and every result stated in external ids is unchanged, except the exact
cover's witness (`ilp_buses`), the first optimum in file bus order, and
the electrical adjacency when the branch-count cutoff ties
(`TieAtThreshold` keeps index order by design)."""

import random
import warnings

import numpy as np
import pytest

import pmuplace as pp
from pmuplace.errors import TieAtThreshold
from pmuplace.pipeline import RunConfig, run_structure
from conftest import BUNDLED, renumbered

CONFIG = RunConfig(case_path="unused", jacobian_mode="solved", mode="full")


def run(case, structure):
    """The case's Y-bus, its full run at the solved point, and whether a
    threshold tie fired."""
    ybus = pp.build_ybus(case)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TieAtThreshold)
        sres = run_structure(case, structure, CONFIG, ybus)
    tied = any(issubclass(w.category, TieAtThreshold) for w in caught)
    return ybus, sres, tied


@pytest.mark.parametrize("structure", ["topological", "electrical"])
@pytest.mark.parametrize("name", BUNDLED)
def test_renumbered_case_gives_the_same_placement(cases, name, structure):
    case = cases[name]
    ybus, sres, tied = run(case, structure)
    # Each singular vector's bus, which `svd_buses` lists in file order.
    assigned = [case.external_id(a.bus) for a in sres.ranking.selected]
    rng = random.Random(7)
    for _ in range(5):
        other, order = renumbered(case, rng)
        assert [b.external_id for b in other.buses] == [
            case.buses[i].external_id for i in order]
        ybus2, sres2, tied2 = run(other, structure)
        at = np.ix_(order, order)
        assert np.array_equal(ybus2, ybus[at])
        if not (tied or tied2):
            assert np.array_equal(sres2.adjacency.bits,
                                  sres.adjacency.bits[at])
        if sres.distance is not None:
            e = sres.distance.e
            assert np.abs(sres2.distance.e - e[at]).max() \
                <= 1e-12 * np.abs(e).max()
        assert sres2.solution.count == sres.solution.count
        assert [other.external_id(a.bus) for a in sres2.ranking.selected] \
            == assigned
        sigma = sres.decomposition.sigma
        assert np.abs(sres2.decomposition.sigma - sigma).max() \
            <= 1e-12 * sigma[0]
