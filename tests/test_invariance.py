"""Rewritings of a branch list that describe the same network: a
placement must not move under them. Reversing a branch without tap or
phase shift, or reordering the branches, changes only the order of the
Y-bus's sums; scaling every series impedance by one factor scales each
flat-point distance by it. Each leaves the count, the cover's witness
(`ilp_buses`), the placement (`svd_buses`) and each singular vector's
bus unchanged. Splitting a branch into parallel halves is left out: it
moves IEEE-57's electrical count, because the electrical structure
links as many pairs as the file lists branches."""

import random
from dataclasses import replace

import pytest

import pmuplace as pp
from pmuplace.pipeline import RunConfig, run_structure
from conftest import BUNDLED


def placement(case, structure, jacobian):
    """The count, witness, placement and each vector's bus of one full
    run, in external ids."""
    config = RunConfig(case_path="unused", jacobian_mode=jacobian,
                       mode="full")
    sres = run_structure(case, structure, config, pp.build_ybus(case))
    ext = case.external_id
    return (sres.solution.count, [ext(b) for b in sres.solution.nodes],
            [ext(b) for b in sres.ranking.buses],
            [ext(a.bus) for a in sres.ranking.selected])


def reversed_ends(case):
    return replace(case, branches=tuple(
        replace(br, from_bus=br.to_bus, to_bus=br.from_bus)
        if br.tap_ratio == 1 and br.shift_deg == 0 else br
        for br in case.branches))


def shuffled(seed):
    def shuffle(case):
        branches = list(case.branches)
        random.Random(seed).shuffle(branches)
        return replace(case, branches=tuple(branches))
    return shuffle


def scaled(factor):
    def scale(case):
        return replace(case, branches=tuple(
            replace(br, r=br.r * factor, x=br.x * factor)
            for br in case.branches))
    return scale


# (rewriting, the (structure, operating point) runs it must not move);
# the topological structure reads no operating point. Scaling moves the
# solved point's power flow, so it is run flat only.
RUNS = [("topological", "solved"), ("electrical", "solved"),
        ("electrical", "flat")]
REWRITINGS = {
    "reversed-ends": (reversed_ends, RUNS),
    **{f"shuffle-{seed}": (shuffled(seed), RUNS) for seed in (1, 2, 3)},
    **{f"scaled-{factor}": (scaled(factor), RUNS[::2])
       for factor in (0.5, 3)},
}


@pytest.mark.parametrize("rewriting", REWRITINGS)
@pytest.mark.parametrize("name", BUNDLED)
def test_rewritten_branch_list_gives_the_same_placement(cases, name,
                                                        rewriting):
    case = cases[name]
    rewrite, runs = REWRITINGS[rewriting]
    other = rewrite(case)
    assert other.branches != case.branches
    for structure, jacobian in runs:
        assert placement(other, structure, jacobian) == \
            placement(case, structure, jacobian), (structure, jacobian)
