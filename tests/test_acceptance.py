"""Acceptance gate: the deliverable-level checks, one per criterion.

Every check prints an `ACCEPTANCE <id>: PASS|FAIL` line (collected and
re-printed in the terminal summary by conftest) and then asserts, so a
red criterion is both visible and fails the suite.
"""

import shutil
import time
from pathlib import Path

import numpy as np
import pytest

import pmuplace as pp
from pmuplace.pipeline import RunConfig, run_batch
from conftest import BUNDLED, random_connected_adjacency
from acceptance_log import record
from oracles import brute_force_cover, reconstruction_error, verify_metric

DATA = Path(pp.__file__).parent / "data"

TOPOLOGICAL_TABLE = {"ieee9": 3, "ieee14": 4, "ieee30": 10, "ieee57": 17,
                     "ieee118": 32}
TOPOLOGICAL_INFORMATIONAL = {"ieee39": 13}
ELECTRICAL_TABLE = {"ieee9": 4, "ieee14": 7, "ieee30": 17, "ieee39": 22,
                    "ieee57": 35, "ieee118": 93}

NINE_ELEC_PLACEMENT = {2, 3, 5, 9}
FOURTEEN_ELEC_PLACEMENT = {3, 8, 10, 11, 12, 13, 14}
FOURTEEN_TOPO_PLACEMENT = {2, 4, 6, 9}
NINE_ELEC_ILP = (1, 2, 5, 9)
NINE_LAMBDA_ARGMINS = {2, 5, 9}


@pytest.fixture(scope="session")
def electrical(cases):
    """Distance matrices, cover solutions and profiles per case/mode."""
    out = {}
    for name in BUNDLED:
        case = cases[name]
        ybus = pp.build_ybus(case)
        for mode in ("solved", "flat"):
            op = (pp.solve_power_flow(case, ybus) if mode == "solved"
                  else pp.flat_point(case))
            g = pp.p_theta_jacobian(case, op, ybus)
            dist = pp.resistance_matrix(g, case.slack_index)
            adj = pp.electrical_adjacency(dist, case.m)
            sol = pp.solve_cover(pp.CoverInstance(adjacency=adj))
            out[name, mode] = {
                "g": g, "dist": dist, "adjacency": adj, "solution": sol,
                "profile": pp.average_profile(adj),
            }
    return out


def test_criterion_1_topological_table(cases):
    details = []
    ok = True
    for name, want in TOPOLOGICAL_TABLE.items():
        t0 = time.perf_counter()
        sol = pp.solve_cover(pp.CoverInstance(
            adjacency=pp.topological_adjacency(cases[name])))
        dt = time.perf_counter() - t0
        good = sol.count == want and dt < 10.0
        ok &= good
        details.append(f"{name}={sol.count}/{want} ({dt:.2f}s)")
    for name, want in TOPOLOGICAL_INFORMATIONAL.items():
        sol = pp.solve_cover(pp.CoverInstance(
            adjacency=pp.topological_adjacency(cases[name])))
        details.append(f"{name}={sol.count}/{want} (informational)")
    details.append("162-bus: unverifiable - no archived 162-bus case file "
                   "obtainable in this build environment (no network "
                   "access, not in any installed package)")
    record("1", "topological minimum counts", ok, "; ".join(details))
    assert ok


def test_criterion_2_electrical_counts(electrical):
    counts = {(n, m): electrical[n, m]["solution"].count
              for n in BUNDLED for m in ("solved", "flat")}
    reproducing = [m for m in ("solved", "flat")
                   if counts["ieee9", m] == ELECTRICAL_TABLE["ieee9"]
                   and counts["ieee14", m] == ELECTRICAL_TABLE["ieee14"]]
    details = [
        f"9-bus: solved={counts['ieee9', 'solved']} "
        f"flat={counts['ieee9', 'flat']} want {ELECTRICAL_TABLE['ieee9']}",
        f"14-bus: solved={counts['ieee14', 'solved']} "
        f"flat={counts['ieee14', 'flat']} want {ELECTRICAL_TABLE['ieee14']}",
        f"reproducing mode: {reproducing or 'neither'}",
    ]
    for name in ("ieee30", "ieee39", "ieee57", "ieee118"):
        details.append(
            f"{name}: solved={counts[name, 'solved']} "
            f"flat={counts[name, 'flat']} table={ELECTRICAL_TABLE[name]} "
            "(reported, exact match not required)")
    ok = bool(reproducing)
    record("2", "electrical minimum counts (9 and 14 exact)", ok,
           "; ".join(details))
    assert ok, "neither operating-point mode reproduces both small counts"


def _placement(matrix, p):
    d = pp.compute_svd(matrix)
    return pp.assign_buses(d, pp.rank_vectors(d, p))


def test_criterion_3a_nine_bus_electrical_placement(electrical):
    results = {}
    for mode in ("solved", "flat"):
        ranking = _placement(electrical["ieee9", mode]["dist"].e,
                             len(NINE_ELEC_PLACEMENT))
        deflected = {a.vector_index: (a.intended_bus, a.bus)
                     for a in ranking.conflicts}
        results[mode] = (set(ranking.buses), deflected)
    good_modes = [m for m, (buses, defl) in results.items()
                  if buses == NINE_ELEC_PLACEMENT
                  and defl.get(3) == (5, 3)]
    ok = bool(good_modes)
    record("3a", "9-bus electrical placement {2,3,5,9} with vector-3 "
           "deflection 5->3", ok,
           f"solved={sorted(results['solved'][0])} "
           f"conflicts={results['solved'][1]}; "
           f"flat={sorted(results['flat'][0])} "
           f"conflicts={results['flat'][1]}; "
           f"reproducing mode: {good_modes or 'neither'}")
    assert ok


def test_criterion_3b_fourteen_bus_electrical_placement(electrical):
    results = {}
    for mode in ("solved", "flat"):
        ranking = _placement(electrical["ieee14", mode]["dist"].e,
                             len(FOURTEEN_ELEC_PLACEMENT))
        results[mode] = set(ranking.buses)
    good_modes = [m for m, buses in results.items()
                  if buses == FOURTEEN_ELEC_PLACEMENT]
    ok = bool(good_modes)
    record("3b", "14-bus electrical placement {3,8,10,11,12,13,14}", ok,
           f"solved={sorted(results['solved'])}; "
           f"flat={sorted(results['flat'])}; "
           f"reproducing mode: {good_modes or 'neither'}")
    assert ok


def test_criterion_3c_fourteen_bus_topological_placement(cases):
    y = pp.build_ybus(cases["ieee14"])
    ranking = _placement(y, len(FOURTEEN_TOPO_PLACEMENT))
    ok = set(ranking.buses) == FOURTEEN_TOPO_PLACEMENT
    record("3c", "14-bus topological placement {2,4,6,9}", ok,
           f"got {sorted(ranking.buses)}")
    assert ok


def test_criterion_4_nine_bus_ilp_witness_and_lambda(electrical):
    results = {}
    for mode in ("solved", "flat"):
        entry = electrical["ieee9", mode]
        profile = entry["profile"]
        above = list(profile.above_minimum(entry["solution"].nodes))
        results[mode] = (entry["solution"].nodes, set(profile.argmins), above)
    good_modes = [
        m for m, (nodes, argmins, above) in results.items()
        if nodes == NINE_ELEC_ILP and argmins == NINE_LAMBDA_ARGMINS
        and above == [1]]
    ok = bool(good_modes)
    record("4", "9-bus electrical ILP witness {1,2,5,9} with lambda "
           "minimum exactly at {2,5,9}", ok,
           f"solved: ilp={results['solved'][0]} "
           f"argmins={sorted(results['solved'][1])}; "
           f"flat: ilp={results['flat'][0]} "
           f"argmins={sorted(results['flat'][1])}; "
           f"reproducing mode: {good_modes or 'neither'}")
    assert ok


def test_criterion_5_oracle_equivalence(cases, electrical):
    mismatches = []
    for name in ("ieee9", "ieee14"):
        topo = pp.CoverInstance(adjacency=pp.topological_adjacency(
            cases[name]))
        if pp.solve_cover(topo).count != brute_force_cover(
                topo, cases[name].n).count:
            mismatches.append(f"{name}-topological")
        elec = pp.CoverInstance(
            adjacency=electrical[name, "solved"]["adjacency"])
        if pp.solve_cover(elec).count != brute_force_cover(
                elec, cases[name].n).count:
            mismatches.append(f"{name}-electrical")
    rng = np.random.default_rng(20260808)
    for trial in range(200):
        n = int(rng.integers(3, 13))
        bits = random_connected_adjacency(rng, n)
        inst = pp.CoverInstance(adjacency=pp.BinaryAdjacency(bits))
        if pp.solve_cover(inst).count != brute_force_cover(inst, n).count:
            mismatches.append(f"random-{trial}")
    ok = not mismatches
    record("5", "exact solver equals exhaustive oracle (9/14 both "
           "structures + 200 random graphs)", ok,
           "zero mismatches" if ok else f"mismatches: {mismatches}")
    assert ok


def test_criterion_6_metric_suite(cases, electrical):
    failures = []
    for name in BUNDLED:
        case = cases[name]
        for mode in ("solved", "flat"):
            entry = electrical[name, mode]
            dist, g = entry["dist"], entry["g"]
            rep = verify_metric(dist, tol=1e-9)
            if not rep.ok:
                failures.append(f"{name}/{mode}: metric {rep}")
            alt_refs = [r for r in (2, case.n) if r != case.slack_index]
            for r in alt_refs:
                if np.abs(pp.resistance_matrix(g, r).e
                          - dist.e).max() > 1e-8:
                    failures.append(f"{name}/{mode}: reference {r}")
            sym = 0.5 * (g + g.T)
            lap = sym.copy()
            np.fill_diagonal(lap, 0.0)
            np.fill_diagonal(lap, -lap.sum(axis=1))
            lp = np.linalg.pinv(lap)
            d = np.diag(lp)
            oracle = d[:, None] + d[None, :] - lp - lp.T
            np.fill_diagonal(oracle, 0.0)
            if np.abs(oracle - dist.e).max() > 1e-8:
                failures.append(f"{name}/{mode}: pseudoinverse oracle")
    ok = not failures
    record("6", "distance metric suite (symmetry, nonnegativity, zero "
           "diagonal, triangle, reference invariance, pseudoinverse "
           "oracle)", ok, "all cases, both modes" if ok else str(failures))
    assert ok


def test_criterion_7_numerical_kernels(cases, electrical):
    failures = []
    for name in ("ieee9", "ieee14"):
        case = cases[name]
        y = pp.build_ybus(case)
        op = pp.solve_power_flow(case, y)
        g = pp.p_theta_jacobian(case, op, y)
        step = 1e-6
        worst = 0.0
        for j in range(case.n):
            up, down = op.v_ang.copy(), op.v_ang.copy()
            up[j] += step
            down[j] -= step

            def p_of(ang):
                v = op.v_mag * np.exp(1j * ang)
                return (v * np.conj(y @ v)).real

            fd = (p_of(up) - p_of(down)) / (2 * step)
            scale = np.maximum(np.abs(g[:, j]), 1e-6)
            worst = max(worst, float((np.abs(g[:, j] - fd) / scale).max()))
        if worst > 1e-4:
            failures.append(f"{name}: finite differences {worst:.2e}")

    for name in BUNDLED:
        for matrix, source in ((pp.build_ybus(cases[name]), "admittance"),
                               (electrical[name, "solved"]["dist"].e,
                                "distance")):
            d = pp.compute_svd(matrix)
            if reconstruction_error(d, matrix) > 1e-8:
                failures.append(f"{name}/{source}: reconstruction")
            n = d.n
            ortho = max(
                float(np.abs(d.u.conj().T @ d.u - np.eye(n)).max()),
                float(np.abs(d.v.conj().T @ d.v - np.eye(n)).max()))
            if ortho > 1e-10:
                failures.append(f"{name}/{source}: orthonormality {ortho:.1e}")
    ok = not failures
    record("7", "numerical kernels (finite-difference sensitivities, "
           "decomposition residuals and orthonormality)", ok,
           "within tolerance" if ok else str(failures))
    assert ok


def test_criterion_8_batch_determinism(tmp_path):
    cases_dir = tmp_path / "cases"
    cases_dir.mkdir()
    for name in ("ieee9", "ieee14"):
        shutil.copy(DATA / f"{name}.txt", cases_dir / f"{name}.txt")
    outputs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        run_batch(RunConfig(case_path=cases_dir, output_dir=out))
        outputs.append(out)
    rel_a = sorted(p.relative_to(outputs[0])
                   for p in outputs[0].rglob("*") if p.is_file())
    rel_b = sorted(p.relative_to(outputs[1])
                   for p in outputs[1].rglob("*") if p.is_file())
    identical = rel_a == rel_b and all(
        (outputs[0] / rel).read_bytes() == (outputs[1] / rel).read_bytes()
        for rel in rel_a)
    record("8", "byte-identical batch reruns", identical,
           f"{len(rel_a)} files compared")
    assert identical
