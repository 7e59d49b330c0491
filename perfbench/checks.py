"""Independent checks of the program's outputs.

Every reference here is rebuilt from the case data without the
program's own solver: minimum counts from `scipy.optimize.milp` on the
integer program min sum(x) s.t. A x >= 1, x binary (Gou, IEEE Trans.
Power Syst. 23(3), 2008), topological adjacency from the branch list,
resistance distances from the Laplacian pseudoinverse, singular values
from `scipy.linalg`. Nothing is compared against a stored copy of an
earlier output. The program is used only for what the checks take as
given: the case reader, the admittance matrix, the operating point and
the sensitivity matrix, and, for the matrix dumps, the exact matrices
the dump must reproduce.

`grade` turns the outcomes of all passes into a count of failed
operations: an operation fails when it raised or exited non-zero,
breaks a check (in the first pass), or differs from the same operation
in the first pass. Every failure except one caused only by a known
fault also makes the run incorrect.

The power-flow check covers `solve_power_flow` at the tolerance the
runs are configured with (1e-8, the program's default); a run does not
expose its own operating point, which is checked only through the
distances derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg, optimize

import pmuplace as pp

PUBLISHED_TOPOLOGICAL = {"ieee9": 3, "ieee14": 4, "ieee30": 10,
                         "ieee39": 13, "ieee57": 17, "ieee118": 32}
# Problems caused by a program fault that shows on every input: an
# operation failing only with these counts as failed but leaves the run
# `correct`. Under numpy 2 the Y-bus dump writes each real part as
# "np.float64(...)", so the dump never parses back.
KNOWN_FAULTS = ("ybus dump does not parse: cell 'np.float64(",)
# Relative agreement required between two floating-point routes to the
# same matrix (pseudoinverse against grounded inverse, other LAPACK
# routines).
RTOL = 1e-9


def branch_adjacency(case: pp.PowerCase) -> np.ndarray:
    bits = np.eye(case.n, dtype=bool)
    for br in case.branches:
        bits[br.from_bus - 1, br.to_bus - 1] = True
        bits[br.to_bus - 1, br.from_bus - 1] = True
    return bits


def pinv_distances(conductance: np.ndarray) -> np.ndarray:
    """R_ij = L+_ii + L+_jj - 2 L+_ij on the symmetric zero-row-sum
    part L of the conductance matrix."""
    g = np.asarray(conductance, dtype=float)
    lap = 0.5 * (g + g.T)
    np.fill_diagonal(lap, 0.0)
    np.fill_diagonal(lap, -lap.sum(axis=1))
    lp = linalg.pinvh(lap)
    d = np.diag(lp)
    return d[:, None] + d[None, :] - 2.0 * lp


def closest_pairs(dist: np.ndarray, m: int) -> np.ndarray:
    """Unit diagonal plus the m closest bus pairs, ties by (i, j)."""
    n = dist.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    values = dist[iu, ju]
    chosen = np.lexsort((ju, iu, values))[:m]
    bits = np.eye(n, dtype=bool)
    bits[iu[chosen], ju[chosen]] = True
    bits[ju[chosen], iu[chosen]] = True
    return bits


def ilp_count(bits: np.ndarray) -> int:
    n = bits.shape[0]
    res = optimize.milp(
        c=np.ones(n), integrality=np.ones(n), bounds=optimize.Bounds(0, 1),
        constraints=optimize.LinearConstraint(bits.astype(float), lb=1))
    if not res.success:
        raise RuntimeError(f"ILP reference failed: {res.message}")
    return int(round(res.fun))


def covers(bits: np.ndarray, buses: list[int]) -> bool:
    """Whether the 1-based internal `buses` observe every bus."""
    if not buses:
        return False
    return bool(bits[:, np.asarray(buses) - 1].any(axis=1).all())


def pf_mismatch(case: pp.PowerCase, ybus: np.ndarray,
                op: pp.OperatingPoint) -> float:
    v = op.v_mag * np.exp(1j * op.v_ang)
    s = v * np.conj(ybus @ v)
    worst = 0.0
    for i, bus in enumerate(case.buses):
        if bus.bus_type != "slack":
            worst = max(worst, abs(bus.p_gen - bus.p_load - s[i].real))
        if bus.bus_type == "PQ":
            worst = max(worst, abs(bus.q_gen - bus.q_load - s[i].imag))
    return worst


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    scale = max(float(np.abs(b).max()), 1.0)
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= RTOL * scale))


@dataclass
class Reference:
    """Independent facts about one case at one operating point."""

    case: pp.PowerCase
    ybus: np.ndarray
    conductance: np.ndarray
    adjacency: dict[str, np.ndarray]
    count: dict[str, int]
    distance: np.ndarray
    pf_mismatch: float
    pf_tol: float

    @classmethod
    def build(cls, case_path, pf_tol: float = 1e-8) -> "Reference":
        case = pp.load_case(case_path)
        ybus = pp.build_ybus(case)
        op = pp.solve_power_flow(case, tol=pf_tol, ybus=ybus)
        conductance = pp.p_theta_jacobian(case, op, ybus=ybus)
        dist = pinv_distances(conductance)
        adjacency = {"topological": branch_adjacency(case),
                     "electrical": closest_pairs(dist, case.m)}
        return cls(case=case, ybus=ybus, conductance=conductance,
                   adjacency=adjacency,
                   count={s: ilp_count(b) for s, b in adjacency.items()},
                   distance=dist, pf_mismatch=pf_mismatch(case, ybus, op),
                   pf_tol=pf_tol)

    def internal(self, external_ids) -> list[int]:
        index = {b.external_id: b.index for b in self.case.buses}
        return [index[e] for e in external_ids]

    def placement_matrix(self, structure: str) -> np.ndarray:
        return self.ybus if structure == "topological" else self.distance

    def exact_dumps(self) -> dict[str, np.ndarray]:
        """The matrices the CLI's dumps must reproduce exactly (electrical
        structure at the solved operating point), computed by the program
        from this reference's admittance and conductance matrices."""
        dist = pp.resistance_matrix(self.conductance, self.case.slack_index)
        return {"distance": dist.e, "ybus": self.ybus,
                "adjacency": pp.electrical_adjacency(dist, self.case.m).bits}


def check_run(outcome: dict, ref: Reference,
              reports: dict | None) -> list[str]:
    """Problems in one `pipeline.run` outcome. `reports` maps each
    structure to its parsed report.json when reports were written."""
    problems = []
    name = ref.case.name
    for structure, rec in outcome["digest"].items():
        where = f"{name}/{structure}"
        bits = ref.adjacency[structure]
        want = ref.count[structure]
        if rec["count"] != want:
            problems.append(f"{where}: count {rec['count']} != ILP {want}")
        if (structure == "topological" and name in PUBLISHED_TOPOLOGICAL
                and rec["count"] != PUBLISHED_TOPOLOGICAL[name]):
            problems.append(f"{where}: count {rec['count']} != published "
                            f"{PUBLISHED_TOPOLOGICAL[name]}")
        if len(rec["cover"]) != rec["count"] or not covers(
                bits, ref.internal(rec["cover"])):
            problems.append(f"{where}: cover {rec['cover']} does not "
                            "observe every bus")
        detail = outcome["detail"].get(structure, {})
        if "svd_buses" in rec:
            problems += _check_placement(where, rec, ref, structure, detail)
        if "optima" in rec:
            problems += _check_optima(where, rec, ref, bits, want)
        if "distance" in detail and not _close(detail["distance"],
                                               ref.distance):
            problems.append(f"{where}: distances differ from the Laplacian "
                            "pseudoinverse identity")
        if structure == "electrical" and ref.pf_mismatch > ref.pf_tol:
            problems.append(f"{where}: power-flow mismatch "
                            f"{ref.pf_mismatch:.3e} > {ref.pf_tol:.1e}")
        if reports is not None:
            problems += _check_report(where, rec, reports.get(structure))
    return problems


def _check_placement(where: str, rec: dict, ref: Reference, structure: str,
                     detail: dict) -> list[str]:
    problems = []
    buses = rec["svd_buses"]
    if len(set(buses)) != len(buses) or len(buses) != rec["count"]:
        problems.append(f"{where}: svd_buses {buses} are not "
                        f"{rec['count']} distinct buses")
    matrix = ref.placement_matrix(structure)
    sigma = linalg.svdvals(matrix)
    if not _close(rec["sigma"], sigma):
        problems.append(f"{where}: singular values differ from svdvals")
    if "vector" in detail:
        # The first-placed vector must be a strongest left singular vector
        # (||A^H u|| = sigma_max; with tied copies sigma_1 ~ sigma_2, so
        # any vector of the top subspace qualifies) and must sit on its
        # largest-entry bus.
        u = detail["vector"]
        gain = float(np.linalg.norm(matrix.conj().T @ u))
        if abs(gain - sigma[0]) > RTOL * sigma[0]:
            problems.append(f"{where}: first-placed vector "
                            f"{rec['strongest'][0]} is not a strongest "
                            "singular vector")
        entries = np.abs(u)
        bus = ref.internal([rec["strongest"][1]])[0]
        if entries[bus - 1] < entries.max():
            problems.append(f"{where}: strongest vector placed at bus "
                            f"{rec['strongest'][1]}, not at its largest "
                            "entry")
    return problems


def _check_optima(where: str, rec: dict, ref: Reference, bits: np.ndarray,
                  want: int) -> list[str]:
    problems = []
    sets = [tuple(ref.internal(s)) for s in rec["optima"]]
    if not sets:
        problems.append(f"{where}: no optimum enumerated")
    for s in sets:
        if len(s) != want or not covers(bits, list(s)):
            problems.append(f"{where}: enumerated set {s} is not a "
                            f"feasible cover of size {want}")
    if any(a >= b for a, b in zip(sets, sets[1:])):
        problems.append(f"{where}: enumerated sets are not distinct and "
                        "in increasing set-lexicographic order")
    return problems


def _check_report(where: str, rec: dict, report: dict | None) -> list[str]:
    if report is None:
        return [f"{where}: no report.json written"]
    fields = {"pmu_count": rec["count"], "ilp_buses": rec["cover"],
              "svd_buses": sorted(rec.get("svd_buses", [])),
              "sigma": rec.get("sigma", [])}
    return [f"{where}: report.json {key} disagrees with the run result"
            for key, value in fields.items() if report.get(key) != value]


def check_cli(outcome: dict, ref: Reference,
              exact: dict[str, np.ndarray]) -> list[str]:
    """Problems in one `cli.main` outcome. `exact` maps each dump name to
    the matrix it must reproduce exactly."""
    problems = []
    for structure, rec in outcome["digest"].items():
        where = f"{ref.case.name}/{structure}"
        want = ref.count[structure]
        if rec.get("count") != want:
            problems.append(f"{where}: printed count {rec.get('count')} "
                            f"!= ILP {want}")
        cover = rec.get("cover", [])
        if len(cover) != want or not covers(ref.adjacency[structure],
                                            ref.internal(cover)):
            problems.append(f"{where}: printed cover does not observe "
                            "every bus")
    ids = [b.external_id for b in ref.case.buses]
    parsed = {}
    for name, dump in outcome["detail"].items():
        if isinstance(dump, str):
            problems.append(f"{ref.case.name}: {name} dump does not parse: "
                            f"{dump}")
        elif dump[0] != ids or not np.array_equal(dump[1], exact[name]):
            problems.append(f"{ref.case.name}: {name} dump does not parse "
                            "back to the exact matrix")
        else:
            parsed[name] = dump[1]
    if "distance" in parsed and not _close(parsed["distance"],
                                           ref.distance):
        problems.append(f"{ref.case.name}: distances differ from the "
                        "Laplacian pseudoinverse identity")
    if "adjacency" in parsed and not np.array_equal(
            parsed["adjacency"] != 0, ref.adjacency["electrical"]):
        problems.append(f"{ref.case.name}: adjacency is not the "
                        f"{ref.case.m} closest pairs")
    if ref.pf_mismatch > ref.pf_tol:
        problems.append(f"{ref.case.name}: power-flow mismatch "
                        f"{ref.pf_mismatch:.3e} > {ref.pf_tol:.1e}")
    return problems


def grade(passes: list[list[dict]], check) -> tuple[int, int, list[str]]:
    """Failed operations over all passes, how many of them failed for a
    reason other than a known fault, and the problems found.

    `passes[k][i]` is the outcome of operation i in pass k; an outcome
    with an "error" key raised. `check(i, outcome)` lists the problems
    of operation i's first-pass outcome. Later passes must repeat the
    first pass's digest and file hashes exactly. A raised error or a
    non-zero exit is never explained by a known fault.
    """
    problems: list[str] = []
    bad_first, unknown_first = [], []
    for i, outcome in enumerate(passes[0]):
        found = [] if "error" in outcome else check(i, outcome)
        problems += found
        bad_first.append(bool(found))
        unknown_first.append(any(not any(f in p for f in KNOWN_FAULTS)
                                 for p in found))
    failed = unexplained = 0
    for k, outcomes in enumerate(passes):
        for i, outcome in enumerate(outcomes):
            first = passes[0][i]
            if "error" in outcome:
                unexplained += 1
                problems.append(f"pass {k} op {i}: {outcome['error']}")
            elif ("error" in first or outcome["digest"] != first["digest"]
                  or outcome.get("files") != first.get("files")):
                unexplained += 1
                problems.append(f"pass {k} op {i}: output differs from "
                                "pass 0")
            elif bad_first[i]:
                unexplained += unknown_first[i]
            else:
                continue
            failed += 1
    return failed, unexplained, problems
