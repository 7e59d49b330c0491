"""Average-distance diagnostics and report emission tests."""

import json
import warnings
from fractions import Fraction

import numpy as np
import pytest

import pmuplace as pp
from pmuplace.errors import AsymmetryWarning
from pmuplace.network import BinaryAdjacency
from pmuplace.pipeline import RunConfig, run_structure


def adj(bits):
    return BinaryAdjacency(n=bits.shape[0], bits=bits)


class TestAverageProfile:
    def test_all_ones(self):
        profile = pp.average_profile(adj(np.ones((3, 3), dtype=np.int8)))
        assert profile.lam == (Fraction(3, 2),) * 3
        assert profile.argmins == (1, 2, 3)

    def test_identity(self):
        profile = pp.average_profile(adj(np.eye(4, dtype=np.int8)))
        assert profile.lam == (Fraction(1, 3),) * 4
        assert profile.lam_min == Fraction(1, 3)

    def test_exact_rational_ties(self):
        bits = np.eye(5, dtype=np.int8)
        bits[0, 1] = bits[1, 0] = 1
        profile = pp.average_profile(adj(bits))
        assert profile.argmins == (3, 4, 5)
        assert profile.lam_min == Fraction(1, 4)
        assert profile.lam[0] == Fraction(2, 4)

    def test_bounds(self, cases):
        for case in cases.values():
            profile = pp.average_profile(pp.topological_adjacency(case))
            n = case.n
            for lam in profile.lam:
                assert Fraction(1, n - 1) <= lam <= Fraction(n, n - 1)

    def test_float_emission_matches_rationals(self, cases):
        profile = pp.average_profile(
            pp.topological_adjacency(cases["ieee57"]))
        for f, frac in zip(profile.floats, profile.lam):
            assert abs(f - frac) <= 1e-12


class TestPatternCheck:
    def test_identity_trivially_at_minimum(self):
        a = adj(np.eye(3, dtype=np.int8))
        profile = pp.average_profile(a)
        sol = pp.solve_cover(pp.CoverInstance(adjacency=a))
        assert profile.above_minimum(sol.nodes) == ()

    def test_one_representative_above(self):
        # two isolated buses plus a dominated clique: the clique pick
        # sits above the minimum, everything else at it
        bits = np.eye(5, dtype=np.int8)
        for i in (2, 3, 4):
            for j in (2, 3, 4):
                bits[i, j] = 1
        a = adj(bits)
        profile = pp.average_profile(a)
        sol = pp.solve_cover(pp.CoverInstance(adjacency=a))
        above = profile.above_minimum(sol.nodes)
        assert sol.nodes == (1, 2, 3)
        assert above == (3,)
        assert len(above) <= 1

    def test_topological_14_bus_pattern_fails(self, cases):
        a = pp.topological_adjacency(cases["ieee14"])
        profile = pp.average_profile(a)
        sol = pp.solve_cover(pp.CoverInstance(adjacency=a))
        assert len(profile.above_minimum(sol.nodes)) > 1


class TestEmitReport:
    @pytest.fixture
    def artifacts(self, ieee9):
        cfg = RunConfig(case_path="unused", structure="electrical",
                        jacobian_mode="flat", mode="full")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AsymmetryWarning)
            return run_structure(ieee9, "electrical", cfg).artifacts

    def test_report_round_trips(self, artifacts, tmp_path):
        paths = pp.emit_report(artifacts, tmp_path)
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["case"] == "ieee9"
        assert payload["n"] == 9 and payload["m"] == 9
        assert payload["structure"] == "electrical"
        assert payload["jacobian_mode"] == "flat"
        assert payload["pmu_count"] == artifacts.solution.count
        assert payload["ilp_buses"] == [
            artifacts.case.external_id(b) for b in artifacts.solution.nodes]
        assert len(payload["lambda"]) == 9
        assert len(payload["sigma"]) == 9
        assert payload["lambda_min"] == min(payload["lambda"])
        assert len(payload["source_checksum"]) == 64
        assert {p.name for p in paths} == {
            "report.json", "fig_lambda.csv", "fig_sigma.csv",
            "fig_assignment.csv"}

    def test_counts_not_recomputed(self, artifacts, tmp_path):
        pp.emit_report(artifacts, tmp_path)
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["pmu_count"] == len(payload["ilp_buses"])
        assert len(payload["svd_buses"]) == payload["pmu_count"]

    def test_fig_lambda_columns(self, artifacts, tmp_path):
        pp.emit_report(artifacts, tmp_path)
        lines = (tmp_path / "fig_lambda.csv").read_text().splitlines()
        assert lines[0] == "bus,lambda,x"
        assert len(lines) == 10
        marked = [line for line in lines[1:] if line.endswith(",1")]
        assert len(marked) == artifacts.solution.count

    def test_fig_assignment_marks(self, artifacts, tmp_path):
        pp.emit_report(artifacts, tmp_path)
        lines = (tmp_path / "fig_assignment.csv").read_text().splitlines()
        header = "vector_rank,vector_index,bus,abs_entry,assigned,assignment_rank"
        assert lines[0] == header
        assigned = [line for line in lines[1:]
                    if line.split(",")[4] == "1"]
        assert len(assigned) == artifacts.solution.count

    def test_conflict_entries_reference_real_vectors(self, artifacts,
                                                     tmp_path):
        pp.emit_report(artifacts, tmp_path)
        payload = json.loads((tmp_path / "report.json").read_text())
        for conflict in payload["conflicts"]:
            assert conflict["rank"] > 1
            assert conflict["assigned_bus"] != conflict["intended_bus"]
            assert conflict["assigned_bus"] in payload["svd_buses"]
