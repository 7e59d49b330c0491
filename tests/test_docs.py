"""The README against the program: its flag list and defaults, its
exit-code table and its library example."""

import ast
import contextlib
import dataclasses
import inspect
import io
import re
from pathlib import Path

from pmuplace import cases, cli, errors
from pmuplace.pipeline import RunConfig, StructureResult
from pmuplace.powerflow import solve_power_flow

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
FLAGS = README.split("\nFlags:", 1)[1].split("\n\n", 1)[0]


def test_flags_paragraph_lists_every_long_option():
    documented = set(re.findall(r"--[a-z][a-z-]*", FLAGS))
    options = {opt for action in cli.build_parser()._actions
               for opt in action.option_strings
               if opt.startswith("--") and opt != "--help"}
    assert documented == options


# "`--jacobian {solved,flat}` (default solved)" and "`--mode full` (the
# default)".
def test_flags_paragraph_defaults_match_run_config():
    claims = re.findall(r"`(--[a-z-]+) ([^`]+)`\s+\((?:default ([^)]+)|the "
                        r"default)\)", FLAGS)
    dests = {opt: action.dest for action in cli.build_parser()._actions
             for opt in action.option_strings}
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    assert {flag for flag, _, _ in claims} == {"--structure", "--jacobian",
                                               "--mode"}
    for flag, value, default in claims:
        expected = defaults[dests[flag]]
        assert type(expected)(default or value) == expected, flag


def test_structure_result_fields_are_documented():
    section = README.split("## Library use", 1)[1]
    block = section.split("Its fields:\n\n", 1)[1].split("\n\n", 1)[0]
    documented = re.findall(r"^\* `(\w+)` - ", block, re.M)
    assert documented == [f.name for f in dataclasses.fields(StructureResult)]


# The CSV bundle paragraph names the files and keys the reader takes and
# the two header rows it checks.
def test_csv_bundle_paragraph_matches_the_reader():
    section = README.split("## Input formats", 1)[1].split("\n## ", 1)[0]
    para = section.split("* **CSV bundle**", 1)[1].split("\n\n", 1)[0]
    para = " ".join(para.split())
    files = re.findall(r"`(\w+\.(?:toml|csv))`", para)
    assert sorted(set(files)) == sorted(cases._BUNDLE_FILES.values())
    keys = re.search(r"`case\.toml` \(([^)]*)\)", para).group(1)
    assert tuple(re.findall(r"`(\w+)`", keys)) == cases._CASE_KEYS
    assert re.findall(r"`(\w+(?:,\w+)+)`", para) == [cases._BUS_HEADER,
                                                     cases._BRANCH_HEADER]


# A run uses the power flow's own limits; the README names them.
def test_power_flow_limits_match_solve_power_flow():
    section = README.split("## Library use", 1)[1]
    tol, max_iter = re.search(r"default tolerance \((\S+)\s+p\.u\.\) and "
                              r"iteration\s+limit \((\d+)\)", section).groups()
    params = inspect.signature(solve_power_flow).parameters
    assert (float(tol), int(max_iter)) == (params["tol"].default,
                                          params["max_iter"].default)


def test_exit_code_table_lists_every_code():
    section = README.split("### Exit codes", 1)[1].split("\n\n", 2)[1]
    documented = {int(code)
                  for code in re.findall(r"^\| (\d+) \|", section, re.M)}
    raised = {cls.exit_code for _, cls in inspect.getmembers(
        errors, inspect.isclass) if issubclass(cls, errors.PmuPlaceError)}
    assert documented == {0, 1, 2, 3} | raised


def test_library_example_runs():
    section = README.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(block, "README.md", "exec"), {})
    buses = ast.literal_eval(buf.getvalue().strip())
    assert buses and all(1 <= b <= 14 for b in buses)
    assert len(set(buses)) == len(buses)
