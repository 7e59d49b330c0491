"""Network case model and file readers.

Two input formats are supported:

* IEEE common data format (fixed-width text, 1973 column layout) with
  BUS DATA / BRANCH DATA sections terminated by ``-999`` sentinels.
* A CSV fallback of three tables, per-unit on ``mva_base`` with angles
  in degrees: the case table of ``name = ...`` and ``mva_base = ...``
  lines, each key at most once, then the bus and branch tables, each a
  header row (`_BUS_HEADER`, `_BRANCH_HEADER`) and one row per record.
  A bundle (`load_case` on a directory) holds each table as a plain
  file, ``case.toml``, ``buses.csv`` and ``branches.csv``, with no
  ``[section]`` line. A document (`parse_csv_fallback`) is one text in
  which the headers ``[case]``, ``[buses]`` and ``[branches]`` each
  open their table once::

      [case]
      name = mycase
      mva_base = 100.0

      [buses]
      id,type,vmag,vang_deg,pload,qload,pgen,qgen,gs,bs
      ...

      [branches]
      from,to,r,x,b,tap,shift_deg
      ...

  A case-table value may be enclosed in one pair of double quotes,
  which the reader removes; any other quote is part of the value.
  In both forms blank lines and ``#`` comment lines are skipped, and
  any other line that does not fit (an unknown or repeated header or
  key, an empty or blank name, a row with the wrong number of columns)
  is a `MalformedRecord` at its file and line.

External bus numbers are remapped to contiguous internal indices
1..N; each `Bus` keeps its own. Angles stay in degrees, as both formats
state them (`Bus.v_ang_deg`, `Branch.shift_deg`); the Y-bus converts
the phase shift where it uses it.

A `PowerCase` checks the model's rules when it is made, by a reader,
by hand or by `dataclasses.replace`, and nothing else checks them; a
`Bus` or `Branch` states its own faults but checks nothing. A reader
only builds the records; it names a faulty branch's file line and ids
in the case's error.
"""

from __future__ import annotations

import codecs
import hashlib
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    CaseError,
    DisconnectedNetwork,
    DuplicateBusId,
    DuplicateSlack,
    InvalidBranch,
    MalformedRecord,
    MissingSection,
    MissingSlack,
    UnknownBusReference,
)

PQ = "PQ"
PV = "PV"
SLACK = "slack"

_BUS_TYPES = (PQ, PV, SLACK)


@dataclass(frozen=True)
class Bus:
    """One electrical bus, all quantities per-unit on the system base.

    `index` is the contiguous internal id, the bus's 1-based position
    in `PowerCase.buses`; `external_id` is the number that appeared in
    the source file. `v_ang_deg` is the stated voltage angle in degrees.
    """

    index: int
    external_id: int
    bus_type: str
    v_mag: float = 1.0
    v_ang_deg: float = 0.0
    p_load: float = 0.0
    q_load: float = 0.0
    p_gen: float = 0.0
    q_gen: float = 0.0
    shunt_g: float = 0.0
    shunt_b: float = 0.0

    @property
    def fault(self) -> str | None:
        """Why no power flow can hold this bus, or None."""
        if self.bus_type not in _BUS_TYPES:
            return f"unknown bus type {self.bus_type!r}"
        non_finite = _non_finite(self, _BUS_VALUES)
        return (f"non-finite {non_finite}" if non_finite else
                f"regulated bus with non-positive voltage {self.v_mag}"
                if self.bus_type in (PV, SLACK) and not self.v_mag > 0 else
                None)


@dataclass(frozen=True)
class Branch:
    """Series branch (line or transformer) in the standard pi model.

    `from_bus`/`to_bus` are internal indices; the tap sits on the from
    side. `b_charging` is the total line-charging susceptance and
    `shift_deg` is the phase shift in degrees.
    """

    from_bus: int
    to_bus: int
    r: float
    x: float
    b_charging: float = 0.0
    tap_ratio: float = 1.0
    shift_deg: float = 0.0

    @property
    def fault(self) -> str | None:
        """What the model refuses in this branch, or None; an
        `InvalidBranch` message gives it after the branch's ends."""
        non_finite = _non_finite(self, _BRANCH_VALUES)
        return ("is a self-loop" if self.from_bus == self.to_bus else
                f"has a non-finite {non_finite}" if non_finite else
                f"has negative series reactance {self.x}; the distance "
                "construction needs nonnegative reactances" if self.x < 0 else
                "has zero impedance" if self.r == 0 and self.x == 0 else
                f"has negative tap ratio {self.tap_ratio}; a phase shift "
                "belongs in shift_deg" if self.tap_ratio < 0 else None)


# The numeric fields of each record, which the readers read with
# `_finite`.
_BUS_VALUES = ("v_mag", "v_ang_deg", "p_load", "q_load", "p_gen", "q_gen",
               "shunt_g", "shunt_b")
_BRANCH_VALUES = ("r", "x", "b_charging", "tap_ratio", "shift_deg")


def _non_finite(record, names) -> str | None:
    """"<name> <value>" for the first of the fields `names` of `record`
    that is nan or infinite, or None."""
    for name in names:
        if not math.isfinite(value := getattr(record, name)):
            return f"{name} {value}"
    return None


def _integer(value) -> bool:
    # A bool would read as bus 0 or 1; numpy integers are fine. A plain
    # int skips the ABC check, which would triple a case's checking time.
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


@dataclass(frozen=True)
class PowerCase:
    name: str
    mva_base: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    source_checksum: str = ""
    # Derived from `buses` when the case is made; a value passed is
    # replaced.
    external_ids: dict[int, int] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        # The model's rules, in the readers' order: no stage checks.
        name, n = self.name, self.n
        ids: dict[int, int] = {}
        seen: set[int] = set()
        slacks = 0
        for k, bus in enumerate(self.buses, start=1):
            if not _integer(bus.index) or bus.index != k:
                raise CaseError(f"{name}: buses[{k - 1}] has index "
                                f"{bus.index}, not its position {k}")
            if not _integer(bus.external_id):
                raise CaseError(f"{name}: buses[{k - 1}] has external id "
                                f"{bus.external_id!r}, not an integer")
            if bus.external_id in seen:
                raise DuplicateBusId(f"{name}: bus {bus.external_id} "
                                     "appears twice")
            if bus.fault:
                raise CaseError(f"{name}: bus {bus.external_id}: "
                                f"{bus.fault}")
            ids[k] = bus.external_id
            seen.add(bus.external_id)
            slacks += bus.bus_type == SLACK
        object.__setattr__(self, "external_ids", ids)
        if n < 2:
            raise MissingSection(f"{name}: a case needs at least 2 buses, "
                                 f"got {n}")
        if slacks > 1:
            raise DuplicateSlack(f"{name}: {slacks} slack buses, expected 1")
        if slacks == 0:
            raise MissingSlack(f"{name}: no slack bus")
        for k, br in enumerate(self.branches):
            for end in (br.from_bus, br.to_bus):
                if not (_integer(end) and 1 <= end <= n):
                    raise _at(k, UnknownBusReference(
                        f"{name}: branches[{k}] references bus index "
                        f"{end}, outside 1..{n}"))
            if br.fault:
                raise _at(k, InvalidBranch(
                    f"{name}: branch {ids[br.from_bus]}-{ids[br.to_bus]} "
                    f"{br.fault}"))
        if not self.branches:
            raise MissingSection(f"{name}: a case needs at least 1 branch")
        if not _connected(n, self.branches):
            raise DisconnectedNetwork(f"{name}: branch graph is not connected")

    @property
    def n(self) -> int:
        return len(self.buses)

    @property
    def m(self) -> int:
        return len(self.branches)

    def external_id(self, internal: int) -> int:
        if not _integer(internal):
            raise TypeError(f"internal bus index {internal!r} is not an "
                            "integer")
        if not 1 <= internal <= self.n:
            raise IndexError(f"internal bus index {internal} is outside "
                             f"1..{self.n}")
        return int(self.buses[internal - 1].external_id)

    @property
    def slack_index(self) -> int:
        return next(bus.index for bus in self.buses if bus.bus_type == SLACK)


def _at(k: int, error: CaseError) -> CaseError:
    """`error`, marked with the position `k` of the branch it names, so
    that a reader can name the branch's file line."""
    error.branch = k
    return error


def _assemble(name: str, mva_base: float, bus_rows, branch_rows,
              checksum: str) -> PowerCase:
    """The case built from per-unit records in file order.

    A bus row is ``(external id, Bus fields)``, the fields after
    `index` and `external_id`. A branch row is ``(where, (from id,
    to id), Branch fields)``, the fields after the two ends, where
    `where` ("line 7", "branches.csv line 2") locates the record in
    error messages. External ids are remapped to 1..N in bus order, and
    an id that names no bus to 0, which the case refuses as a branch
    end. The case checks the records; a fault of branch k is raised
    again named by its row's `where` and the file's bus ids.
    """
    buses = tuple(Bus(k, ext, *fields)
                  for k, (ext, fields) in enumerate(bus_rows, start=1))
    ext_to_int = {bus.external_id: bus.index for bus in buses}
    try:
        return PowerCase(name, mva_base, buses, tuple(
            Branch(ext_to_int.get(a, 0), ext_to_int.get(b, 0), *fields)
            for _, (a, b), fields in branch_rows), checksum)
    except (UnknownBusReference, InvalidBranch) as exc:
        where, ends, _ = branch_rows[exc.branch]
        unknown = [end for end in ends if end not in ext_to_int]
        detail = (f"branch references unknown bus {unknown[0]}" if unknown
                  else str(exc).removeprefix(f"{name}: "))
        raise type(exc)(f"{name}: {where}: {detail}") from None


def _connected(n: int, branches: tuple[Branch, ...]) -> bool:
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for br in branches:
        adj[br.from_bus].append(br.to_bus)
        adj[br.to_bus].append(br.from_bus)
    seen = {1}
    stack = [1]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def _checksum(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# --- IEEE common data format -------------------------------------------------

def _slice(line: str, start: int, end: int) -> str:
    # Archived files are inconsistently padded; short lines read as blank.
    return line[start:end].strip()


def _finite(text: str) -> float:
    """`float` that also rejects nan and inf, which no case quantity
    may take."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _num(line: str, start: int, end: int, line_no: int, kind=_finite,
         blank=0):
    text = _slice(line, start, end)
    if not text:
        return kind(blank)
    try:
        return kind(text)
    except ValueError as exc:
        raise MalformedRecord(line_no, f"columns {start + 1}-{end}: "
                              f"{text!r} is not a finite number") from exc


_CDF_TYPE_MAP = {0: PQ, 1: PQ, 2: PV, 3: SLACK}


def parse_cdf(text: str, name: str | None = None) -> PowerCase:
    """Parse IEEE common-data-format text into a validated PowerCase."""
    lines = text.splitlines()
    if not lines:
        raise MissingSection("empty case file")

    title = lines[0]
    mva_base = _num(title, 31, 37, 1, blank=100.0)
    # Every load and generation is divided by the base, so a negative
    # one would flip the sign of every injection and a zero one
    # divide by zero.
    if mva_base <= 0:
        raise MalformedRecord(1, f"columns 32-37: MVA base {mva_base!r} "
                              f"is {'negative' if mva_base < 0 else 'zero'}")
    case_name = name or _slice(title, 45, 73) or "case"

    bus_rows: list[tuple[int, tuple]] = []
    branch_rows: list[tuple[str, tuple[int, int], tuple]] = []
    section = None

    for line_no, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if not stripped:
            continue
        upper = stripped.upper()
        if upper.startswith("BUS DATA"):
            section = "bus"
            continue
        if upper.startswith("BRANCH DATA"):
            section = "branch"
            continue
        # -999 / -99 section terminators, and the sections not read.
        if stripped.startswith("-9") or upper.startswith(
                ("LOSS ZONES", "INTERCHANGE DATA", "TIE LINES")):
            section = None
            continue
        if section == "bus":
            ext = _num(line, 0, 4, line_no, int)
            code = _num(line, 24, 26, line_no, int)
            fields = (
                _CDF_TYPE_MAP.get(code),
                _num(line, 27, 33, line_no, blank=1.0),
                _num(line, 33, 40, line_no),
                _num(line, 40, 49, line_no) / mva_base,
                _num(line, 49, 59, line_no) / mva_base,
                _num(line, 59, 67, line_no) / mva_base,
                _num(line, 67, 75, line_no) / mva_base,
                _num(line, 106, 114, line_no),
                _num(line, 114, 122, line_no))
            if fields[0] is None:
                raise MalformedRecord(line_no, f"bus {ext}: unknown type "
                                      f"code {code}")
            bus_rows.append((ext, fields))
        elif section == "branch":
            branch_rows.append((f"line {line_no}", (
                _num(line, 0, 4, line_no, int),
                _num(line, 5, 9, line_no, int)), (
                _num(line, 19, 29, line_no),
                _num(line, 29, 40, line_no),
                _num(line, 40, 50, line_no),
                _num(line, 76, 82, line_no) or 1.0,
                _num(line, 83, 90, line_no))))

    if not bus_rows:
        raise MissingSection(f"{case_name}: no BUS DATA section")
    if not branch_rows:
        raise MissingSection(f"{case_name}: no BRANCH DATA section")
    return _assemble(case_name, mva_base, bus_rows, branch_rows,
                     _checksum(text))


# --- CSV fallback ------------------------------------------------------------

_BUS_HEADER = "id,type,vmag,vang_deg,pload,qload,pgen,qgen,gs,bs"
_BRANCH_HEADER = "from,to,r,x,b,tap,shift_deg"
_CSV_TYPE_MAP = {"PQ": PQ, "PV": PV, "slack": SLACK}
# Each table of the CSV fallback and the bundle file that holds it.
_BUNDLE_FILES = {"case": "case.toml", "buses": "buses.csv",
                 "branches": "branches.csv"}
_CASE_KEYS = ("name", "mva_base")


def _rows(text: str) -> list[tuple[int, str]]:
    """The numbered non-blank, non-comment lines of `text`, stripped."""
    return [(line_no, line)
            for line_no, raw in enumerate(text.splitlines(), start=1)
            if (line := raw.strip()) and not line.startswith("#")]


def _csv_sections(text: str) -> dict[str, list[tuple[int, str]]]:
    """The rows of each table of a CSV document; a header outside the
    grammar is a `MalformedRecord` at its line."""
    sections: dict[str, list[tuple[int, str]]] = {}
    for line_no, line in _rows(text):
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _BUNDLE_FILES:
                raise MalformedRecord(line_no, f"section [{section}] is "
                                      "unknown")
            if section in sections:
                raise MalformedRecord(line_no, f"section [{section}] is "
                                      "given twice")
            sections[section] = []
        elif not sections:
            raise MalformedRecord(line_no, "content before the first section")
        else:
            sections[section].append((line_no, line))
    return sections


def parse_csv_fallback(text: str) -> PowerCase:
    """Parse a CSV fallback document (the grammar is in the module
    docstring).

    Semantics match `parse_cdf`: external ids are remapped to 1..N.
    Unlike the CDF (which carries MW/MVAr), the CSV tables are already
    per-unit on ``mva_base``; angles are degrees.
    """
    return _parse_csv_sections(_csv_sections(text), {}, _checksum(text),
                               "case")


def _parse_csv_sections(sections: dict[str, list[tuple[int, str]]],
                        sources: dict[str, str], checksum: str,
                        default_name: str) -> PowerCase:
    """The case in `sections`, read table by table and line by line;
    `sources` names the file each came from, and `default_name` is the
    case's name where the case table states none."""

    def bad(section, line_no, detail):
        return MalformedRecord(line_no, detail, sources.get(section, ""))

    for required in _BUNDLE_FILES:
        if required not in sections or not sections[required]:
            raise MissingSection(f"CSV bundle is missing the {required} table")

    stated = {}
    for line_no, line in sections["case"]:
        if "=" not in line:
            raise bad("case", line_no, f"expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if len(value) > 1 and value[0] == value[-1] == '"':
            value = value[1:-1]  # one enclosing pair, as the writer quotes
        if key not in _CASE_KEYS:
            raise bad("case", line_no, f"key {key!r} is unknown")
        if key in stated:
            raise bad("case", line_no, f"key {key!r} is given twice")
        if key == "name":
            if not value.strip():
                raise bad("case", line_no, "name is empty")
            stated[key] = value
            continue
        try:
            stated[key] = _finite(value)
        except ValueError as exc:
            raise bad("case", line_no, f"mva_base {value!r} is not "
                      "a finite number") from exc
        if stated[key] < 0:
            raise bad("case", line_no, f"mva_base {value!r} is negative")

    def table(section, header, kind, record):
        """The records of a row table, each row counted and converted by
        `record(where, cells)` as it is read."""
        (line_no, head), *rows = sections[section]
        if head.replace(" ", "") != header:
            raise bad(section, line_no, f"expected header {header!r}")
        n_cols = header.count(",") + 1
        records = []
        for line_no, line in rows:
            cells = [c.strip() for c in line.split(",")]
            if len(cells) != n_cols:
                raise bad(section, line_no, f"expected {n_cols} columns, "
                          f"got {len(cells)}")
            try:
                records.append(record(
                    f"{sources.get(section, '')} line {line_no}".lstrip(),
                    cells))
            except (ValueError, KeyError) as exc:
                raise bad(section, line_no,
                          f"bad {kind} record {cells}") from exc
        return records

    # A row's `where` ("line 14", "branches.csv line 4") locates a
    # branch's fault; a tap of zero reads as 1.
    return _assemble(
        stated.get("name", default_name), stated.get("mva_base", 100.0),
        table("buses", _BUS_HEADER, "bus", lambda _, cells: (
            int(cells[0]),
            (_CSV_TYPE_MAP[cells[1]], *map(_finite, cells[2:])))),
        table("branches", _BRANCH_HEADER, "branch", lambda where, cells: (
            where, (int(cells[0]), int(cells[1])),
            (*map(_finite, cells[2:5]), _finite(cells[5]) or 1.0,
             _finite(cells[6])))),
        checksum)


def dumps_csv_fallback(case: PowerCase) -> str:
    """Serialize a PowerCase to the CSV fallback bundle.

    Floats use repr so that parse_csv_fallback(dumps_csv_fallback(c))
    reproduces the model field-for-field.
    """
    out = ["[case]", f'name = "{case.name}"', f"mva_base = {case.mva_base!r}",
           "", "[buses]", _BUS_HEADER]
    for b in case.buses:
        out.append(",".join([
            str(b.external_id), b.bus_type, repr(b.v_mag),
            repr(b.v_ang_deg), repr(b.p_load), repr(b.q_load),
            repr(b.p_gen), repr(b.q_gen), repr(b.shunt_g), repr(b.shunt_b),
        ]))
    out += ["", "[branches]", _BRANCH_HEADER]
    for br in case.branches:
        out.append(",".join([
            str(case.external_id(br.from_bus)),
            str(case.external_id(br.to_bus)),
            repr(br.r), repr(br.x), repr(br.b_charging), repr(br.tap_ratio),
            repr(br.shift_deg),
        ]))
    return "\n".join(out) + "\n"


def _read(path: Path, source: str = "") -> str:
    """The UTF-8 text of a case file, without a leading byte-order mark
    and with newlines translated as a text-mode read does; a byte that
    is not UTF-8 is a `MalformedRecord` on its line, of file `source` in
    a bundle."""
    # The mark is cut from the bytes, not by the "utf-8-sig" codec,
    # whose error offsets would count from after it.
    data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The sentinel makes a bad byte right after a line break count
        # as the start of the next line.
        line_no = len((data[:exc.start].decode("utf-8") + "?").splitlines())
        raise MalformedRecord(line_no, f"byte {data[exc.start]:#04x} is "
                              "not UTF-8", source) from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def case_files(path: str | Path) -> list[Path]:
    """The files `load_case` reads for `path`: a bundle's three tables,
    or the one case file."""
    path = Path(path)
    return ([path / fname for fname in _BUNDLE_FILES.values()]
            if path.is_dir() else [path])


def load_case(path: str | Path) -> PowerCase:
    """Load a case from a CDF text file or a CSV-bundle directory.

    A directory must hold ``case.toml``, ``buses.csv`` and
    ``branches.csv``, each a plain table (see the module docstring),
    and takes its name where ``case.toml`` states none; any other path
    is read as CDF text.
    """
    path = Path(path)
    if path.is_dir():
        texts = {}
        for section, fname in _BUNDLE_FILES.items():
            if not (path / fname).exists():
                raise MissingSection(f"{path}: missing {fname}")
            texts[section] = _read(path / fname, fname)
        # The checksum is the document's: each file under its header.
        return _parse_csv_sections(
            {section: _rows(text) for section, text in texts.items()},
            _BUNDLE_FILES,
            _checksum("\n".join(f"[{s}]\n{t}" for s, t in texts.items())),
            path.name)
    return parse_cdf(_read(path), name=path.stem)


def load_bundled_case(name: str) -> PowerCase:
    return load_case(Path(__file__).parent / "data" / f"{name}.txt")
