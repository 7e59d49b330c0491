"""Network case model and file readers.

Two input formats are supported:

* IEEE common data format (fixed-width text, 1973 column layout) with
  BUS DATA / BRANCH DATA sections terminated by ``-999`` sentinels.
* A CSV fallback bundle: a ``[case]`` metadata block plus ``[buses]``
  and ``[branches]`` tables (see `parse_csv_fallback`). On disk the
  bundle lives as three files, ``case.toml``, ``buses.csv`` and
  ``branches.csv``, assembled by `load_case`.

External bus numbers are remapped to contiguous internal indices
1..N; the mapping is kept on the `PowerCase` for reporting.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
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

    `index` is the contiguous internal id (1..N); `external_id` is the
    number that appeared in the source file. Voltage angle is radians.
    """

    index: int
    external_id: int
    bus_type: str
    v_mag: float = 1.0
    v_ang: float = 0.0
    p_load: float = 0.0
    q_load: float = 0.0
    p_gen: float = 0.0
    q_gen: float = 0.0
    shunt_g: float = 0.0
    shunt_b: float = 0.0

    def __post_init__(self):
        if self.bus_type not in _BUS_TYPES:
            raise ValueError(f"unknown bus type {self.bus_type!r}")


@dataclass(frozen=True)
class Branch:
    """Series branch (line or transformer) in the standard pi model.

    `from_bus`/`to_bus` are internal indices; the tap sits on the from
    side. `b_charging` is the total line-charging susceptance and
    `phase_shift` is radians.
    """

    from_bus: int
    to_bus: int
    r: float
    x: float
    b_charging: float = 0.0
    tap_ratio: float = 1.0
    phase_shift: float = 0.0


@dataclass(frozen=True)
class PowerCase:
    name: str
    mva_base: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    source_checksum: str = ""
    external_ids: dict[int, int] = field(default_factory=dict, compare=False)

    @property
    def n(self) -> int:
        return len(self.buses)

    @property
    def m(self) -> int:
        return len(self.branches)

    def external_id(self, internal: int) -> int:
        return self.buses[internal - 1].external_id

    @property
    def slack_index(self) -> int:
        for bus in self.buses:
            if bus.bus_type == SLACK:
                return bus.index
        raise MissingSlack("case has no slack bus")


def _assemble(name: str, mva_base: float, bus_rows, branch_rows,
              checksum: str) -> PowerCase:
    """The validated case built from per-unit records in file order.

    A bus row is ``(external id, Bus fields)``, the fields after
    `index` and `external_id`. A branch row is ``(where, (from id,
    to id), Branch fields)``, the fields after the two ends, where
    `where` ("line 7", "branches.csv line 2") locates the record in
    error messages. External ids are remapped to 1..N in bus order.
    """
    ext_to_int: dict[int, int] = {}
    buses: list[Bus] = []
    for ext, fields in bus_rows:
        if ext in ext_to_int:
            raise DuplicateBusId(f"{name}: bus {ext} appears twice")
        internal = ext_to_int[ext] = len(buses) + 1
        buses.append(Bus(internal, ext, *fields))

    branches: list[Branch] = []
    for where, ends, fields in branch_rows:
        for end in ends:
            if end not in ext_to_int:
                raise UnknownBusReference(f"{name}: {where}: branch "
                                          f"references unknown bus {end}")
        branches.append(Branch(ext_to_int[ends[0]], ext_to_int[ends[1]],
                               *fields))

    n = len(buses)
    if n < 2:
        raise MissingSection(f"{name}: a case needs at least 2 buses, got {n}")
    if not branches:
        raise MissingSection(f"{name}: a case needs at least 1 branch")

    slack_count = sum(1 for b in buses if b.bus_type == SLACK)
    if slack_count > 1:
        raise DuplicateSlack(f"{name}: {slack_count} slack buses, expected 1")
    if slack_count == 0:
        raise MissingSlack(f"{name}: no slack bus")
    for bus in buses:
        if bus.bus_type in (PV, SLACK) and bus.v_mag <= 0:
            raise CaseError(f"{name}: bus {bus.external_id}: regulated bus "
                            f"with non-positive voltage {bus.v_mag}")

    for br in branches:
        if br.from_bus == br.to_bus:
            raise InvalidBranch(f"{name}: branch {br.from_bus}-{br.to_bus} "
                                "is a self-loop")
        if br.x < 0:
            raise InvalidBranch(
                f"{name}: branch {br.from_bus}-{br.to_bus} has negative "
                f"series reactance {br.x}; the distance construction needs "
                "nonnegative reactances")
        if br.r == 0 and br.x == 0:
            raise InvalidBranch(f"{name}: branch {br.from_bus}-{br.to_bus} "
                                "has zero impedance")

    if not _connected(n, branches):
        raise DisconnectedNetwork(f"{name}: branch graph is not connected")

    return PowerCase(
        name=name,
        mva_base=mva_base,
        buses=tuple(buses),
        branches=tuple(branches),
        source_checksum=checksum,
        external_ids={b.index: b.external_id for b in buses},
    )


def _connected(n: int, branches: list[Branch]) -> bool:
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


def _num(line: str, start: int, end: int, line_no: int, kind=_finite):
    text = _slice(line, start, end)
    if not text:
        return kind(0)
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
    mva_base = _num(title, 31, 37, 1) or 100.0
    # Every load and generation is divided by the base, so a negative
    # one would flip the sign of every injection.
    if mva_base < 0:
        raise MalformedRecord(1, f"columns 32-37: MVA base {mva_base!r} "
                              "is negative")
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
        if stripped.startswith("-9"):  # -999 / -99 section terminators
            section = None
            continue
        if upper.startswith(("LOSS ZONES", "INTERCHANGE DATA", "TIE LINES")):
            section = "skip"
            continue
        if section == "bus":
            ext = _num(line, 0, 4, line_no, int)
            code = _num(line, 24, 26, line_no, int)
            fields = (
                _CDF_TYPE_MAP.get(code),
                _num(line, 27, 33, line_no) or 1.0,
                math.radians(_num(line, 33, 40, line_no)),
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
                math.radians(_num(line, 83, 90, line_no)))))

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


def _csv_sections(text: str, current: str | None = None
                  ) -> dict[str, list[tuple[int, str]]]:
    """Numbered non-blank, non-comment rows of each ``[section]``; rows
    before the first header belong to `current`."""
    sections: dict[str, list[tuple[int, str]]] = (
        {} if current is None else {current: []})
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            sections[current] = []
            continue
        if current is None:
            raise MalformedRecord(line_no, "content before the first section")
        sections[current].append((line_no, line))
    return sections


def parse_csv_fallback(text: str) -> PowerCase:
    """Parse the CSV fallback bundle.

    The bundle is one text document with three sections::

        [case]
        name = mycase
        mva_base = 100.0

        [buses]
        id,type,vmag,vang_deg,pload,qload,pgen,qgen,gs,bs
        ...

        [branches]
        from,to,r,x,b,tap,shift_deg
        ...

    Semantics match `parse_cdf`: external ids are remapped to 1..N.
    Unlike the CDF (which carries MW/MVAr), the CSV tables are already
    per-unit on ``mva_base``; angles are degrees.
    """
    return _parse_csv_sections(_csv_sections(text), {}, _checksum(text))


def _parse_csv_sections(sections: dict[str, list[tuple[int, str]]],
                        sources: dict[str, str], checksum: str) -> PowerCase:
    """The case in `sections`; `sources` names the file each came from."""

    def bad(section, line_no, detail):
        return MalformedRecord(line_no, detail, sources.get(section, ""))

    for required in ("case", "buses", "branches"):
        if required not in sections or not sections[required]:
            raise MissingSection(f"CSV bundle is missing the {required} table")

    meta = {}
    meta_line = {}
    for line_no, line in sections["case"]:
        if "=" not in line:
            raise bad("case", line_no, f"expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        meta[key.strip()] = value.strip().strip('"')
        meta_line[key.strip()] = line_no
    name = meta.get("name", "case")
    try:
        mva_base = _finite(meta.get("mva_base", "100"))
    except ValueError as exc:
        raise bad("case", meta_line["mva_base"],
                  f"mva_base {meta['mva_base']!r} is not "
                  "a finite number") from exc
    if mva_base < 0:
        raise bad("case", meta_line["mva_base"],
                  f"mva_base {meta['mva_base']!r} is negative")

    def parse_table(section, header, n_cols):
        rows = sections[section]
        line_no, head = rows[0]
        if head.replace(" ", "") != header:
            raise bad(section, line_no, f"expected header {header!r}")
        out = []
        for line_no, line in rows[1:]:
            cells = [c.strip() for c in line.split(",")]
            if len(cells) != n_cols:
                raise bad(section, line_no, f"expected {n_cols} columns, "
                          f"got {len(cells)}")
            out.append((line_no, cells))
        return out

    bus_table = parse_table("buses", _BUS_HEADER, 10)
    branch_table = parse_table("branches", _BRANCH_HEADER, 7)

    def bus_rows():
        for line_no, cells in bus_table:
            try:
                ext = int(cells[0])
                bus_type = _CSV_TYPE_MAP[cells[1]]
                v_mag, v_ang_deg, *rest = [_finite(c) for c in cells[2:]]
            except (ValueError, KeyError) as exc:
                raise bad("buses", line_no, f"bad bus record {cells}") from exc
            yield ext, (bus_type, v_mag, math.radians(v_ang_deg), *rest)

    def branch_rows():
        source = sources.get("branches", "")
        for line_no, cells in branch_table:
            try:
                ends = int(cells[0]), int(cells[1])
                r, x, b, tap, shift_deg = [_finite(c) for c in cells[2:]]
            except ValueError as exc:
                raise bad("branches", line_no,
                          f"bad branch record {cells}") from exc
            yield (f"{source} line {line_no}".lstrip(), ends,
                   (r, x, b, tap or 1.0, math.radians(shift_deg)))

    return _assemble(name, mva_base, bus_rows(), branch_rows(), checksum)


def _degrees_exact(rad: float) -> float:
    """Degrees value whose radians() reproduces `rad` bit-for-bit.

    Angles only ever enter the model through radians(deg), so an exact
    preimage exists; plain degrees() can land one ulp off it.
    """
    deg = math.degrees(rad)
    if math.radians(deg) == rad:
        return deg
    for direction in (math.inf, -math.inf):
        candidate = deg
        for _ in range(2):
            candidate = math.nextafter(candidate, direction)
            if math.radians(candidate) == rad:
                return candidate
    return deg


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
            repr(_degrees_exact(b.v_ang)), repr(b.p_load), repr(b.q_load),
            repr(b.p_gen), repr(b.q_gen), repr(b.shunt_g), repr(b.shunt_b),
        ]))
    out += ["", "[branches]", _BRANCH_HEADER]
    for br in case.branches:
        out.append(",".join([
            str(case.external_id(br.from_bus)),
            str(case.external_id(br.to_bus)),
            repr(br.r), repr(br.x), repr(br.b_charging), repr(br.tap_ratio),
            repr(_degrees_exact(br.phase_shift)),
        ]))
    return "\n".join(out) + "\n"


def _read(path: Path, source: str = "") -> str:
    """The UTF-8 text of a case file, newlines translated as a text-mode
    read does; a byte that is not UTF-8 is a `MalformedRecord` on its
    line, of file `source` in a bundle."""
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The sentinel makes a bad byte right after a line break count
        # as the start of the next line.
        line_no = len((data[:exc.start].decode("utf-8") + "?").splitlines())
        raise MalformedRecord(line_no, f"byte {data[exc.start]:#04x} is "
                              "not UTF-8", source) from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_case(path: str | Path) -> PowerCase:
    """Load a case from a CDF text file or a CSV-bundle directory.

    A directory must hold ``case.toml``, ``buses.csv`` and
    ``branches.csv``; any other path is read as CDF text.
    """
    path = Path(path)
    if path.is_dir():
        parts, sections, sources = [], {}, {}
        for fname, section in (("case.toml", "case"), ("buses.csv", "buses"),
                               ("branches.csv", "branches")):
            member = path / fname
            if not member.exists():
                raise MissingSection(f"{path}: missing {fname}")
            text = _read(member, fname)
            parts.append(f"[{section}]\n" + text)
            for name, rows in _csv_sections(text, section).items():
                sections[name], sources[name] = rows, fname
        case = _parse_csv_sections(sections, sources,
                                   _checksum("\n".join(parts)))
        if case.name == "case":
            case = replace(case, name=path.name)
        return case
    return parse_cdf(_read(path), name=path.stem)


def load_bundled_case(name: str) -> PowerCase:
    return load_case(Path(__file__).parent / "data" / f"{name}.txt")
