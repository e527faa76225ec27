"""Parsing and emission of the on-disk document formats.

Five document kinds: the network file and scenario file (JSON), profile
files (CSV, either normalized coefficients or raw kW to be normalized
on ingest), reports (summary CSV/JSON plus the per-branch detail CSV)
and the sweep status CSV, which is only written. Parsing is strict:
unknown keys and non-finite numbers are rejected, and a bad document
raises one GridFileError whose diagnostics each name their location.
Emission is canonical, so parse-emit-parse is the identity and output
bytes are deterministic.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from typing import Any, Callable, Iterable, Sequence

from .congestion import BELOW_LABEL, BIN_LABELS, CongestionHistogram, bin_label
from .network import (
    Branch,
    Bus,
    CableType,
    Generator,
    Network,
    NominalLoad,
    derive_impedances,
    reactive_kvar,
    validate_network,
)
from .powerflow import PowerFlowSolution
from .scenario import (
    SLOTS_PER_DAY,
    IntervalRecord,
    LoadProfile,
    ParkingLot,
    ProfileBindings,
    ProfileError,
    Scenario,
    ScenarioConfigError,
    normalize_profile,
    placement_errors,
)


class GridFileError(Exception):
    """A bad document; carries one diagnostic per problem."""

    def __init__(self, diagnostics: Sequence[str]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


def _load_json(text: str, what: str) -> Any:
    try:
        return json.loads(text)     # NaN, Infinity and 1e400 are floats for take to reject
    except json.JSONDecodeError as exc:
        raise GridFileError(
            [f"{what}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    except ValueError as exc:       # int() refuses literals past the digit limit
        raise GridFileError([f"{what}: integer literal has more than "
                             f"{sys.get_int_max_str_digits()} digits"]) from exc


class _Record:
    """Strict accessor over one JSON object; tracks consumed keys."""

    def __init__(self, raw: Any, path: str, errors: list[str]):
        self.path = path
        self.errors = errors
        if isinstance(raw, dict):
            self.raw = raw
        else:
            self.raw = {}
            errors.append(f"{path}: expected an object, got {type(raw).__name__}")
        self._consumed: set[str] = set()

    def take(self, key: str, kind: type, required: bool = True, default: Any = None) -> Any:
        self._consumed.add(key)
        if key not in self.raw:
            if required:
                self.errors.append(f"{self.path}: missing required key {key!r}")
            return default
        value = self.raw[key]
        if value is None and not required:
            return default
        if kind is float and type(value) is int:
            try:
                value = float(value)
            except OverflowError:
                value = math.inf
        if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
            self.errors.append(
                f"{self.path}.{key}: expected {kind.__name__}, got {type(value).__name__}")
            return default
        if kind is float and not math.isfinite(value):
            self.errors.append(f"{self.path}.{key}: not a finite number")
            return default
        return value

    def finish(self) -> None:
        unknown = sorted(set(self.raw) - self._consumed)
        for key in unknown:
            self.errors.append(f"{self.path}: unknown key {key!r}")


def parse_network_file(text: str) -> Network:
    """Parse and validate a network document.

    Returns a network with derived impedances that passes
    validate_network; otherwise raises with one diagnostic per problem.
    """
    raw = _load_json(text, "network file")
    errors: list[str] = []
    doc = _Record(raw, "network", errors)

    s_base = doc.take("s_base_mva", float)
    catalog_raw = doc.take("cable_catalog", dict, default={})
    buses_raw = doc.take("buses", list, default=[])
    branches_raw = doc.take("branches", list, default=[])
    generators_raw = doc.take("generators", list, required=False, default=[])
    doc.finish()

    catalog: dict[str, CableType] = {}
    for name, entry in (catalog_raw or {}).items():
        rec = _Record(entry, f"cable_catalog[{name!r}]", errors)
        ohms = rec.take("ohms_per_mile", float)
        react = rec.take("reactance_per_mile", float)
        rec.finish()
        if ohms is not None and react is not None:
            catalog[name] = CableType(name, ohms, react)

    buses: list[Bus] = []
    for i, entry in enumerate(buses_raw or []):
        rec = _Record(entry, f"buses[{i}]", errors)
        bus_id = rec.take("id", str)
        kind = rec.take("kind", str)
        base_kv = rec.take("base_voltage", float)
        load_raw = rec.take("nominal_load", dict, required=False)
        rec.finish()
        load = NominalLoad()
        if load_raw is not None:
            load_rec = _Record(load_raw, f"buses[{i}].nominal_load", errors)
            kw = load_rec.take("kw", float, required=False, default=0.0)
            kvar = load_rec.take("kvar", float, required=False)
            load_rec.finish()
            if kvar is None:
                kvar = reactive_kvar(kw) if kw else 0.0
            load = NominalLoad(kw, kvar)
        if bus_id is not None and kind is not None and base_kv is not None:
            buses.append(Bus(bus_id, kind, base_kv, load))

    branches: list[Branch] = []
    for i, entry in enumerate(branches_raw or []):
        rec = _Record(entry, f"branches[{i}]", errors)
        from_bus = rec.take("from", str)
        to_bus = rec.take("to", str)
        kind = rec.take("kind", str)
        rating = rec.take("rating", float)
        if kind == "cable":
            cable_type = rec.take("cable_type", str)
            length = rec.take("length_miles", float)
            tap = rec.take("tap", float, required=False, default=1.0)
            rec.finish()
            if None not in (from_bus, to_bus, rating, cable_type, length):
                branches.append(Branch(from_bus, to_bus, "cable", rating, cable_type=cable_type,
                                       length_miles=length, tap=tap))
        elif kind == "transformer":
            percent = rec.take("impedance_percent", float)
            tap = rec.take("tap", float, required=False, default=1.0)
            rec.finish()
            if None not in (from_bus, to_bus, rating, percent):
                branches.append(Branch(from_bus, to_bus, "transformer", rating,
                                       impedance_percent=percent, tap=tap))
        else:
            rec.finish()
            errors.append(f"branches[{i}].kind: expected 'cable' or 'transformer', got {kind!r}")

    generators: list[Generator] = []
    for i, entry in enumerate(generators_raw or []):
        rec = _Record(entry, f"generators[{i}]", errors)
        bus = rec.take("bus", str)
        kind = rec.take("kind", str)
        capacity = rec.take("capacity", float)
        profile = rec.take("profile", str, required=False)
        rec.finish()
        if None not in (bus, kind, capacity):
            generators.append(Generator(bus, kind, capacity, profile))

    if errors:
        raise GridFileError(errors)

    net = derive_impedances(Network(
        s_base_mva=s_base,
        buses=tuple(buses),
        branches=tuple(branches),
        generators=tuple(generators),
        cable_catalog=catalog,
    ))
    violations = validate_network(net)
    if violations:
        raise GridFileError([str(v) for v in violations])
    return net


def emit_network_file(net: Network) -> str:
    """Canonical network document; stable key order, explicit values except
    a cable's tap, written only when it is not 1.0."""
    doc = {
        "s_base_mva": net.s_base_mva,
        "cable_catalog": {
            name: {
                "ohms_per_mile": cable.ohms_per_mile,
                "reactance_per_mile": cable.reactance_per_mile,
            }
            for name, cable in net.cable_catalog.items()
        },
        "buses": [
            {
                "id": bus.id,
                "kind": bus.kind,
                "base_voltage": bus.base_voltage,
                "nominal_load": {"kw": bus.nominal_load.kw, "kvar": bus.nominal_load.kvar},
            }
            for bus in net.buses
        ],
        "branches": [
            (
                {
                    "from": b.from_bus,
                    "to": b.to_bus,
                    "kind": "cable",
                    "rating": b.rating_kva,
                    "cable_type": b.cable_type,
                    "length_miles": b.length_miles,
                    # Written only off nominal, so untapped cables keep their bytes.
                    **({"tap": b.tap} if b.tap != 1.0 else {}),
                }
                if b.kind == "cable"
                else {
                    "from": b.from_bus,
                    "to": b.to_bus,
                    "kind": "transformer",
                    "rating": b.rating_kva,
                    "impedance_percent": b.impedance_percent,
                    "tap": b.tap,
                }
            )
            for b in net.branches
        ],
        "generators": [
            {"bus": g.bus, "kind": g.kind, "capacity": g.capacity_kw, "profile": g.profile}
            for g in net.generators
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_scenario_file(text: str, network: Network | None = None) -> Scenario:
    """A scenario file's Scenario. Given the network it runs on, each lot
    and PV site must also reach its power flow (scenario.placement_errors)."""
    raw = _load_json(text, "scenario file")
    errors: list[str] = []
    doc = _Record(raw, "scenario", errors)
    name = doc.take("name", str)
    penetration = doc.take("penetration", float)
    per_charger = doc.take("per_charger_kw", float, required=False, default=10.0)
    pv_enabled = doc.take("pv_enabled", bool, required=False, default=False)
    controller = doc.take("controller", str, required=False, default="null")
    allow_nonstandard = doc.take("allow_nonstandard_charger", bool, required=False,
                                 default=False)
    lots_raw = doc.take("parking_lots", list, required=False, default=[])
    bindings_raw = doc.take("bindings", dict, required=False)
    doc.finish()

    lots: list[ParkingLot] = []
    for i, entry in enumerate(lots_raw or []):
        rec = _Record(entry, f"parking_lots[{i}]", errors)
        lot_name = rec.take("name", str)
        capacity = rec.take("capacity", int)
        bus = rec.take("bus", str)
        rec.finish()
        if None not in (lot_name, capacity, bus):
            try:
                lots.append(ParkingLot(lot_name, capacity, bus))
            except ScenarioConfigError as exc:
                errors.append(f"parking_lots[{i}]: {exc}")

    bindings = ProfileBindings()
    if bindings_raw is not None:
        rec = _Record(bindings_raw, "bindings", errors)
        load_default = rec.take("load_default", str, required=False)
        load_map = rec.take("load", dict, required=False, default={})
        ev = rec.take("ev", str, required=False)
        pv_default = rec.take("pv_default", str, required=False)
        pv_map = rec.take("pv", dict, required=False, default={})
        rec.finish()
        for map_name, mapping in (("load", load_map), ("pv", pv_map)):
            for key, value in (mapping or {}).items():
                if not isinstance(value, str):
                    errors.append(f"bindings.{map_name}[{key!r}]: expected str, "
                                  f"got {type(value).__name__}")
        bindings = ProfileBindings(
            load_default=load_default,
            load=dict(load_map or {}),
            ev=ev,
            pv_default=pv_default,
            pv=dict(pv_map or {}),
        )

    if errors:
        raise GridFileError(errors)
    try:
        scenario = Scenario(
            name=name,
            penetration=penetration,
            per_charger_kw=per_charger,
            pv_enabled=pv_enabled,
            controller=controller,
            parking_lots=tuple(lots),
            bindings=bindings,
            allow_nonstandard_charger=allow_nonstandard,
        )
    except ScenarioConfigError as exc:
        raise GridFileError([f"scenario: {exc}"]) from exc
    placement = placement_errors(network, scenario) if network is not None else []
    if placement:
        raise GridFileError([f"scenario: {error}" for error in placement])
    return scenario


def emit_scenario_file(scenario: Scenario) -> str:
    doc = {
        "name": scenario.name,
        "penetration": scenario.penetration,
        "per_charger_kw": scenario.per_charger_kw,
        "pv_enabled": scenario.pv_enabled,
        "controller": scenario.controller,
        "allow_nonstandard_charger": scenario.allow_nonstandard_charger,
        "parking_lots": [
            {"name": lot.name, "capacity": lot.capacity, "bus": lot.bus}
            for lot in scenario.parking_lots
        ],
        "bindings": {
            "load_default": scenario.bindings.load_default,
            "load": dict(scenario.bindings.load),
            "ev": scenario.bindings.ev,
            "pv_default": scenario.bindings.pv_default,
            "pv": dict(scenario.bindings.pv),
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def _csv_text(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Canonical CSV text: the header row, then the rows, newline-ended."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _csv_rows(text: str, what: str, header: Sequence[str] | None = None) -> list[list[str]]:
    """The non-empty rows of a CSV document, the first one equal to header if given."""
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise GridFileError([f"{what}: malformed CSV: {exc}"]) from exc
    rows = [row for row in rows if row]
    if header is not None and (not rows or tuple(rows[0]) != tuple(header)):
        raise GridFileError([f"{what}: header must be {','.join(header)}"])
    return rows


def _convert_rows(body: Sequence[list[str]], what: str, width: int,
                  convert: Callable[[int, list[str]], Any]) -> list[Any]:
    """convert(index, row) for every row. A row of another width, or whose
    conversion raises ValueError(problem), gets one diagnostic; all of
    them are raised together after the last row."""
    converted = []
    errors = []
    for i, row in enumerate(body):
        if len(row) != width:
            errors.append(f"{what} row {i + 1}: expected {width} columns")
            continue
        try:
            converted.append(convert(i, row))
        except ValueError as exc:
            errors.append(f"{what} row {i + 1}: {exc}")
    if errors:
        raise GridFileError(errors)
    return converted


def _number(cell: str, problem: str) -> float:
    """The finite float in cell; ValueError(problem) when the cell does not parse."""
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(problem) from None
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {cell}")
    return value


def _integer(cell: str, problem: str) -> int:
    """ASCII digits with an optional '-' and blanks around, else ValueError(problem);
    int() alone also takes '+', '_' and other scripts' digits."""
    digits = cell.strip()
    if not (digits.isascii() and digits.removeprefix("-").isdigit()):
        raise ValueError(problem)
    return int(digits)


def _slot_coefficient(i: int, row: list[str]) -> float:
    slot = _integer(row[0], "non-numeric cell")
    coeff = _number(row[1], "non-numeric cell")
    if slot != i:
        raise ValueError(f"expected slot {i}, got {slot}")
    return coeff


def parse_profile_csv(text: str, profile_id: str) -> LoadProfile:
    """Read a 96-slot profile.

    Header slot,coefficient: values already normalized (max must be
    exactly 1). Header timestamp,kw: raw demand, normalized on ingest.
    """
    what = f"profile {profile_id!r}"
    rows = _csv_rows(text, what)
    if not rows:
        raise GridFileError([f"{what}: empty file"])
    header = [cell.strip() for cell in rows[0]]
    body = rows[1:]
    if len(body) != SLOTS_PER_DAY:
        raise GridFileError([f"{what}: expected {SLOTS_PER_DAY} data rows, got {len(body)}"])
    try:
        if header == ["slot", "coefficient"]:
            return LoadProfile(profile_id, tuple(_convert_rows(body, what, 2, _slot_coefficient)))
        if header == ["timestamp", "kw"]:
            kws = _convert_rows(body, what, 2,
                                lambda i, row: _number(row[1], "non-numeric kw"))
            return normalize_profile(kws, profile_id)
    except ProfileError as exc:
        raise GridFileError([str(exc)]) from exc
    raise GridFileError([f"{what}: header must be slot,coefficient or timestamp,kw"])


def emit_profile_csv(profile: LoadProfile) -> str:
    return _csv_text(("slot", "coefficient"),
                     ([slot, repr(coeff)] for slot, coeff in enumerate(profile.coefficients)))


REPORT_COLUMNS = ("scenario", "bin_40_80", "bin_80_100", "bin_100_150", "bin_gt_150")


def emit_report_csv(rows: Sequence[tuple[str, CongestionHistogram]]) -> str:
    """Summary table: one row per scenario, the four loading bins."""
    return _csv_text(REPORT_COLUMNS, ([name, *hist.counts().values()] for name, hist in rows))


def _bin_count(cell: str) -> int:
    count = _integer(cell, "non-integer bin count")
    if count < 0:
        raise ValueError("negative bin count")
    return count


def parse_report_csv(text: str) -> list[tuple[str, CongestionHistogram]]:
    rows = _csv_rows(text, "report", REPORT_COLUMNS)
    return _convert_rows(rows[1:], "report", 5, lambda i, row: (
        row[0], CongestionHistogram(*[_bin_count(cell) for cell in row[1:]])))


def emit_report_json(rows: Sequence[tuple[str, CongestionHistogram]]) -> str:
    doc = {
        "report": [
            {"scenario": name, "bins": hist.counts()}
            for name, hist in rows
        ]
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_report_json(text: str) -> list[tuple[str, CongestionHistogram]]:
    raw = _load_json(text, "report file")
    errors: list[str] = []
    doc = _Record(raw, "report", errors)
    entries = doc.take("report", list, default=[])
    doc.finish()
    parsed = []
    for i, entry in enumerate(entries or []):
        rec = _Record(entry, f"report[{i}]", errors)
        name = rec.take("scenario", str)
        bins = rec.take("bins", dict, default={})
        rec.finish()
        if name is None:
            continue
        unknown = sorted(set(bins) - set(BIN_LABELS))
        if unknown:
            errors.append(f"report[{i}].bins: unknown bin label(s) {unknown}")
            continue
        for label, count in bins.items():
            if type(count) is not int or count < 0:     # bool is not a count
                errors.append(f"report[{i}].bins[{label!r}]: bin count must be an "
                              f"integer >= 0, got {count!r}")
        parsed.append((name, CongestionHistogram.from_counts(bins)))
    if errors:
        raise GridFileError(errors)
    return parsed


DETAIL_COLUMNS = ("branch", "kind", "loading_percent", "bin")


def detail_csv_for_solution(solution: PowerFlowSolution) -> str:
    """Per-branch loading detail. Percentages use repr so that re-parsing
    reproduces the exact float and therefore the exact bin."""
    return _csv_text(DETAIL_COLUMNS, ([flow.branch_id, flow.kind, repr(flow.loading_percent),
                                       bin_label(flow.loading_percent)]
                                      for flow in solution.branch_flows))


def parse_branch_detail_csv(text: str) -> dict[str, tuple[str, float, str]]:
    """Detail rows keyed by branch id: (kind, loading_percent, bin). A
    branch id may appear in one row only, and its bin must be its loading's."""
    detail: dict[str, tuple[str, float, str]] = {}

    def add_row(i: int, row: list[str]) -> None:
        branch, kind, loading_raw, label = row
        loading = _number(loading_raw, "non-numeric loading")
        expected = bin_label(loading)       # ValueError for a negative loading
        if label != expected:
            raise ValueError(f"unknown bin {label!r}" if label not in (BELOW_LABEL, *BIN_LABELS)
                             else f"loading {loading_raw} is in bin {expected!r}, not {label!r}")
        if branch in detail:
            raise ValueError(f"duplicate branch {branch!r}")
        detail[branch] = (kind, loading, label)

    rows = _csv_rows(text, "detail", DETAIL_COLUMNS)
    _convert_rows(rows[1:], "detail", 4, add_row)
    return detail


def emit_sweep_csv(records: Iterable[IntervalRecord]) -> str:
    """Sweep status: one row per slot, with its peak loading at six decimals."""
    def row(record: IntervalRecord) -> list[Any]:
        solution = record.solution
        loadings = solution.loading_by_branch().values()
        return [record.interval, int(solution.converged), solution.iterations,
                f"{max(loadings, default=0.0):.6f}", sum(1 for v in loadings if v >= 100.0)]
    return _csv_text(("interval", "converged", "iterations", "max_loading_percent",
                      "branches_ge_100"), map(row, records))
