"""Parsing and emission of the on-disk document formats.

Four document kinds: the network file and scenario file (JSON), profile
files (CSV, either normalized coefficients or raw kW to be normalized
on ingest), and reports (summary CSV/JSON plus the per-branch detail
CSV). Parsing is strict: unknown keys are rejected and every diagnostic
names its location. Emission is canonical, so parse-emit-parse is the
identity and output bytes are deterministic.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Any, Sequence

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
from .powerflow import BranchFlow, PowerFlowSolution
from .scenario import (
    LoadProfile,
    ParkingLot,
    ProfileBindings,
    ProfileError,
    Scenario,
    ScenarioConfigError,
    normalize_profile,
)


class GridFileError(Exception):
    """Base for document errors; carries one diagnostic per problem."""

    def __init__(self, diagnostics: Sequence[str]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


class FileSyntaxError(GridFileError):
    """The document is not well-formed JSON/CSV."""


class FileSchemaError(GridFileError):
    """The document is well-formed but violates the schema."""


class FileValidationError(GridFileError):
    """The document parsed but the resulting model breaks an invariant."""


def _load_json(text: str, what: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileSyntaxError(
            [f"{what}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc


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

    def take(self, key: str, kind: type | tuple[type, ...], required: bool = True,
             default: Any = None) -> Any:
        self._consumed.add(key)
        if key not in self.raw:
            if required:
                self.errors.append(f"{self.path}: missing required key {key!r}")
            return default
        value = self.raw[key]
        if value is None and not required:
            return default
        if kind is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
            expected = kind.__name__ if isinstance(kind, type) else "/".join(k.__name__ for k in kind)
            self.errors.append(
                f"{self.path}.{key}: expected {expected}, got {type(value).__name__}")
            return default
        return value

    def finish(self) -> None:
        unknown = sorted(set(self.raw) - self._consumed)
        for key in unknown:
            self.errors.append(f"{self.path}: unknown key {key!r}")


_NETWORK_KEYS = ("s_base_mva", "cable_catalog", "buses", "branches", "generators")


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
            rec.finish()
            if None not in (from_bus, to_bus, rating, cable_type, length):
                branches.append(Branch(from_bus, to_bus, "cable", rating,
                                       cable_type=cable_type, length_miles=length))
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
        raise FileSchemaError(errors)

    net = derive_impedances(Network(
        s_base_mva=s_base,
        buses=tuple(buses),
        branches=tuple(branches),
        generators=tuple(generators),
        cable_catalog=catalog,
    ))
    violations = validate_network(net)
    if violations:
        raise FileValidationError([str(v) for v in violations])
    return net


def emit_network_file(net: Network) -> str:
    """Canonical network document; stable key order, explicit values."""
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


def parse_scenario_file(text: str) -> Scenario:
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
        bindings = ProfileBindings(
            load_default=load_default,
            load=dict(load_map or {}),
            ev=ev,
            pv_default=pv_default,
            pv=dict(pv_map or {}),
        )

    if errors:
        raise FileSchemaError(errors)
    try:
        return Scenario(
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
        raise FileValidationError([f"scenario: {exc}"]) from exc


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


def parse_profile_csv(text: str, profile_id: str) -> LoadProfile:
    """Read a 96-slot profile.

    Header slot,coefficient: values already normalized (max must be
    exactly 1). Header timestamp,kw: raw demand, normalized on ingest.
    """
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise FileSyntaxError([f"profile {profile_id!r}: malformed CSV: {exc}"]) from exc
    rows = [row for row in rows if row]
    if not rows:
        raise FileSchemaError([f"profile {profile_id!r}: empty file"])
    header = [cell.strip() for cell in rows[0]]
    body = rows[1:]
    if len(body) != 96:
        raise FileSchemaError(
            [f"profile {profile_id!r}: expected 96 data rows, got {len(body)}"])

    if header == ["slot", "coefficient"]:
        coefficients = []
        errors = []
        for i, row in enumerate(body):
            if len(row) != 2:
                errors.append(f"profile {profile_id!r} row {i + 1}: expected 2 columns")
                continue
            try:
                slot, coeff = int(row[0]), float(row[1])
            except ValueError:
                errors.append(f"profile {profile_id!r} row {i + 1}: non-numeric cell")
                continue
            if slot != i:
                errors.append(f"profile {profile_id!r} row {i + 1}: expected slot {i}, got {slot}")
            coefficients.append(coeff)
        if errors:
            raise FileSchemaError(errors)
        try:
            return LoadProfile(profile_id, tuple(coefficients))
        except ProfileError as exc:
            raise FileValidationError([str(exc)]) from exc

    if header == ["timestamp", "kw"]:
        values = []
        errors = []
        for i, row in enumerate(body):
            if len(row) != 2:
                errors.append(f"profile {profile_id!r} row {i + 1}: expected 2 columns")
                continue
            try:
                values.append(float(row[1]))
            except ValueError:
                errors.append(f"profile {profile_id!r} row {i + 1}: non-numeric kw")
        if errors:
            raise FileSchemaError(errors)
        try:
            return normalize_profile(values, profile_id)
        except ProfileError as exc:
            raise FileValidationError([str(exc)]) from exc

    raise FileSchemaError(
        [f"profile {profile_id!r}: header must be slot,coefficient or timestamp,kw"])


def emit_profile_csv(profile: LoadProfile) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["slot", "coefficient"])
    for slot, coeff in enumerate(profile.coefficients):
        writer.writerow([slot, repr(coeff)])
    return out.getvalue()


REPORT_COLUMNS = ("scenario", "bin_40_80", "bin_80_100", "bin_100_150", "bin_gt_150")


def emit_report_csv(rows: Sequence[tuple[str, CongestionHistogram]]) -> str:
    """Summary table: one row per scenario, the four loading bins."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for name, hist in rows:
        writer.writerow([name, hist.bin_40_80, hist.bin_80_100,
                         hist.bin_100_150, hist.bin_gt_150])
    return out.getvalue()


def parse_report_csv(text: str) -> list[tuple[str, CongestionHistogram]]:
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise FileSyntaxError([f"report: malformed CSV: {exc}"]) from exc
    rows = [row for row in rows if row]
    if not rows or tuple(rows[0]) != REPORT_COLUMNS:
        raise FileSchemaError([f"report: header must be {','.join(REPORT_COLUMNS)}"])
    parsed = []
    errors = []
    for i, row in enumerate(rows[1:]):
        if len(row) != 5:
            errors.append(f"report row {i + 1}: expected 5 columns")
            continue
        try:
            counts = [int(cell) for cell in row[1:]]
        except ValueError:
            errors.append(f"report row {i + 1}: non-integer bin count")
            continue
        parsed.append((row[0], CongestionHistogram(*counts)))
    if errors:
        raise FileSchemaError(errors)
    return parsed


def emit_report_json(rows: Sequence[tuple[str, CongestionHistogram]]) -> str:
    doc = {
        "report": [
            {"scenario": name, "bins": {label: hist.counts()[label] for label in BIN_LABELS}}
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
        parsed.append((name, CongestionHistogram.from_counts(bins)))
    if errors:
        raise FileSchemaError(errors)
    return parsed


DETAIL_COLUMNS = ("branch", "kind", "loading_percent", "bin")


def emit_branch_detail_csv(flows: Sequence[BranchFlow]) -> str:
    """Per-branch loading detail. Percentages use repr so that re-parsing
    reproduces the exact float and therefore the exact bin."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(DETAIL_COLUMNS)
    for flow in flows:
        writer.writerow([flow.branch_id, flow.kind, repr(flow.loading_percent),
                         bin_label(flow.loading_percent)])
    return out.getvalue()


def detail_csv_for_solution(solution: PowerFlowSolution) -> str:
    return emit_branch_detail_csv(solution.branch_flows)


def parse_branch_detail_csv(text: str) -> dict[str, tuple[str, float, str]]:
    """Detail rows keyed by branch id: (kind, loading_percent, bin)."""
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise FileSyntaxError([f"detail: malformed CSV: {exc}"]) from exc
    rows = [row for row in rows if row]
    if not rows or tuple(rows[0]) != DETAIL_COLUMNS:
        raise FileSchemaError([f"detail: header must be {','.join(DETAIL_COLUMNS)}"])
    errors = []
    parsed: dict[str, tuple[str, float, str]] = {}
    for i, row in enumerate(rows[1:]):
        if len(row) != 4:
            errors.append(f"detail row {i + 1}: expected 4 columns")
            continue
        branch, kind, loading_raw, label = row
        try:
            loading = float(loading_raw)
        except ValueError:
            errors.append(f"detail row {i + 1}: non-numeric loading")
            continue
        if not math.isfinite(loading):
            errors.append(f"detail row {i + 1}: non-finite loading")
            continue
        if label not in (BELOW_LABEL, *BIN_LABELS):
            errors.append(f"detail row {i + 1}: unknown bin {label!r}")
            continue
        parsed[branch] = (kind, loading, label)
    if errors:
        raise FileSchemaError(errors)
    return parsed
