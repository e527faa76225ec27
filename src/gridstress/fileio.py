"""Parsing and emission of the on-disk document formats.

Five document kinds: the network file and scenario file (JSON), profile
files (CSV, either normalized coefficients or raw kW to be normalized
on ingest), reports (summary CSV/JSON plus the per-branch detail CSV)
and the sweep status CSV, which is only written. Parsing is strict:
unknown keys and non-finite numbers are rejected, and a bad document
raises one GridFileError whose diagnostics each name their location.
Emission is canonical, so parse-emit-parse is the identity and output
bytes are deterministic. Each JSON object's keys are declared once, as
a _Table, and both its parser and its emitter walk that declaration.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Mapping, Sequence, get_args, get_origin

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
    DEFAULT_CHARGER_KW,
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
        return json.loads(text)     # NaN, Infinity and 1e400 are floats for _scalar to reject
    except json.JSONDecodeError as exc:
        raise GridFileError(
            [f"{what}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    except RecursionError as exc:
        raise GridFileError([f"{what}: JSON nested too deeply"]) from exc
    except ValueError as exc:       # int() refuses literals past the digit limit
        raise GridFileError([f"{what}: integer literal has more than "
                             f"{sys.get_int_max_str_digits()} digits"]) from exc


class _Table:
    """A JSON object: its keys in document order, and make, which builds
    the object from the keys' attributes given as keywords. A tagged table
    also has the keys of variants[its tag key's value], after its own."""

    __slots__ = ("keys", "make", "tag", "variants")

    def __init__(self, keys: tuple[_Key, ...], make: Callable[..., Any], tag: str | None = None,
                 variants: Mapping[str, tuple[_Key, ...]] | None = None):
        self.keys, self.make, self.tag, self.variants = keys, make, tag, variants


class _Key:
    """One key of a JSON object: its name, the kind of its value (float,
    int, str or bool; a _Table for an object; list[kind] or dict[str, kind]
    for an array or a mapping of those; plain dict for a mapping that the
    object's make checks) and the attribute that holds it (the name by
    default). A missing or null optional key reads as default, an array or
    mapping as empty; a sparse key is written only when it is not default."""

    __slots__ = ("name", "kind", "attr", "required", "default", "sparse", "json_type", "nested")

    def __init__(self, name: str, kind: Any, attr: str = "", required: bool = True,
                 default: Any = None, sparse: bool = False):
        self.name, self.kind, self.attr = name, kind, attr or name
        self.required, self.default, self.sparse = required, default, sparse
        # The Python type of the JSON value, and whether it is an object, array or mapping.
        self.json_type = dict if isinstance(kind, _Table) else get_origin(kind) or kind
        self.nested = self.json_type in (list, dict)


def _scalar(kind: type, value: Any, path: str, errors: list[str]) -> Any:
    """value if it is a kind (an int is also a float; a bool is only a
    bool), else None after a diagnostic at path."""
    if kind is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        errors.append(f"{path}: expected {kind.__name__}, got {type(value).__name__}")
        return None
    if kind is float and not math.isfinite(value):
        errors.append(f"{path}: not a finite number")
        return None
    return value


def _read(table: _Table, raw: Any, path: str, errors: list[str],
          nest: str | None = None) -> dict[str, Any] | None:
    """The attributes of table's object in raw, or None when a required key
    or the tag is missing or bad. Each problem appends a diagnostic: the
    keys in declaration order, then unknown keys, then the nested values,
    whose paths start with nest (path + '.' by default)."""
    if not isinstance(raw, dict):
        errors.append(f"{path}: expected an object, got {type(raw).__name__}")
        raw = {}
    variant: tuple[_Key, ...] | None = ()
    if table.tag:
        tag = raw.get(table.tag)
        variant = table.variants.get(tag) if isinstance(tag, str) else None
    keys = table.keys + (variant or ())
    values: dict[str, Any] = {}
    complete = variant is not None
    for key in keys:
        kind = key.json_type
        value = raw.get(key.name)
        if type(value) is kind and (kind is not float or math.isfinite(value)):
            pass                        # the common case, without building a path
        elif value is not None or key.required and key.name in raw:
            value = _scalar(kind, value, f"{path}.{key.name}", errors)
        elif key.required:
            errors.append(f"{path}: missing required key {key.name!r}")
        if value is None:
            complete = complete and not key.required
            value = kind() if key.nested else None if key.required else key.default
        values[key.attr] = value
    for name in sorted(set(raw) - {key.name for key in keys}):
        errors.append(f"{path}: unknown key {name!r}")
    if variant is None:
        errors.append(f"{path}.{table.tag}: expected {' or '.join(map(repr, table.variants))}, "
                      f"got {values[table.tag]!r}")
    nest = path + "." if nest is None else nest
    for key in keys:
        if key.nested:
            values[key.attr] = _value(key.kind, values[key.attr], nest + key.name, errors)
    return values if complete else None


def _make(table: _Table, values: dict[str, Any], path: str, errors: list[str],
          **given: Any) -> Any:
    """table.make(**given, **values), or None after its diagnostics: a
    ScenarioConfigError's, or a GridFileError's relative to path."""
    try:
        return table.make(**given, **values)
    except ScenarioConfigError as exc:
        errors.append(f"{path}: {exc}")
    except GridFileError as exc:
        errors.extend(path + diagnostic for diagnostic in exc.diagnostics)
    return None


def _value(kind: Any, raw: Any, path: str, errors: list[str], **given: Any) -> Any:
    """raw read as kind (an array or mapping already checked to be one);
    an object held in a mapping is given its key as name."""
    if isinstance(kind, _Table):
        values = _read(kind, raw, path, errors)
        return None if values is None else _make(kind, values, path, errors, **given)
    origin, args = get_origin(kind), get_args(kind)
    if origin is list:
        return tuple(_value(args[0], item, f"{path}[{i}]", errors) for i, item in enumerate(raw))
    if origin is dict:
        return {name: _value(args[1], item, f"{path}[{name!r}]", errors, name=name)
                for name, item in raw.items()}
    return dict(raw) if kind is dict else _scalar(kind, raw, path, errors)


def _parse(text: str, what: str, table: _Table, path: str) -> Any:
    """The object of a JSON document; GridFileError with every diagnostic."""
    errors: list[str] = []
    values = _read(table, _load_json(text, what), path, errors, nest="")
    parsed = None if errors else _make(table, values, path, errors)
    if errors:
        raise GridFileError(errors)
    return parsed


def _dump(kind: Any, value: Any) -> Any:
    """value as the JSON data that _value reads back as kind."""
    if isinstance(kind, _Table):
        keys = kind.keys + (kind.variants[getattr(value, kind.tag)] if kind.tag else ())
        doc = {}
        for key in keys:
            item = getattr(value, key.attr)
            if not (key.sparse and item == key.default):
                doc[key.name] = _dump(key.kind, item) if key.nested else item
        return doc
    origin, args = get_origin(kind), get_args(kind)
    if origin is list:
        return [_dump(args[0], item) for item in value]
    if origin is dict:
        return {name: _dump(args[1], item) for name, item in value.items()}
    return dict(value) if kind is dict else value


def _emit(table: _Table, value: Any) -> str:
    return json.dumps(_dump(table, value), indent=2) + "\n"


_CABLE_TYPE = _Table((_Key("ohms_per_mile", float), _Key("reactance_per_mile", float)),
                     CableType)
_NOMINAL_LOAD = _Table(         # a load without kvar draws it at the default power factor
    (_Key("kw", float, required=False, default=0.0), _Key("kvar", float, required=False)),
    lambda kw, kvar: NominalLoad(kw, (reactive_kvar(kw) if kw else 0.0) if kvar is None else kvar))
_BUS = _Table((_Key("id", str), _Key("kind", str), _Key("base_voltage", float),
               _Key("nominal_load", _NOMINAL_LOAD, required=False)), Bus)
_BRANCH = _Table(
    (_Key("from", str, "from_bus"), _Key("to", str, "to_bus"), _Key("kind", str),
     _Key("rating", float, "rating_kva")),
    Branch, tag="kind", variants={
        # Written only off nominal, so untapped cables keep their bytes.
        "cable": (_Key("cable_type", str), _Key("length_miles", float),
                  _Key("tap", float, required=False, default=1.0, sparse=True)),
        "transformer": (_Key("impedance_percent", float),
                        _Key("tap", float, required=False, default=1.0)),
    })
_GENERATOR = _Table((_Key("bus", str), _Key("kind", str), _Key("capacity", float, "capacity_kw"),
                     _Key("profile", str, required=False)), Generator)
_NETWORK = _Table(
    (_Key("s_base_mva", float), _Key("cable_catalog", dict[str, _CABLE_TYPE]),
     _Key("buses", list[_BUS]), _Key("branches", list[_BRANCH]),
     _Key("generators", list[_GENERATOR], required=False)),
    lambda **values: derive_impedances(Network(**values)))

_PARKING_LOT = _Table((_Key("name", str), _Key("capacity", int), _Key("bus", str)), ParkingLot)
_BINDINGS = _Table(
    (_Key("load_default", str, required=False), _Key("load", dict[str, str], required=False),
     _Key("ev", str, required=False), _Key("pv_default", str, required=False),
     _Key("pv", dict[str, str], required=False)),
    ProfileBindings)
_SCENARIO = _Table(
    (_Key("name", str), _Key("penetration", float),
     _Key("per_charger_kw", float, required=False, default=DEFAULT_CHARGER_KW),
     _Key("pv_enabled", bool, required=False, default=False),
     _Key("controller", str, required=False, default="null"),
     _Key("allow_nonstandard_charger", bool, required=False, default=False),
     _Key("parking_lots", list[_PARKING_LOT], required=False),
     _Key("bindings", _BINDINGS, required=False)),
    Scenario)


def parse_network_file(text: str) -> Network:
    """Parse and validate a network document.

    Returns a network with derived impedances that passes
    validate_network; otherwise raises with one diagnostic per problem.
    """
    net = _parse(text, "network file", _NETWORK, "network")
    violations = validate_network(net)
    if violations:
        raise GridFileError([str(v) for v in violations])
    return net


def emit_network_file(net: Network) -> str:
    """Canonical network document: every value written, except a cable's
    tap when it is 1.0."""
    return _emit(_NETWORK, net)


def parse_scenario_file(text: str, network: Network | None = None) -> Scenario:
    """A scenario file's Scenario. Given the network it runs on, each lot
    and PV site must also reach its power flow (scenario.placement_errors)."""
    scenario = _parse(text, "scenario file", _SCENARIO, "scenario")
    if "/" in scenario.name or "\0" in scenario.name:
        raise GridFileError([f"scenario.name: {scenario.name!r} names output files, "
                             "so it may not hold '/' or NUL"])
    placement = placement_errors(network, scenario) if network is not None else []
    if placement:
        raise GridFileError([f"scenario: {error}" for error in placement])
    return scenario


def emit_scenario_file(scenario: Scenario) -> str:
    return _emit(_SCENARIO, scenario)


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
    """The finite float in cell; ValueError(problem) when the cell does not
    parse. float() alone also takes '_' and other scripts' digits."""
    if not cell.isascii() or "_" in cell:
        raise ValueError(problem)
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


def _report_row(name: str, bins: dict[str, Any]) -> tuple[str, CongestionHistogram]:
    """A report entry's (scenario, histogram); its bin problems raise a
    GridFileError whose diagnostics are relative to the entry's path."""
    unknown = sorted(set(bins) - set(BIN_LABELS))
    if unknown:
        raise GridFileError([f".bins: unknown bin label(s) {unknown}"])
    bad = [f".bins[{label!r}]: bin count must be an integer >= 0, got {count!r}"
           for label, count in bins.items() if type(count) is not int or count < 0]
    if bad:                                             # bool is not a count
        raise GridFileError(bad)
    return name, CongestionHistogram.from_counts(bins)


_REPORT_ROW = _Table((_Key("scenario", str, "name"), _Key("bins", dict)), _report_row)
_REPORT = _Table((_Key("report", list[_REPORT_ROW], "rows"),), lambda rows: list(rows))


def emit_report_json(rows: Sequence[tuple[str, CongestionHistogram]]) -> str:
    return _emit(_REPORT, SimpleNamespace(rows=[SimpleNamespace(name=name, bins=hist.counts())
                                                for name, hist in rows]))


def parse_report_json(text: str) -> list[tuple[str, CongestionHistogram]]:
    return _parse(text, "report file", _REPORT, "report")


DETAIL_COLUMNS = ("branch", "kind", "loading_percent", "bin")


def detail_csv_for_solution(solution: PowerFlowSolution) -> str:
    """Per-branch loading detail. Percentages use repr so that re-parsing
    reproduces the exact float and therefore the exact bin."""
    rows = zip(solution.branch_ids, solution.branch_kinds, solution.loading_percent)
    return _csv_text(DETAIL_COLUMNS, ([branch, kind, repr(loading), bin_label(loading)]
                                      for branch, kind, loading in rows))


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
    """Sweep status: one row per slot, with its peak loading at six
    decimals; a slot that did not converge leaves both loading cells empty."""
    def row(record: IntervalRecord) -> list[Any]:
        solution = record.solution
        if not solution.converged:
            return [record.interval, 0, solution.iterations, "", ""]
        loadings = solution.loading_percent
        return [record.interval, 1, solution.iterations,
                f"{max(loadings, default=0.0):.6f}", sum(1 for v in loadings if v >= 100.0)]
    return _csv_text(("interval", "converged", "iterations", "max_loading_percent",
                      "branches_ge_100"), map(row, records))
