"""Network model: impedance derivation, per-unit conversion, validation."""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle

import pytest

from gridstress import (
    Branch,
    Bus,
    CableType,
    Generator,
    Network,
    NominalLoad,
    derive_impedances,
    to_per_unit,
    validate_network,
)
from gridstress.benchmark import CABLE_CATALOG
from gridstress.fileio import GridFileError, emit_network_file, parse_network_file
from gridstress.network import DEFAULT_LOAD_POWER_FACTOR, reactive_kvar

from helpers import NETWORK_TEXT


def cable_ohms(cable: CableType, length_miles: float) -> complex:
    """A cable run's series impedance R + jX in ohms: to_per_unit on a
    1 kV, 1 MVA base, where Z_base is exactly 1 ohm."""
    branch = Branch("a", "b", "cable", 1000.0, cable_type=cable.name, length_miles=length_miles)
    return to_per_unit(branch, 1.0, 1.0, {cable.name: cable})


class TestCableImpedance:
    def test_forced_arithmetic(self):
        cable = CableType("c", 0.5, 0.1)
        assert cable_ohms(cable, 0.2) == pytest.approx(0.1 + 0.02j)

    def test_zero_length(self):
        cable = CableType("c", 0.7, 0.3)
        assert cable_ohms(cable, 0.0) == 0j

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            cable_ohms(CableType("c", 0.5, 0.1), -0.1)

    def test_benchmark_feeder_cable_expected_value(self):
        # Hand-recomputed: 0.095 ohm/mi * 0.08 mi and 0.141 ohm/mi * 0.08 mi.
        cable = CABLE_CATALOG["MV-feeder-A"]
        z = cable_ohms(cable, 0.08)
        assert z.real == pytest.approx(0.0076, abs=1e-12)
        assert z.imag == pytest.approx(0.01128, abs=1e-12)

    def test_linear_in_length(self, rng):
        cable = CableType("c", 0.21, 0.34)
        for _ in range(50):
            a = rng.uniform(0.0, 3.0)
            b = rng.uniform(0.0, 3.0)
            whole = cable_ohms(cable, a + b)
            parts = cable_ohms(cable, a) + cable_ohms(cable, b)
            assert whole == pytest.approx(parts, rel=1e-12)


class TestToPerUnit:
    def test_cable_unit_impedance(self):
        # Z_base = 4.16^2 / 10 = 1.73056 ohm.
        catalog = {"c": CableType("c", 1.7306, 0.0)}
        branch = Branch("a", "b", "cable", 1000.0, cable_type="c", length_miles=1.0)
        z = to_per_unit(branch, 4.16, 10.0, catalog)
        assert z.real == pytest.approx(1.0, abs=1e-4)
        assert z.imag == 0.0

    def test_transformer_rebase(self):
        branch = Branch("a", "b", "transformer", 1000.0, impedance_percent=6.0)
        z = to_per_unit(branch, 4.16, 10.0)
        assert z == pytest.approx(0.6j)

    def test_benchmark_substation_transformer_expected_value(self):
        # Hand-recomputed: 6.5% on 7.5 MVA rebased to 10 MVA -> j0.086666...
        branch = Branch("SubB", "SubB (LV)", "transformer", 7500.0, impedance_percent=6.5)
        z = to_per_unit(branch, 34.5, 10.0)
        assert z == pytest.approx(0.08666666666666667j, abs=1e-15)

    def test_zero_rating_rejected(self):
        branch = Branch("a", "b", "transformer", 0.0, impedance_percent=6.0)
        with pytest.raises(ValueError, match="rating"):
            to_per_unit(branch, 4.16, 10.0)

    def test_bad_bases_rejected(self):
        branch = Branch("a", "b", "transformer", 100.0, impedance_percent=6.0)
        with pytest.raises(ValueError, match="system base"):
            to_per_unit(branch, 4.16, 0.0)
        with pytest.raises(ValueError, match="voltage"):
            to_per_unit(branch, 0.0, 10.0)

    def test_round_trip_recovers_ohms(self, rng):
        for _ in range(50):
            r = rng.uniform(0.01, 2.0)
            x = rng.uniform(0.01, 2.0)
            kv = rng.uniform(0.4, 34.5)
            s_base = rng.uniform(1.0, 100.0)
            catalog = {"c": CableType("c", r, x)}
            branch = Branch("a", "b", "cable", 1000.0, cable_type="c", length_miles=1.0)
            z_pu = to_per_unit(branch, kv, s_base, catalog)
            z_back = z_pu * (kv * kv / s_base)
            assert abs(z_back - complex(r, x)) / abs(complex(r, x)) < 1e-12


def _tiny_net(**overrides) -> Network:
    buses = overrides.pop("buses", (
        Bus("s", "slack", 4.16),
        Bus("a", "load", 4.16, NominalLoad(100.0, 30.0)),
    ))
    branches = overrides.pop("branches", (
        Branch("s", "a", "cable", 1000.0, cable_type="c", length_miles=0.5),
    ))
    catalog = overrides.pop("cable_catalog", {"c": CableType("c", 0.2, 0.3)})
    net = Network(10.0, buses, branches, overrides.pop("generators", ()), catalog)
    return derive_impedances(net)


class TestValidateNetwork:
    def test_benchmark_fixture_is_clean(self, bench):
        assert validate_network(bench.network) == []

    def test_tiny_net_is_clean(self):
        assert validate_network(_tiny_net()) == []

    def test_two_slack_buses(self):
        net = _tiny_net(buses=(
            Bus("s", "slack", 4.16),
            Bus("a", "slack", 4.16),
        ))
        report = validate_network(net)
        assert len(report) == 1
        assert report[0].code == "multiple-slack"

    def test_duplicate_bus(self):
        net = _tiny_net(buses=(
            Bus("s", "slack", 4.16),
            Bus("a", "load", 4.16),
            Bus("a", "load", 4.16),
        ))
        assert [str(v) for v in validate_network(net)] == [
            "duplicate-bus: a: bus id is not unique"]

    def test_parallel_branches_share_an_id(self):
        cable = Branch("s", "a", "cable", 1000.0, cable_type="c", length_miles=0.5)
        net = _tiny_net(branches=(cable, cable))
        assert [str(v) for v in validate_network(net)] == [
            "duplicate-branch: s -> a: branch id is not unique"]

    def test_dangling_endpoint(self):
        net = _tiny_net(branches=(
            Branch("s", "ghost", "cable", 1000.0, cable_type="c", length_miles=0.5),
        ))
        report = validate_network(net)
        codes = [v.code for v in report]
        assert codes.count("dangling-endpoint") == 1
        assert any("ghost" in v.message for v in report)

    def test_pure_same_report_twice(self):
        net = _tiny_net(buses=(Bus("s", "slack", 4.16), Bus("a", "load", -1.0)))
        assert validate_network(net) == validate_network(net)
        assert any(v.code == "nonpositive-base-voltage" for v in validate_network(net))

    def test_disconnected_graph(self):
        net = _tiny_net(buses=(
            Bus("s", "slack", 4.16),
            Bus("a", "load", 4.16),
            Bus("island", "load", 4.16),
        ))
        report = validate_network(net)
        assert [v.code for v in report] == ["disconnected"]
        assert "island" in report[0].element

    def test_zero_impedance_branch(self):
        net = _tiny_net(
            cable_catalog={"c": CableType("c", 0.0, 0.0)},
        )
        codes = {v.code for v in validate_network(net)}
        assert "zero-cable-impedance" in codes
        assert "zero-impedance" in codes

    def test_unknown_cable_type(self):
        net = _tiny_net(branches=(
            Branch("s", "a", "cable", 1000.0, cable_type="nope", length_miles=0.5),
        ))
        codes = [v.code for v in validate_network(net)]
        assert "unknown-cable-type" in codes

    def test_cable_voltage_mismatch(self):
        net = _tiny_net(buses=(
            Bus("s", "slack", 4.16),
            Bus("a", "load", 0.48),
        ))
        codes = [v.code for v in validate_network(net)]
        assert "voltage-mismatch" in codes

    def test_grid_supply_off_slack(self):
        net = _tiny_net(generators=(Generator("a", "grid_supply", 1000.0),))
        codes = [v.code for v in validate_network(net)]
        assert codes == ["grid-supply-off-slack"]

    def test_pv_capacity_must_be_positive(self):
        net = _tiny_net(generators=(Generator("a", "pv_site", 0.0),))
        codes = [v.code for v in validate_network(net)]
        assert codes == ["nonpositive-capacity"]

    def test_nonpositive_rating(self):
        net = _tiny_net(branches=(
            Branch("s", "a", "cable", 0.0, cable_type="c", length_miles=0.5),
        ))
        codes = [v.code for v in validate_network(net)]
        assert "nonpositive-rating" in codes

    @pytest.mark.parametrize("old, new, diagnostic", [
        ('"cable_type": "c"', '"cable_type": "nope"',
         "unknown-cable-type: s -> a: cable type 'nope' not in catalog"),
        ('"rating": 500.0', '"rating": -5',
         "nonpositive-rating: a -> b: rating must be > 0 kVA, got -5.0"),
        ('"s_base_mva": 10.0', '"s_base_mva": 0',
         "nonpositive-system-base: network: s_base_mva must be > 0, got 0.0"),
        ('"s_base_mva": 10.0', '"s_base_mva": 5e-324',
         "degenerate-system-base: network: 1000 * s_base_mva and 1 / s_base_mva must be "
         "finite, got s_base_mva 5e-324"),
        ('"s_base_mva": 10.0', '"s_base_mva": 1e306',
         "degenerate-system-base: network: 1000 * s_base_mva and 1 / s_base_mva must be "
         "finite, got s_base_mva 1e+306"),
    ])
    def test_unresolved_branch_is_one_diagnostic(self, old, new, diagnostic):
        """A branch that derive_impedances leaves underived because of
        another violation is reported for that violation only."""
        with pytest.raises(GridFileError) as info:
            parse_network_file(NETWORK_TEXT.replace(old, new))
        assert info.value.diagnostics == [diagnostic]

    def test_underived_network_is_reported(self):
        net = parse_network_file(NETWORK_TEXT)
        underived = dataclasses.replace(net, branches=tuple(
            dataclasses.replace(b, series_impedance_pu=None) for b in net.branches))
        assert [str(v) for v in validate_network(underived)] == [
            "underived-impedance: s -> a: series_impedance_pu has not been derived",
            "underived-impedance: a -> b: series_impedance_pu has not been derived"]


class TestReactiveDefaults:
    def test_power_factor_conversion(self):
        # 420 kW at 0.95 lagging -> 138.047... kvar (hand calculation).
        assert reactive_kvar(420.0) == pytest.approx(138.04732417512255)

    def test_apparent_power_is_at_the_default_power_factor(self):
        for kw in (0.5, 500.0, 12000.0):
            assert kw / math.hypot(kw, reactive_kvar(kw)) == pytest.approx(
                DEFAULT_LOAD_POWER_FACTOR, rel=1e-12)


class TestNetworkContainer:
    def test_benchmark_shape(self, bench):
        net = bench.network
        assert len(net.buses) == 46
        assert len(net.branches) == 45
        assert net.slack_id() == "DWP Pole"
        assert sum(1 for bus in net.buses if bus.kind != "slack") == 45
        assert len(net.pv_sites()) == 3

    def test_slack_lookup_requires_exactly_one(self):
        net = _tiny_net(buses=(Bus("a", "load", 4.16), Bus("b", "load", 4.16)))
        with pytest.raises(ValueError, match="slack"):
            net.slack_id()

    def test_branch_id_is_derived(self):
        branch = Branch("x", "y", "cable", 10.0, cable_type="c", length_miles=1.0)
        assert branch.id == "x -> y"

    def test_derivation_leaves_unresolvable_branches(self):
        net = Network(10.0, (Bus("s", "slack", 4.16), Bus("a", "load", 4.16)),
                      (Branch("s", "a", "cable", 100.0, cable_type="missing",
                              length_miles=1.0),), (), {})
        derived = derive_impedances(net)
        assert derived.branches[0].series_impedance_pu is None
        assert any(v.code == "unknown-cable-type" for v in validate_network(derived))

    def test_network_is_frozen(self, bench):
        with pytest.raises(dataclasses.FrozenInstanceError):
            bench.network.s_base_mva = 1.0

    def test_cable_catalog_is_read_only(self, bench):
        with pytest.raises(TypeError):
            bench.network.cable_catalog["MV-feeder-A"] = CableType("x", 0.0, 0.0)
        with pytest.raises(TypeError):
            del bench.network.cable_catalog["MV-feeder-A"]
        source = {"c": CableType("c", 0.2, 0.3)}
        net = _tiny_net(cable_catalog=source)
        source["c"] = CableType("c", 9.0, 9.0)
        assert net.cable_catalog["c"] == CableType("c", 0.2, 0.3)

    def test_read_only_catalog_keeps_equality_replace_and_derivation(self, bench):
        net = bench.network
        assert net == dataclasses.replace(net)
        assert _tiny_net() == _tiny_net()
        assert _tiny_net() != _tiny_net(cable_catalog={"c": CableType("c", 0.2, 0.4)})
        replaced = dataclasses.replace(net, s_base_mva=5.0)
        with pytest.raises(TypeError):
            replaced.cable_catalog["c"] = CableType("c", 0.2, 0.3)
        assert replaced.cable_catalog == net.cable_catalog
        underived = dataclasses.replace(net, branches=tuple(
            dataclasses.replace(b, series_impedance_pu=None) for b in net.branches))
        assert derive_impedances(underived) == net

    def test_read_only_catalog_round_trips(self, bench):
        emitted = emit_network_file(bench.network)
        parsed = parse_network_file(emitted)
        assert parsed == bench.network
        assert emit_network_file(parsed) == emitted
        assert pickle.loads(pickle.dumps(bench.network)) == bench.network
        assert copy.deepcopy(bench.network) == bench.network
