"""Exact JSON round-trips of the result types (service/serde.py).

Every case goes through ``json.dumps``/``json.loads`` as the store and
the wire do, then compares with ``==``: after a round-trip the rebuilt
value must equal the original field for field, floats bit for bit.
"""

import json

import pytest

from repro.core.campaign import PlatformTuneReport, ScenarioReport
from repro.core.energy import Energy
from repro.core.methods import MethodResult
from repro.core.params import DeviceSlot, SystemConfiguration
from repro.core.portfolio import PortfolioResult, PortfolioSpec, RungEntry
from repro.dna.workloads import get_workload, workload_names
from repro.service.serde import (
    decode_config,
    decode_energy,
    decode_method_result,
    decode_platform_report,
    decode_portfolio,
    decode_scenario,
    decode_workload_spec,
    encode_config,
    encode_energy,
    encode_method_result,
    encode_platform_report,
    encode_portfolio,
    encode_scenario,
    encode_workload_spec,
)

ONE_DEVICE = SystemConfiguration(24, "scatter", 180, "balanced", 37.5)
TWO_DEVICES = SystemConfiguration(
    48,
    "compact",
    240,
    "scatter",
    100.0 / 3.0,
    extra_devices=(DeviceSlot(120, "compact", 0.1 + 0.2),),
)


def via_json(data):
    return json.loads(json.dumps(data))


def report(*, device_only_time=1.5, portfolio=None) -> PlatformTuneReport:
    return PlatformTuneReport(
        platform="Emil",
        description="test platform",
        method="SAM",
        config=ONE_DEVICE,
        measured_time=0.1 + 0.7,
        em_time=0.75,
        em_config=TWO_DEVICES,
        host_only_time=2.0 / 3.0,
        device_only_time=device_only_time,
        experiments=1000,
        search_evaluations=1234,
        space_size=19926,
        engine_batches=16,
        engine_cache_hits=3,
        training_experiments=42,
        portfolio=portfolio,
    )


def ledger() -> PortfolioResult:
    spec = PortfolioSpec(rung0=10, eta=2, entrants=("SAM", "RS"))
    return PortfolioResult(
        spec=spec,
        winner="SAM",
        entries=(
            RungEntry("SAM", 0, 10, 0.9, False),
            RungEntry("RS", 0, 10, 1.0 / 3.0, True),
        ),
        experiments=17,
        search_evaluations=20,
    )


class TestConfigurations:
    @pytest.mark.parametrize("config", [ONE_DEVICE, TWO_DEVICES], ids=["one", "two"])
    def test_round_trip(self, config):
        assert decode_config(via_json(encode_config(config))) == config

    def test_extra_devices_come_back_as_slots(self):
        rebuilt = decode_config(via_json(encode_config(TWO_DEVICES)))
        assert rebuilt.extra_devices == (DeviceSlot(120, "compact", 0.1 + 0.2),)
        assert rebuilt.num_devices == 2

    def test_decoding_reruns_validation(self):
        data = encode_config(ONE_DEVICE)
        data["host_affinity"] = "nowhere"
        with pytest.raises(ValueError, match="unknown host affinity"):
            decode_config(data)

    def test_decoding_rejects_shares_over_100(self):
        data = encode_config(TWO_DEVICES)
        data["extra_devices"][0]["share"] = 90.0
        with pytest.raises(ValueError, match="shares must sum to 100"):
            decode_config(data)


class TestEnergy:
    @pytest.mark.parametrize(
        "energy",
        [Energy(0.1, 0.2), Energy(1.0 / 3.0, 2.0 / 3.0, (0.7, 0.1 + 0.2))],
        ids=["one-device", "three-devices"],
    )
    def test_round_trip_keeps_the_parts(self, energy):
        rebuilt = decode_energy(via_json(encode_energy(energy)))
        assert rebuilt == energy
        assert rebuilt.value == energy.value


class TestWorkloadSpecs:
    @pytest.mark.parametrize("name", workload_names())
    def test_every_builtin_round_trips(self, name):
        spec = get_workload(name)
        rebuilt = decode_workload_spec(via_json(encode_workload_spec(spec)))
        assert rebuilt == spec
        assert rebuilt.content_digest() == spec.content_digest()


class TestMethodResults:
    def test_em_reference_round_trips(self):
        result = MethodResult(
            method="EM",
            config=TWO_DEVICES,
            measured=Energy(0.5, 0.25, (0.125,)),
            search_energy=Energy(0.5, 0.25, (0.125,)),
            experiments=19926,
            search_evaluations=19926,
        )
        assert decode_method_result(via_json(encode_method_result(result))) == result


class TestReports:
    def test_portfolio_ledger_round_trips(self):
        assert decode_portfolio(via_json(encode_portfolio(ledger()))) == ledger()

    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"device_only_time": None}, {"portfolio": ledger()}],
        ids=["plain", "deviceless", "with-ledger"],
    )
    def test_platform_report_round_trips(self, kwargs):
        original = report(**kwargs)
        rebuilt = decode_platform_report(via_json(encode_platform_report(original)))
        assert rebuilt == original
        # Engine counters are left out of ``==``; they still travel.
        assert rebuilt.engine_batches == original.engine_batches
        assert rebuilt.engine_cache_hits == original.engine_cache_hits

    def test_scenario_round_trips(self):
        original = ScenarioReport(workload="dna-paper", size_mb=3170.0, report=report())
        assert decode_scenario(via_json(encode_scenario(original))) == original
