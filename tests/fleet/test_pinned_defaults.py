"""Pin the fleet values that are fixed constants, not caller options.

``FleetConfig.as_dict()`` is echoed into every fleet payload and into the
committed ``BENCH_fleet_quick.json`` baseline, and the surge soak echoes
its shape and SLO gates; these literals must not drift.
"""

from repro.fleet.dispatcher import FleetConfig
from repro.fleet.harness import run_surge_soak


def test_fleet_config_defaults_are_pinned():
    assert FleetConfig().as_dict() == {
        "boards": 4,
        "tenants_per_board": 2,
        "seed": 1,
        "ticks": 32,
        "tick_ms": 2.0,
        "tick_hz": 100,
        "tasks": ["fft256", "qam16"],
        "deadline_ticks": 3,
        "checkpoint_every_ticks": 4,
        "max_tenants_per_board": 4,
        "workers": "inline",
        "rate_per_tick": 0.1,
        "burst_period_ticks": 16,
        "burst_factor": 2.0,
        "overload": None,
    }


def test_surge_soak_echoes_its_fixed_shape_and_gates():
    payload = run_surge_soak()
    assert payload["boards"] == 3
    assert payload["ticks"] == 96
    assert payload["surge_factors"] == [4.0, 8.0, 16.0]
    assert payload["slo"]["critical_p99"]["slack"] == 1.10
    assert payload["slo"]["critical_goodput_floor"]["relative_floor"] == 0.55
    assert payload["ok"]
