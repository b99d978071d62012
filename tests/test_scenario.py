import math
import re
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from edgeprice import (BITS_PER_KB, Scenario, ScenarioConfig, dbm_to_watts,
                       sample_scenario, validate_scenario)
from edgeprice.scenario import (config_from_mapping, config_violations,
                                load_scenario_config)

from conftest import make_profile, make_system


def test_sampling_deterministic_for_fixed_seed():
    cfg = ScenarioConfig(num_users=30, seed=1234)
    assert sample_scenario(cfg) == sample_scenario(cfg)


def test_different_seeds_differ():
    a = sample_scenario(ScenarioConfig(num_users=5, seed=1))
    b = sample_scenario(ScenarioConfig(num_users=5, seed=2))
    assert a != b


def test_local_cpu_on_discrete_grid():
    # 0.1..1.0 GHz in 0.1 GHz steps, hit exactly
    grid = {(i + 1) * 1e8 for i in range(10)}
    s = sample_scenario(ScenarioConfig(num_users=30, seed=9))
    assert all(u.local_cpu_cps in grid for u in s.users)


def test_data_bits_range_from_kb_conversion():
    lo, hi = 100.0 * BITS_PER_KB, 500.0 * BITS_PER_KB
    assert (lo, hi) == (8e5, 4e6)
    s = sample_scenario(ScenarioConfig(num_users=200, seed=3))
    assert all(lo <= u.data_bits <= hi for u in s.users)


def test_dbm_anchors():
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-15)
    # direct evaluation of 10^(-20.4)
    assert dbm_to_watts(-174.0) == pytest.approx(10.0 ** -20.4, rel=1e-12)
    assert dbm_to_watts(-174.0) == pytest.approx(3.981e-21, rel=1e-3)


def test_sampled_values_inside_configured_ranges():
    total = 0
    rng = np.random.default_rng(77)
    while total < 10_000:
        cfg = ScenarioConfig(num_users=100, seed=int(rng.integers(0, 2**63)))
        s = sample_scenario(cfg)
        for u in s.users:
            assert cfg.data_kb_min * BITS_PER_KB <= u.data_bits <= cfg.data_kb_max * BITS_PER_KB
            assert cfg.cycles_per_bit_min <= u.cycles_per_bit <= cfg.cycles_per_bit_max
            assert cfg.local_cpu_min_cps <= u.local_cpu_cps <= cfg.local_cpu_max_cps
            assert 10.0 ** (cfg.gain_db_min / 10) <= u.channel_gain_linear <= 10.0 ** (cfg.gain_db_max / 10)
        total += len(s.users)


def test_noise_power_per_subband_positive():
    cfg = ScenarioConfig()
    n0 = dbm_to_watts(cfg.noise_dbm_per_hz)
    for k in (1, 10, 100, 1000, 10_000):
        p = (cfg.bandwidth_hz / k) * n0
        assert math.isfinite(p) and p > 0


def test_validate_default_scenario_clean():
    s = sample_scenario(ScenarioConfig(num_users=10, seed=5))
    assert validate_scenario(s) == []


def test_validate_flags_zero_output_ratio():
    system = make_system(1, 6e9)
    bad = make_profile(output_ratio=0.0)
    # exactly one problem, naming the field
    with pytest.raises(ValueError,
                       match=r"^invalid scenario: user 0: output_ratio [^;]*$"):
        Scenario(system=system, users=(bad,))


def test_validate_flags_user_count_mismatch():
    system = make_system(3, 6e9)
    with pytest.raises(ValueError,
                       match=r"^invalid scenario: [^;]*num_users [^;]*$"):
        Scenario(system=system, users=(make_profile(),))


def test_invalid_config_bounds_rejected():
    bad = ScenarioConfig(gain_db_min=-30.0, gain_db_max=-50.0)
    assert config_violations(bad)
    with pytest.raises(ValueError, match="gain_db_min"):
        sample_scenario(bad)
    with pytest.raises(ValueError, match="num_users"):
        sample_scenario(ScenarioConfig(num_users=0))


@pytest.mark.parametrize("name", [f.name for f in fields(ScenarioConfig)
                                  if f.name not in ("num_users", "seed")])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_config_field_rejected(name, value):
    bad = ScenarioConfig(**{name: value})
    assert any(v.startswith(f"{name} must be finite")
               for v in config_violations(bad))
    with pytest.raises(ValueError, match=rf"\b{name} must be finite"):
        sample_scenario(bad)


@pytest.mark.parametrize("overrides, name", [
    ({"gain_db_min": -1e308, "gain_db_max": 1e308}, "gain_db_max - gain_db_min"),
    ({"local_cpu_max_cps": 1e300}, "local_cpu_max_cps"),
    ({"local_cpu_step_cps": 1e-320}, "local_cpu_step_cps"),
    ({"gain_db_min": 3990.0, "gain_db_max": 4000.0}, "gain_db_min"),
    ({"gain_db_min": -4000.0}, "gain_db_min"),
    ({"noise_dbm_per_hz": 4000.0}, "noise_dbm_per_hz"),
    ({"data_kb_max": 1e306}, "data_kb_max"),
], ids=["gain_span", "cpu_max", "cpu_step", "gain_overflow", "gain_underflow",
        "noise_overflow", "data_overflow"])
def test_config_bound_out_of_range_rejected(overrides, name):
    bad = ScenarioConfig(**overrides)
    assert any(name in v for v in config_violations(bad))
    with pytest.raises(ValueError, match=rf"invalid scenario config: .*"
                                         rf"{re.escape(name)}"):
        sample_scenario(bad)


def _grid_speeds(lo, hi, step):
    # the local CPU grid written out, as sampling once built it
    steps = int(round((hi - lo) / step)) + 1
    grid = lo + step * np.arange(steps)
    return grid[grid <= hi * (1 + 1e-12)]


@pytest.mark.parametrize("lo, hi, step, points", [
    (1e8, 1e9, 1e8, 10),
    (1e8, 1e9, 3.5e8, 3),      # the span rounds to 4 points; the last exceeds max
    (1e8, 1e9, 7e7, 13),
    (3e8, 1.7e9, 1.1e8, 13),
    (2.5e8, 2.5e8, 1e8, 1),
    (1e8, 1e9, 1e3, 900_001),
])
def test_local_cpu_draws_match_the_grid(lo, hi, step, points):
    cfg = ScenarioConfig(num_users=200, seed=21, local_cpu_min_cps=lo,
                         local_cpu_max_cps=hi, local_cpu_step_cps=step)
    grid = _grid_speeds(lo, hi, step)
    assert len(grid) == points
    rng = np.random.default_rng(cfg.seed)
    rng.uniform(cfg.gain_db_min, cfg.gain_db_max, cfg.num_users)
    idx = rng.integers(0, len(grid), cfg.num_users)
    speeds = [u.local_cpu_cps for u in sample_scenario(cfg).users]
    assert speeds == [float(grid[i]) for i in idx]
    if points <= 13:
        assert set(speeds) == set(grid.tolist())


def test_sampling_does_not_build_the_local_cpu_grid():
    # a 1 kHz step puts 900,001 points on the default range
    cfg = ScenarioConfig(num_users=3, local_cpu_step_cps=1e3)
    # the first draw imports numpy.random, which is not what is measured
    sample_scenario(ScenarioConfig(num_users=3))
    tracemalloc.start()
    try:
        sample_scenario(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(
        "# sample scenario\n"
        "num_users = 7\n"
        "seed = 42\n"
        "capacity_cycles = 2e9   # tight budget\n"
        "bandwidth_hz = 2e6\n")
    cfg = load_scenario_config(str(path))
    assert cfg == ScenarioConfig(num_users=7, seed=42, capacity_cycles=2e9,
                                 bandwidth_hz=2e6)


def test_config_file_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown"):
        config_from_mapping({"bandwidth": "1e6"})


@pytest.mark.parametrize("line, message", [
    ("num_users = 2.5", "num_users: expected int, got '2.5'"),
    ("seed = 1e3", "seed: expected int, got '1e3'"),
    ("capacity_cycles = lots", "capacity_cycles: expected float, got 'lots'"),
], ids=["num_users", "seed", "capacity_cycles"])
def test_config_file_bad_value_names_path_and_key(tmp_path, line, message):
    path = tmp_path / "scenario.cfg"
    path.write_text(f"bandwidth_hz = 2e6\n{line}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        load_scenario_config(str(path))


def test_config_file_duplicate_key_rejected(tmp_path):
    path = tmp_path / "twice.cfg"
    path.write_text("num_users = 5\nseed = 1\n num_users = 7 # again\n")
    with pytest.raises(ValueError,
                       match=re.escape(f"{path}:3: duplicate key 'num_users'")):
        load_scenario_config(str(path))


def test_config_file_bad_line(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("num_users 7\n")
    with pytest.raises(ValueError, match="key = value"):
        load_scenario_config(str(path))
