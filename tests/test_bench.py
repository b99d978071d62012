import math
import re
import struct
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgeprice import (OffloadDecision, ScenarioConfig, SweepSpec, TrialResult,
                       compute_kinetics, local_only_latency, read_csv, run_sweep, run_trial,
                       sample_scenario, solve_differentiated, solve_uniform,
                       validate_scenario, write_csv)
from edgeprice.bench import (CSV_HEADER, SCHEMES, SWEEP_PARAMS, format_csv,
                             load_sweep_spec, trial_seed)
from edgeprice.kinetics import user_columns
from edgeprice.verify import random_scenario_config

from conftest import (balanced_single_user_scenario, balanced_two_user_scenario,
                      fsum_mean)


def test_local_only_trial_hand_value():
    # 8e5 bits at 1000 cycles/bit on a 1 GHz CPU
    scenario = balanced_single_user_scenario()
    result = run_trial(scenario, "local_only")
    assert result.avg_latency_s == pytest.approx(0.8, rel=1e-12)
    assert result.revenue_s == 0.0


def test_uniform_trial_hand_value():
    result = run_trial(balanced_two_user_scenario(), "uniform")
    assert result.revenue_s == pytest.approx(0.7, rel=1e-9)


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError, match="scheme"):
        run_trial(balanced_single_user_scenario(), "free_lunch")


def test_trial_matches_solvers():
    rng = np.random.default_rng(61)
    for _ in range(20):
        s = sample_scenario(random_scenario_config(rng))
        uni = run_trial(s, "uniform")
        diff = run_trial(s, "differentiated")
        assert uni.revenue_s == solve_uniform(s).revenue_s
        assert diff.revenue_s == solve_differentiated(s).revenue_s
        assert diff.revenue_s >= uni.revenue_s - 1e-12 * (1.0 + uni.revenue_s)
        assert uni.avg_latency_s == pytest.approx(
            fsum_mean(d.latency_s for d in solve_uniform(s).decisions), rel=0)
        local = run_trial(s, "local_only")
        assert local.avg_latency_s == local_only_latency(s)
        assert uni.avg_latency_s <= local.avg_latency_s
        assert diff.avg_latency_s <= local.avg_latency_s


def _spec(**overrides):
    base = dict(sweep_param="capacity_cycles", sweep_values=(2e9, 4e9, 6e9),
                trials=1, base=ScenarioConfig(num_users=4, seed=9))
    base.update(overrides)
    return SweepSpec(**base)


@pytest.mark.parametrize("num_users", [12, 25])  # enumeration and branch-and-bound paths
def test_trial_validates_once_and_derives_kinetics_once(num_users):
    # counted by code object, so no import alias can hide a call; the
    # kinetics are derived once, as columns, and the scalar form never runs
    watched = {validate_scenario.__code__: "validate",
               user_columns.__code__: "columns",
               compute_kinetics.__code__: "scalar kinetics"}
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            calls[watched[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        scenario = sample_scenario(ScenarioConfig(num_users=num_users, seed=4))
        for scheme in SCHEMES:
            run_trial(scenario, scheme)
    finally:
        sys.setprofile(None)
    assert calls == {"validate": 1, "columns": 1}


def test_trial_builds_no_decision_records():
    # the mean latency is summed from the latency column; the records are
    # built only for a reader of the outcome's decisions
    scenario = sample_scenario(ScenarioConfig(num_users=30, seed=4))
    built = 0

    def profile(frame, event, arg):
        nonlocal built
        if event == "call" and frame.f_code is OffloadDecision.__init__.__code__:
            built += 1

    sys.setprofile(profile)
    try:
        results = [run_trial(scenario, scheme) for scheme in SCHEMES]
    finally:
        sys.setprofile(None)
    assert built == 0
    assert results[0].avg_latency_s == fsum_mean(
        [d.latency_s for d in solve_uniform(scenario).decisions])


def test_sweep_result_count():
    results = run_sweep(_spec())
    assert len(results) == 9  # 3 points x 1 trial x 3 schemes
    assert [r.scheme for r in results[:3]] == list(SCHEMES)


def test_sweep_validation():
    with pytest.raises(ValueError, match="trials"):
        run_sweep(_spec(trials=0))
    with pytest.raises(ValueError, match="nonempty"):
        run_sweep(_spec(sweep_values=()))
    with pytest.raises(ValueError, match="sweep_param"):
        run_sweep(_spec(sweep_param="alpha"))
    with pytest.raises(ValueError, match="integral"):
        run_sweep(_spec(sweep_param="num_users", sweep_values=(2.5,)))
    with pytest.raises(ValueError, match="distinct"):
        run_sweep(_spec(sweep_values=(2e9, 4e9, 2e9)))
    with pytest.raises(ValueError, match="collide"):
        run_sweep(_spec(sweep_param="num_users", sweep_values=(2.0, 4.0),
                        trials=10**6 + 1))
    with pytest.raises(ValueError, match="64-bit"):
        run_sweep(_spec(trials=3, base=ScenarioConfig(num_users=4,
                                                      seed=2**64 - 2)))


def test_sweep_deterministic():
    assert run_sweep(_spec(trials=3)) == run_sweep(_spec(trials=3))


def test_capacity_sweep_seeds_are_paired():
    spec = _spec(trials=2)
    assert trial_seed(spec, 0, 1) == trial_seed(spec, 2, 1)
    user_spec = _spec(sweep_param="num_users", sweep_values=(2.0, 4.0), trials=2)
    assert trial_seed(user_spec, 1, 3) == user_spec.base.seed + 10**6 + 3
    assert trial_seed(user_spec, 0, 3) != trial_seed(user_spec, 1, 3)


def test_local_only_identical_across_capacity_points():
    results = run_sweep(_spec(trials=2))
    by_point = {}
    for r in results:
        if r.scheme == "local_only":
            by_point.setdefault(r.sweep_value, []).append(r.avg_latency_s)
    latencies = list(by_point.values())
    assert all(lat == latencies[0] for lat in latencies)


def test_csv_round_trip(tmp_path):
    results = run_sweep(_spec(trials=2))
    path = tmp_path / "sweep.csv"
    write_csv(results, str(path))
    text = path.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert len(text.splitlines()) == len(results) + 1
    assert read_csv(str(path)) == results


# -0.0, the smallest and largest subnormals, the smallest normal, both
# infinities, and values whose shortest repr needs all 17 digits
csv_floats = st.one_of(
    st.sampled_from((-0.0, 5e-324, -2.225073858507201e-308,
                     2.2250738585072014e-308, math.inf, -math.inf,
                     0.30000000000000004, 1.0000000000000002,
                     1.7976931348623157e308)),
    st.floats(allow_nan=True, allow_infinity=True))
trial_results = st.builds(TrialResult, scheme=st.sampled_from(SCHEMES),
                          sweep_param=st.sampled_from(SWEEP_PARAMS),
                          sweep_value=csv_floats,
                          seed=st.integers(0, 2**64 - 1),
                          avg_latency_s=csv_floats, revenue_s=csv_floats)


def _float_bits(x: float) -> bytes:
    """The bit pattern of ``x``; every NaN is one NaN."""
    return b"nan" if math.isnan(x) else struct.pack("<d", x)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.lists(trial_results, max_size=4))
def test_csv_round_trip_keeps_every_bit(tmp_path_factory, results):
    # dataclass equality would let -0.0 read back as 0.0, so compare bits
    path = str(tmp_path_factory.mktemp("csv") / "trials.csv")
    write_csv(results, path)
    back = read_csv(path)
    assert [(r.scheme, r.sweep_param, r.seed) for r in back] == \
        [(r.scheme, r.sweep_param, r.seed) for r in results]
    for got, sent in zip(back, results):
        for name in ("sweep_value", "avg_latency_s", "revenue_s"):
            assert _float_bits(getattr(got, name)) == \
                _float_bits(getattr(sent, name)), name


def test_csv_empty_results(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv([], str(path))
    assert path.read_text() == CSV_HEADER + "\n"
    assert read_csv(str(path)) == []


def test_csv_rejects_foreign_file(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        read_csv(str(path))


def test_sweep_validation_limits_are_inclusive(tmp_path):
    # the largest accepted spec on each new limit loads without running
    path = tmp_path / "limits.cfg"
    path.write_text("sweep_param = num_users\n"
                    "sweep_values = 2, 4\n"
                    f"trials = {10**6}\n"
                    f"seed = {2**64 - 2 * 10**6}\n")
    spec = load_sweep_spec(str(path))
    assert trial_seed(spec, 1, spec.trials - 1) == 2**64 - 1


def test_csv_errors_name_path_and_line(tmp_path):
    good = "uniform,capacity_cycles,2000000000,7,0.7,0.25"
    path = tmp_path / "bad.csv"
    path.write_text(f"{CSV_HEADER}\n{good}\n{good.rsplit(',', 1)[0]}\n")
    with pytest.raises(ValueError,
                       match=re.escape(f"{path}:3: expected 6 fields, got 5")):
        read_csv(str(path))
    path.write_text(f"{CSV_HEADER}\n{good.replace('0.7', 'fast')}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: could not convert")):
        read_csv(str(path))


def test_format_csv_stable_bytes():
    results = [TrialResult(scheme="uniform", sweep_param="capacity_cycles",
                           sweep_value=2e9, seed=7, avg_latency_s=0.7,
                           revenue_s=1.0 / 3.0)]
    assert format_csv(results) == (
        CSV_HEADER + "\n"
        "uniform,capacity_cycles,2000000000,7,"
        "0.69999999999999996,0.33333333333333331\n")


def test_load_sweep_spec(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "sweep_param = capacity_cycles\n"
        "sweep_values = 2e9, 4e9, 6e9\n"
        "trials = 5\n"
        "num_users = 10\n"
        "seed = 3\n")
    spec = load_sweep_spec(str(path))
    assert spec == SweepSpec(sweep_param="capacity_cycles",
                             sweep_values=(2e9, 4e9, 6e9), trials=5,
                             base=ScenarioConfig(num_users=10, seed=3))


def test_load_sweep_spec_missing_keys(tmp_path):
    path = tmp_path / "incomplete.cfg"
    path.write_text("sweep_param = capacity_cycles\n")
    with pytest.raises(ValueError, match="missing sweep keys"):
        load_sweep_spec(str(path))


@pytest.mark.parametrize("line, message", [
    ("sweep_values = 2e9, 4e9x", "sweep_values: expected float, got '4e9x'"),
    ("trials = 2.5", "trials: expected int, got '2.5'"),
    ("capacity_cycles = lots", "capacity_cycles: expected float, got 'lots'"),
    ("num_users = 2.5", "num_users: expected int, got '2.5'"),
], ids=["sweep_values", "trials", "capacity_cycles", "num_users"])
def test_load_sweep_spec_bad_value_names_path_and_key(tmp_path, line, message):
    path = tmp_path / "sweep.cfg"
    lines = {"sweep_param": "sweep_param = capacity_cycles",
             "sweep_values": "sweep_values = 2e9",
             "trials": "trials = 1"}
    lines[line.split("=")[0].strip()] = line
    path.write_text("\n".join(lines.values()) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        load_sweep_spec(str(path))


def test_load_sweep_spec_unknown_key(tmp_path):
    path = tmp_path / "typo.cfg"
    path.write_text(
        "sweep_param = capacity_cycles\n"
        "sweep_values = 2e9\n"
        "trials = 1\n"
        "bandwith_hz = 1e6\n")
    with pytest.raises(ValueError, match="unknown keys"):
        load_sweep_spec(str(path))
