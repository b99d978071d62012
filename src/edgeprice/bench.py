"""Monte Carlo experiment harness: scheme comparison over parameter sweeps.

Each trial samples a fresh scenario and scores three schemes: the uniform
shared price, per-user prices, and an all-local baseline that never
offloads (every user priced at ``NO_OFFLOAD_PRICE``). Scored quantities are
the revenue and the mean over users of the equilibrium task latency. Sweeps
vary either the cloud cycle capacity or the number of users and write a
flat CSV.

Seeding: a trial at sweep point i with trial index j uses
base_seed + i * 10**6 + j, except capacity sweeps, which drop the point term
so the same user populations recur at every capacity (capacity never enters
sampling, and pairing makes the all-local baseline exactly constant across
points). A spec is rejected up front when two trials would share a seed
(repeated sweep values, more than 10**6 trials per point of a user sweep) or
when its last trial seed does not fit in 64 bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .differentiated import solve_differentiated
from .scenario import (Scenario, ScenarioConfig, config_from_mapping,
                       parse_number, read_key_values, sample_scenario)
from .text import EXACT
from .uniform import NO_OFFLOAD_PRICE, evaluate_price, solve_uniform

# Each scheme's outcome; keeping every user local is pricing all of them out.
SOLVERS = {"uniform": solve_uniform,
           "differentiated": solve_differentiated,
           "local_only": lambda s: evaluate_price(s, NO_OFFLOAD_PRICE)}
SCHEMES = tuple(SOLVERS)

SWEEP_CAPACITY = "capacity_cycles"
SWEEP_NUM_USERS = "num_users"
SWEEP_PARAMS = (SWEEP_CAPACITY, SWEEP_NUM_USERS)

CSV_HEADER = "scheme,sweep_param,sweep_value,seed,avg_latency_s,revenue_s"
_CSV_ROW = "%s,%s,{0},%d,{0},{0}\n".format(EXACT)   # a TrialResult's line

# Seed offset between sweep points; see the module docstring.
_POINT_STRIDE = 10**6


@dataclass(frozen=True)
class TrialResult:
    scheme: str
    sweep_param: str
    sweep_value: float
    seed: int
    avg_latency_s: float
    revenue_s: float


@dataclass(frozen=True)
class SweepSpec:
    sweep_param: str
    sweep_values: tuple[float, ...]
    trials: int
    base: ScenarioConfig


def local_only_latency(scenario: Scenario) -> float:
    """Mean over users of the all-local time data_bits * cycles_per_bit / cpu."""
    return run_trial(scenario, "local_only").avg_latency_s


def run_trial(scenario: Scenario, scheme: str, sweep_param: str = "none",
              sweep_value: float = 0.0, seed: int = 0) -> TrialResult:
    if scheme not in SOLVERS:
        raise ValueError(f"unknown scheme {scheme!r}")
    outcome = SOLVERS[scheme](scenario)
    latency = (math.fsum(outcome.decisions.latency_s.tolist())
               / len(outcome.decisions))
    return TrialResult(scheme=scheme, sweep_param=sweep_param,
                       sweep_value=sweep_value, seed=seed,
                       avg_latency_s=latency, revenue_s=outcome.revenue_s)


def _validate_spec(spec: SweepSpec) -> None:
    if spec.sweep_param not in SWEEP_PARAMS:
        raise ValueError(f"sweep_param must be one of {SWEEP_PARAMS}, "
                         f"got {spec.sweep_param!r}")
    if not spec.sweep_values:
        raise ValueError("sweep_values must be nonempty")
    for v in spec.sweep_values:
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"sweep value must be finite and > 0 (got {v})")
        if spec.sweep_param == SWEEP_NUM_USERS and v != int(v):
            raise ValueError(f"num_users sweep values must be integral (got {v})")
    if len(set(spec.sweep_values)) != len(spec.sweep_values):
        raise ValueError(f"sweep_values must be distinct (got {spec.sweep_values})")
    if spec.trials < 1:
        raise ValueError(f"trials must be >= 1 (got {spec.trials})")
    if spec.sweep_param == SWEEP_NUM_USERS and spec.trials > _POINT_STRIDE:
        raise ValueError(f"trials must be <= {_POINT_STRIDE} in num_users sweeps, "
                         f"or seeds of adjacent points collide (got {spec.trials})")
    last = trial_seed(spec, len(spec.sweep_values) - 1, spec.trials - 1)
    if last >= 2**64:
        raise ValueError(f"seed {spec.base.seed} is too large: the last trial seed "
                         f"{last} is not an unsigned 64-bit integer")


def trial_seed(spec: SweepSpec, point_index: int, trial_index: int) -> int:
    if spec.sweep_param == SWEEP_CAPACITY:
        return spec.base.seed + trial_index
    return spec.base.seed + point_index * _POINT_STRIDE + trial_index


def run_sweep(spec: SweepSpec) -> list[TrialResult]:
    """All (point, trial, scheme) results, deterministic in (spec, base seed)."""
    _validate_spec(spec)
    results: list[TrialResult] = []
    for i, value in enumerate(spec.sweep_values):
        if spec.sweep_param == SWEEP_CAPACITY:
            point_cfg = replace(spec.base, capacity_cycles=value)
        else:
            point_cfg = replace(spec.base, num_users=int(value))
        for j in range(spec.trials):
            seed = trial_seed(spec, i, j)
            scenario = sample_scenario(replace(point_cfg, seed=seed))
            for scheme in SCHEMES:
                results.append(run_trial(scenario, scheme,
                                         sweep_param=spec.sweep_param,
                                         sweep_value=float(value), seed=seed))
    return results


def format_csv(results: list[TrialResult]) -> str:
    return CSV_HEADER + "\n" + "".join([
        _CSV_ROW % (r.scheme, r.sweep_param, r.sweep_value, r.seed,
                    r.avg_latency_s, r.revenue_s) for r in results])


def write_csv(results: list[TrialResult], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_csv(results))


def read_csv(path: str) -> list[TrialResult]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: missing header {CSV_HEADER!r}")
    width = len(CSV_HEADER.split(","))
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} fields, "
                             f"got {len(cells)}")
        scheme, param, value, seed, latency, revenue = cells
        try:
            out.append(TrialResult(scheme=scheme, sweep_param=param,
                                   sweep_value=float(value), seed=int(seed),
                                   avg_latency_s=float(latency),
                                   revenue_s=float(revenue)))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return out


_SWEEP_KEYS = {"sweep_param", "sweep_values", "trials"}


def load_sweep_spec(path: str) -> SweepSpec:
    """Sweep config file: sweep_param, sweep_values (comma separated), trials,
    plus any scenario config keys for the base instance."""
    mapping = read_key_values(path)
    try:
        missing = _SWEEP_KEYS - mapping.keys()
        if missing:
            raise ValueError(f"missing sweep keys {sorted(missing)}")
        values = tuple(parse_number("sweep_values", v.strip())
                       for v in mapping["sweep_values"].split(",") if v.strip())
        base_keys = {k: v for k, v in mapping.items() if k not in _SWEEP_KEYS}
        known = {f.name for f in fields(ScenarioConfig)}
        unknown = base_keys.keys() - known
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        spec = SweepSpec(sweep_param=mapping["sweep_param"], sweep_values=values,
                         trials=parse_number("trials", mapping["trials"], int),
                         base=config_from_mapping(base_keys))
        _validate_spec(spec)
    except ValueError as exc:  # name the file; the message names the key
        raise ValueError(f"{path}: {exc}") from None
    return spec
