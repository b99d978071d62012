"""Problem instances: system and per-user parameters, random generation, validation.

All internal arithmetic is in SI base units (bits, seconds, Hz, W, CPU cycles).
dB and dBm quantities exist only at the configuration boundary and are converted
on the way in. A ``ScenarioConfig`` and a ``Scenario`` each check themselves
once, when built (``dataclasses.replace`` too); the sampler and the solvers
take them on trust.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Iterator, Sequence
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import repeat
from numbers import Integral, Real

import numpy as np

from .kinetics import (UserColumns, UserKinetics, scenario_kinetics,
                       user_columns)

# Decimal kilobyte, consistent with the SI-style Hz/W units used everywhere else.
BITS_PER_KB = 8e3


def dbm_to_watts(dbm: float) -> float:
    """Power in W from a dBm value: 10^((x - 30) / 10)."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


def db_to_linear(db: float) -> float:
    """Dimensionless power ratio from a dB value: 10^(x / 10)."""
    return 10.0 ** (db / 10.0)


def _is_real(v: object) -> bool:
    """``isinstance(v, Real)``; a float, the common case, skips the ABC
    check, which takes about 0.6 us, ten times the float test."""
    return isinstance(v, float) or isinstance(v, Real)


@dataclass(frozen=True)
class SystemParams:
    """Shared network and cloud parameters for one offloading period."""

    bandwidth_hz: float            # total bandwidth, split equally across users
    noise_psd_w_per_hz: float      # noise power spectral density
    cloud_speed_cps: float         # total cloud computing speed, cycles/s
    cloud_capacity_cycles: float   # cycle budget the cloud may sell per period
    num_users: int

    @property
    def per_user_bandwidth_hz(self) -> float:
        return self.bandwidth_hz / self.num_users

    @property
    def per_user_cloud_speed_cps(self) -> float:
        # Equal split of the cloud speed; derived, never stored.
        return self.cloud_speed_cps / self.num_users


@dataclass(frozen=True)
class UserProfile:
    """One user's task and device parameters."""

    data_bits: float            # input data size to process this period
    cycles_per_bit: float       # CPU cycles per input bit
    local_cpu_cps: float        # local CPU speed, cycles/s
    output_ratio: float         # output bits fed back per offloaded input bit
    uplink_power_w: float
    downlink_power_w: float
    channel_gain_linear: float  # dimensionless power gain


class LazyTuple(Sequence):
    """A sequence kept as the columns it is read from: ``_columns``, the
    arrays and scalars its items are read from, first an array with one
    entry per item. Built from arrays alone, it names them as ``_fields``
    lists. A subclass gives ``_build``, which makes the tuple of items; that
    tuple is built on the first read of an item and kept. It compares,
    hashes, prints, indexes and slices as that tuple, and equals a plain
    tuple of the same items. Two of one class compare their columns instead,
    element by element as their tuples would (NaN unequal, -0.0 equal to
    0.0), and neither builds its items."""

    _columns: tuple
    _fields: tuple[str, ...] = ()

    def __init__(self, *columns: np.ndarray) -> None:
        self._columns = columns
        vars(self).update(zip(self._fields, columns))

    def _build(self) -> tuple:
        raise NotImplementedError

    @cached_property
    def _items(self) -> tuple:
        return self._build()

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        return self._items[index]

    def __iter__(self) -> Iterator:
        return iter(self._items)

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):   # an empty tuple equals any other
            return self is other or len(self) == len(other) and (
                not len(self)
                or all(map(np.array_equal, self._columns, other._columns)))
        other = other._items if isinstance(other, LazyTuple) else other
        return self._items == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        return repr(self._items)


class UserProfiles(LazyTuple):
    """Every user's ``UserProfile``, kept as one float column per field, in
    user order and named as the field (``users.data_bits``): the scenario's
    storage, which sampling fills, validation checks with array masks and
    ``kinetics.user_columns`` derives from. The records are built on the
    first read."""

    _fields = tuple(f.name for f in fields(UserProfile))

    @classmethod
    def of(cls, users: Sequence[UserProfile]) -> UserProfiles:
        """The columns of ``users``, which are kept as the built records. A
        field that is no real number reads as NaN, which validation flags."""
        items = tuple(users)
        for i, u in enumerate(items):
            if not isinstance(u, UserProfile):
                raise ValueError(f"invalid scenario: user {i} must be a "
                                 f"UserProfile (got {u!r})")
        view = cls(*(np.array([v if _is_real(v) else math.nan
                               for v in (getattr(u, name) for u in items)],
                              dtype=float) for name in cls._fields))
        vars(view)["_items"] = items
        return view

    def _build(self) -> tuple[UserProfile, ...]:
        return tuple(map(UserProfile, *(c.tolist() for c in self._columns)))


@dataclass(frozen=True)
class Scenario:
    """One offloading period; ``users``, any sequence of profiles, is kept as
    their columns (``UserProfiles``). Building it runs ``validate_scenario``
    (any violation raises ``ValueError``) and then derives from those columns,
    once, the per-user columns the solvers price with; users whose total
    balance load does not round to a finite float are refused too."""

    system: SystemParams
    users: UserProfiles   # reads as a tuple of UserProfile
    columns: UserColumns = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.users, UserProfiles):
            object.__setattr__(self, "users", UserProfiles.of(self.users))
        for column in self.users._columns:   # the frozen scenario's storage
            column.setflags(write=False)
        problems = validate_scenario(self)
        if problems:
            raise ValueError("invalid scenario: " + "; ".join(problems))
        object.__setattr__(self, "columns", user_columns(self))
        # every solver totals the loads exactly; their count times the
        # largest bounds that total, so below 2**1023 it is surely finite
        loads = self.columns.load_cycles
        if not float(loads.max()) * len(loads) < 2.0**1023:
            from .uniform import _fsum   # uniform imports this module
            try:
                _fsum(loads)
            except OverflowError:
                raise ValueError("invalid scenario: the users' total "
                                 "load_cycles must round to a finite float") from None

    @cached_property
    def kinetics(self) -> tuple[UserKinetics, ...]:
        """Derived again on first read, for the oracles, and kept."""
        return scenario_kinetics(self)


def _not_numbers(record, integers: Collection[str]) -> list[str]:
    """A problem for each field of ``record`` that is no real number, or no
    integer if ``integers`` names it, the value shown with ``repr``."""
    out = []
    for f in fields(record):
        v, integral = getattr(record, f.name), f.name in integers
        if not (isinstance(v, Integral) if integral else _is_real(v)):
            kind = "an integer" if integral else "a real number"
            out.append(f"{f.name} must be {kind} (got {v!r})")
    return out


def _check_config(c: ScenarioConfig) -> None:
    """``ValueError`` naming every invalid bound and constant of ``c``."""
    out = _not_numbers(c, _INT_CONFIG_FIELDS)
    if out:   # the checks below compare numbers
        raise ValueError("invalid scenario config: " + "; ".join(out))
    if c.num_users < 1:
        out.append(f"num_users must be >= 1 (got {c.num_users})")
    if not 0 <= c.seed < 2**64:
        out.append(f"seed must be an unsigned 64-bit integer (got {c.seed})")
    for name in ("bandwidth_hz", "cloud_speed_cps", "uplink_power_w",
                 "downlink_power_w", "output_ratio", "local_cpu_min_cps",
                 "cycles_per_bit_min", "data_kb_min", "local_cpu_step_cps"):
        v = getattr(c, name)
        if not (math.isfinite(v) and v > 0):
            out.append(f"{name} must be finite and > 0 (got {v})")
    if not (math.isfinite(c.capacity_cycles) and c.capacity_cycles >= 0):
        out.append(f"capacity_cycles must be finite and >= 0 (got {c.capacity_cycles})")
    for name in ("noise_dbm_per_hz", "gain_db_min", "gain_db_max",
                 "local_cpu_max_cps", "cycles_per_bit_max", "data_kb_max"):
        v = getattr(c, name)
        if not math.isfinite(v):
            out.append(f"{name} must be finite (got {v})")
    for lo, hi in (("gain_db_min", "gain_db_max"),
                   ("local_cpu_min_cps", "local_cpu_max_cps"),
                   ("cycles_per_bit_min", "cycles_per_bit_max"),
                   ("data_kb_min", "data_kb_max")):
        if getattr(c, lo) > getattr(c, hi):
            out.append(f"{lo} must be <= {hi}")
    if not out:  # the range checks need finite, ordered bounds
        # only the gain bounds may be negative, so only their span can overflow
        if not math.isfinite(c.gain_db_max - c.gain_db_min):
            out.append(f"gain_db_max - gain_db_min must be finite "
                       f"(got {c.gain_db_max - c.gain_db_min})")
        for name, to_si in (("noise_dbm_per_hz", dbm_to_watts),
                            ("gain_db_min", db_to_linear),
                            ("gain_db_max", db_to_linear),
                            ("data_kb_max", lambda kb: kb * BITS_PER_KB)):
            if not _finite_positive(to_si, getattr(c, name)):
                out.append(f"{name} must convert to a finite SI value > 0 "
                           f"(got {getattr(c, name)})")
        # the sampler draws local CPU grid indices as int64
        steps = (c.local_cpu_max_cps - c.local_cpu_min_cps) / c.local_cpu_step_cps
        if not steps < 2.0**63:
            out.append(f"(local_cpu_max_cps - local_cpu_min_cps) / "
                       f"local_cpu_step_cps must be < 2**63 (got {steps})")
    if out:
        raise ValueError("invalid scenario config: " + "; ".join(out))


@dataclass(frozen=True)
class ScenarioConfig:
    """Sampling distributions and shared constants for random scenarios.

    Defaults: 1 MHz total bandwidth, -174 dBm/Hz noise, 100 GHz cloud speed,
    6e9 cycles/period capacity, gains uniform in [-50, -30] dB, local CPU
    speeds on the 0.1..1.0 GHz grid in 0.1 GHz steps, 500..1500 cycles/bit,
    100..500 KB of input data, 0.1 W uplink and 1 W downlink power, output
    ratio 0.2.
    """

    num_users: int = 30
    seed: int = 0
    bandwidth_hz: float = 1e6
    noise_dbm_per_hz: float = -174.0
    cloud_speed_cps: float = 100e9
    capacity_cycles: float = 6e9
    gain_db_min: float = -50.0
    gain_db_max: float = -30.0
    local_cpu_min_cps: float = 1e8
    local_cpu_max_cps: float = 1e9
    local_cpu_step_cps: float = 1e8
    cycles_per_bit_min: float = 500.0
    cycles_per_bit_max: float = 1500.0
    data_kb_min: float = 100.0
    data_kb_max: float = 500.0
    uplink_power_w: float = 0.1
    downlink_power_w: float = 1.0
    output_ratio: float = 0.2

    __post_init__ = _check_config   # every config is checked once, when built


_INT_CONFIG_FIELDS = {"num_users", "seed"}


def _finite_positive(to_si, value: float) -> bool:
    try:
        return 0.0 < to_si(value) < math.inf
    except OverflowError:  # float ** overflows instead of returning inf
        return False


def _local_cpu_speed(config: ScenarioConfig, index: float | np.ndarray):
    return config.local_cpu_min_cps + config.local_cpu_step_cps * index


def _local_cpu_count(config: ScenarioConfig) -> int:
    """Points min + step * i of the local CPU grid that stay within max
    (1e-12 relative slack); rounding the span can add one point above it."""
    count = int(round((config.local_cpu_max_cps - config.local_cpu_min_cps)
                      / config.local_cpu_step_cps)) + 1
    limit = config.local_cpu_max_cps * (1 + 1e-12)
    while _local_cpu_speed(config, float(count - 1)) > limit:
        count -= 1
    return count


def sample_scenario(config: ScenarioConfig) -> Scenario:
    """Draw one scenario from the configured distributions.

    Deterministic in (config, seed). The stream is numpy PCG64 seeded with
    ``config.seed``; draws happen in this fixed order, one vector of length
    num_users each: channel gains (dB), local CPU grid indices, cycles per
    bit, data sizes (KB).
    """
    rng = np.random.default_rng(config.seed)
    k = config.num_users
    gains_db = rng.uniform(config.gain_db_min, config.gain_db_max, k)
    cpu_idx = rng.integers(0, _local_cpu_count(config), k)
    cycles = rng.uniform(config.cycles_per_bit_min, config.cycles_per_bit_max, k)
    data_kb = rng.uniform(config.data_kb_min, config.data_kb_max, k)

    system = SystemParams(
        bandwidth_hz=config.bandwidth_hz,
        noise_psd_w_per_hz=dbm_to_watts(config.noise_dbm_per_hz),
        cloud_speed_cps=config.cloud_speed_cps,
        cloud_capacity_cycles=config.capacity_cycles,
        num_users=k,
    )
    # the columns in UserProfile field order; each gain is db_to_linear's
    # 10.0 ** (db / 10.0): numpy's division is the same IEEE division, but
    # numpy's power rounds differently, so the power is float.__pow__
    constants = (config.output_ratio, config.uplink_power_w, config.downlink_power_w)
    users = UserProfiles(data_kb * BITS_PER_KB, cycles,
                         _local_cpu_speed(config, cpu_idx.astype(float)),
                         *(np.full(k, float(v)) for v in constants),
                         np.fromiter(map(pow, repeat(10.0), (gains_db / 10.0).tolist()),
                                     float, k))
    return Scenario(system=system, users=users)


def validate_scenario(scenario: Scenario) -> list[str]:
    """Check every invariant; violations are returned as data, not raised."""
    sys_ = scenario.system
    out = ["system: " + p for p in _not_numbers(sys_, ("num_users",))]
    if out:   # the rules below compare numbers
        return out
    for name in ("bandwidth_hz", "noise_psd_w_per_hz", "cloud_speed_cps"):
        v = getattr(sys_, name)
        if not (math.isfinite(v) and v > 0):
            out.append(f"system: {name} must be finite and > 0 (got {v})")
    if not (math.isfinite(sys_.cloud_capacity_cycles) and sys_.cloud_capacity_cycles >= 0):
        out.append(f"system: cloud_capacity_cycles must be finite and >= 0 "
                   f"(got {sys_.cloud_capacity_cycles})")
    if sys_.num_users < 1:
        out.append(f"system: num_users must be >= 1 (got {sys_.num_users})")
    elif sys_.bandwidth_hz > 0 and not sys_.per_user_bandwidth_hz > 0:
        out.append(f"system: bandwidth_hz / num_users must be > 0 "
                   f"(got {sys_.per_user_bandwidth_hz})")
    elif (sys_.per_user_bandwidth_hz > 0 and sys_.noise_psd_w_per_hz > 0
          and not sys_.per_user_bandwidth_hz * sys_.noise_psd_w_per_hz > 0):
        # the noise power of a sub-band divides every SNR
        out.append(f"system: bandwidth_hz / num_users * noise_psd_w_per_hz "
                   f"must be > 0 (got "
                   f"{sys_.per_user_bandwidth_hz * sys_.noise_psd_w_per_hz})")
    users = scenario.users
    if len(users) != sys_.num_users:
        out.append(f"user-list length {len(users)} does not match "
                   f"num_users {sys_.num_users}")
    rows = np.array(users._columns)   # one row per field
    ok = (rows > 0) & (rows < math.inf)   # NaN fails both
    for i, j in np.argwhere(~ok.T).tolist():   # user-major, field order
        name = users._fields[j]
        v = getattr(users[i], name)   # a value that is no number shows whole
        out.append(f"user {i}: {name} must be finite and > 0 "
                   f"(got {v if _is_real(v) else repr(v)})")
    return out


def read_key_values(path: str) -> dict[str, str]:
    """Parse a ``key = value`` file; '#' starts a comment; keys are unique."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in out:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = value
    return out


def parse_number(key: str, value: str, kind: type = float) -> int | float:
    """``value`` as ``kind`` (int or float); the error names ``key``."""
    try:
        return kind(value)
    except ValueError:
        raise ValueError(f"{key}: expected {kind.__name__}, got {value!r}") from None


def config_from_mapping(mapping: dict[str, str]) -> ScenarioConfig:
    """Build a ScenarioConfig from string key/value pairs; unknown keys fail."""
    known = {f.name for f in fields(ScenarioConfig)}
    kwargs: dict[str, object] = {}
    for key, value in mapping.items():
        if key not in known:
            raise ValueError(f"unknown scenario config key: {key!r}")
        kwargs[key] = parse_number(key, value,
                                   int if key in _INT_CONFIG_FIELDS else float)
    return ScenarioConfig(**kwargs)


def load_scenario_config(path: str) -> ScenarioConfig:
    mapping = read_key_values(path)
    try:
        return config_from_mapping(mapping)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
