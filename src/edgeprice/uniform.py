"""Seller-side uniform pricing: one shared price for every user.

The revenue-optimal shared price lies in the finite candidate set
{1/local_cpu_cps}: pushing a price upward inside a gap between candidates
keeps every offload decision fixed while scaling revenue up, so interior
prices are never optimal. The walk visits the candidates from the most
expensive down and stops at the first one whose induced load exceeds the
cloud capacity (load only grows as the price falls); ``best_settled`` picks
the outcome. ``_tier_pass`` is the one copy of that walk: ``solve_uniform``
returns its outcome, and ``protocol.run_bargaining`` records its visited
prices as rounds.

At that first overflowing candidate the users tied at the price are
indifferent between offloading and not, so the cloud serves them up to its
budget instead of selling nothing (``ration_tie``): users strictly above the
price offload their balance, as at the previous candidate, and the tied ones
are served whole in index order, each only if its load still fits. That
rationed outcome is scored with the other candidates and the walk stops.

The walk evaluates no user per candidate: it totals the CPU tiers' exact
loads and rescores only the candidates whose screened revenue may be best
(``_tier_pass``). ``verify.solve_uniform_exhaustive`` scores every one.

Exact sums are column reductions (``_exact_sums``) with no Python number per
user, and rounded once they equal math.fsum; ``_exact_units``, one float as
an integer, is their oracle. One function, ``_priced_outcome``, turns prices
into every ``PriceOutcome``: it computes each user's best response from
``Scenario.columns`` with the operations of ``follower.best_response`` (so
bit-identical to it) and totals load and revenue with those sums; its
offload-size column, which a bargaining round reports, is ``_responses``.
``evaluate_prices`` (per-user scheme), ``evaluate_price`` and ``ration_tie``
end in it; ``ration_tie`` admits from the columns and keeps a declined user
local by pricing it at ``NO_OFFLOAD_PRICE``.

An outcome keeps its decisions as those columns (``Decisions``). Only the
oracles and the tests read them as ``OffloadDecision`` records.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import repeat
from numbers import Real

import numpy as np

from .follower import OffloadDecision
from .kinetics import UserColumns
from .scenario import LazyTuple, Scenario

# Distinguished "nobody offloads" price, strictly above every 1/local_cpu_cps.
NO_OFFLOAD_PRICE = math.inf

# Exact load sums count in units of the smallest subnormal float, 2**-1074.
# Every finite float is a whole number of them, and int / int division rounds
# correctly, so ``total / _EXACT_UNIT`` is the value math.fsum would report.
_EXACT_UNIT = 1 << 1074
# Below these lengths math.fsum of a list, and one integer per item, are
# faster than the column sums.
_FSUM_BELOW, _SHORT = 800, 128


def _exact_units(x: float) -> int:
    """One float in units of 2**-1074: the oracle of ``_exact_sums``."""
    numerator, denominator = x.as_integer_ratio()  # a power of two <= 2**1074
    return numerator << (1075 - denominator.bit_length())


def _exact_sums(x: np.ndarray, group: np.ndarray | None = None,
                groups: int = 1) -> list[int]:
    """The exact sum of the finite floats ``x`` per group (``group`` holds
    each item's, 0 by default) in units of 2**-1074: Neal's small
    superaccumulator (arXiv:1505.05571). Significand halves, shifted within
    a quartet of exponents, add up per (group, quartet) in int64, exactly
    below 2**33 items; the quartets meet in one int per group."""
    significand, exponent = np.frexp(x)
    units = (significand * 2.0**53).astype(np.int64)   # of 2**(exponent - 53)
    if len(x) < _SHORT:                # one Python integer per item is faster
        totals = [0] * groups          # in units of 2**-1126
        for g, u, place in zip(repeat(0) if group is None else group.tolist(),
                               units.tolist(), (exponent + 1073).tolist()):
            totals[g] += u << place
        return [total >> 52 for total in totals]
    low = int(exponent.min())
    offset = exponent - low
    width = (int(exponent.max()) - low >> 2) + 1       # quartets per group
    key = offset >> 2 if group is None else (offset >> 2) + group * width
    offset &= 3
    high, rest = np.zeros((2, groups * width), np.int64)
    np.add.at(high, key, units >> 27 << offset)        # |.| <= 2**29
    np.add.at(rest, key, (units & (1 << 27) - 1) << offset)   # < 2**30
    places = [low + 1073 + 4 * q for q in range(width)]   # shifts, all >= 0
    high, rest = high.tolist(), rest.tolist()
    return [sum(((h << 27) + r) << p for h, r, p in zip(
        high[g:g + width], rest[g:g + width], places)) >> 52   # exact
        for g in range(0, groups * width, width)]


def _fsum(x: np.ndarray) -> float:
    """``math.fsum(x.tolist())``, by ``_exact_sums`` on long finite columns."""
    if len(x) < _FSUM_BELOW or not math.isfinite(x.sum()):
        return math.fsum(x.tolist())
    return _exact_sums(x)[0] / _EXACT_UNIT


class Decisions(LazyTuple):
    """Every user's ``OffloadDecision``, kept as the columns ``_fields``
    names (``decisions.latency_s`` is the column the records read, not a
    copy), the records built on the first read."""

    _fields = ("offloaded_bits", "offload", "cost_s", "latency_s", "payment_s")

    def _build(self) -> tuple[OffloadDecision, ...]:
        bits, offload, cost, latency, payment = self._columns
        return tuple(map(OffloadDecision, range(len(bits)), bits.tolist(),
                         offload.view(np.uint8).tolist(), cost.tolist(),
                         latency.tolist(), payment.tolist()))


@dataclass(frozen=True)
class PriceOutcome:
    """A pricing solution, shared by the uniform and per-user schemes."""

    prices: tuple[float, ...]              # per user, s/cycle
    decisions: Decisions                   # reads as a tuple of OffloadDecision
    total_load_cycles: float               # sum of offloaded_bits * cycles_per_bit
    revenue_s: float                       # sum of payments; 0 when infeasible
    feasible: bool                         # load within cloud capacity


def candidate_prices(scenario: Scenario) -> list[float]:
    """Deduplicated {1/local_cpu_cps}, ascending."""
    return np.unique(scenario.columns.threshold).tolist()


def _responses(c: UserColumns, paid_at: float | np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Each user's answer to ``paid_at``: whether it offloads (ties offload)
    and its offload size in bits, 0 when it keeps its data local."""
    offload = paid_at <= c.threshold
    return offload, np.where(offload, c.balance_bits, 0.0)


def _priced_outcome(scenario: Scenario, prices: Sequence[float],
                    paid_at: float | np.ndarray,
                    responses: tuple[np.ndarray, np.ndarray] | None = None
                    ) -> PriceOutcome:
    """The outcome of posting ``prices`` when every user answers ``paid_at``
    (one shared price or one per user): each user's best response, computed
    at once from ``Scenario.columns``, and the seller view of them (load,
    feasibility, and the revenue, 0 when infeasible). ``responses``, when
    given, is ``_responses`` at ``paid_at``, already computed."""
    if not np.greater_equal(paid_at, 0.0).all():  # NaN fails too
        raise ValueError(f"price must be >= 0 (got {np.min(paid_at)})")
    c = scenario.columns
    offload, bits = responses or _responses(c, paid_at)
    # a user who keeps its data local pays 0, so NO_OFFLOAD_PRICE (inf)
    # never multiplies a load
    paid = np.where(offload, paid_at, 0.0)
    payment = paid * c.load_cycles
    cost = np.where(offload, (paid - c.threshold) * c.load_cycles + c.local_s,
                    c.local_s)
    decisions = Decisions(bits, offload, cost,
                          np.where(offload, c.offload_latency_s, c.local_s),
                          payment)
    load = _fsum(c.load_cycles[offload])
    feasible = load <= scenario.system.cloud_capacity_cycles
    revenue = _fsum(payment[offload]) if feasible else 0.0
    return PriceOutcome(prices=tuple(prices), decisions=decisions,
                        total_load_cycles=load, revenue_s=revenue,
                        feasible=feasible)


def evaluate_prices(scenario: Scenario, prices: Sequence[float]) -> PriceOutcome:
    """Best responses of every user at its own price, plus the seller view.

    Ties offload. If the induced load exceeds the capacity the outcome is
    marked infeasible and its revenue reported as zero.
    """
    n = len(scenario.users)
    wanted = f"prices must hold one price for each of the {n} users"
    try:
        paid_at = np.asarray(prices, dtype=float)
    except ValueError as exc:   # a ragged nesting, or an entry that is no number
        raise ValueError(f"{wanted}: {exc}") from None
    if paid_at.shape != (n,):
        raise ValueError(f"{wanted}, got {paid_at.size} in shape {paid_at.shape}")
    return _priced_outcome(scenario, prices, paid_at)


def evaluate_price(scenario: Scenario, price: float) -> PriceOutcome:
    """``evaluate_prices`` at one shared price.

    When the outcome overflows, the walk settles on ``ration_tie`` instead.
    """
    if not isinstance(price, Real):
        raise ValueError(f"price must be one real number, got {price!r}")
    return _priced_outcome(scenario, (price,) * len(scenario.users), price)


def ration_tie(scenario: Scenario, price: float) -> PriceOutcome | None:
    """Serve the users tied at an overflowing shared price up to the capacity.

    Admission reads only each user's threshold 1/local_cpu_cps and balance
    load, which the cloud knows from the users' reports at ``price``. Users
    whose threshold lies strictly above the price are served. The tied users
    are served whole, in index order, each only if its load still fits; the
    others are declined: each answers ``NO_OFFLOAD_PRICE``, keeping
    everything local, while the posted price stays ``price``. Returns
    None when the users strictly above the price overflow the capacity by
    themselves (below the walk's first overflowing candidate).

    The load above the price is one exact column sum (``_exact_sums``, in
    units of 2**-1074) that the tied users join one at a time, and each
    admission tests the correctly rounded float of the sum. That float is
    ``math.fsum`` of the served loads, the very value reported as
    ``total_load_cycles``, so rounding never takes the load over the capacity.
    """
    c = scenario.columns
    return _ration(scenario, price,
                   _exact_sums(c.load_cycles[c.threshold > price])[0])


def _ration(scenario: Scenario, price: float, total: int) -> PriceOutcome | None:
    """``ration_tie`` given ``total``, the exact load above ``price``."""
    c = scenario.columns
    capacity = scenario.system.cloud_capacity_cycles
    if total / _EXACT_UNIT > capacity:
        return None
    paid_at = np.full(len(c.threshold), price)
    for k in np.flatnonzero(c.threshold == price).tolist():
        grown = total + _exact_units(c.load_cycles[k].item())
        if grown / _EXACT_UNIT <= capacity:
            total = grown
        else:
            paid_at[k] = NO_OFFLOAD_PRICE
    outcome = _priced_outcome(scenario, (price,) * len(paid_at), paid_at)
    if not outcome.feasible:
        raise RuntimeError(f"rationed load {outcome.total_load_cycles!r} "
                           f"exceeds capacity {capacity!r}")
    return outcome


def best_settled(scenario: Scenario,
                 settled: Iterable[PriceOutcome | None]) -> PriceOutcome:
    """The highest-revenue outcome among ``settled``, given in descending
    price order, so revenue ties break toward the larger price. None entries
    are skipped. If nothing earns revenue the no-offload outcome is returned.
    """
    best: PriceOutcome | None = None
    for outcome in settled:
        if outcome is not None and (best is None
                                    or outcome.revenue_s > best.revenue_s):
            best = outcome
    if best is None or best.revenue_s <= 0.0:
        return evaluate_price(scenario, NO_OFFLOAD_PRICE)
    return best


def _tier_pass(scenario: Scenario) -> tuple[list[float], PriceOutcome]:
    """The walk: the candidates it visits, from the highest down through the
    first overflowing one, and the outcome ``best_settled`` picks along them.

    Every CPU tier's exact load is one column reduction (``_exact_sums``,
    in units of 2**-1074); running totals over the tiers, from the highest
    threshold down, give each candidate's load rounded as ``evaluate_price``
    rounds it, up to the first overflowing candidate, which ``ration_tie``
    settles from the total above it. A fitting candidate's revenue,
    the fsum of its payments price * load, and its screened price * load
    differ by four roundings of relative size 2**-53 at most, so they lie
    within a relative 2**-50 of each other (plus a floor for subnormal
    payments). A candidate whose band stays below the best lower bound earns
    strictly less than some rescored outcome, so ``best_settled`` over the
    rescored ones picks what scoring every visited candidate picks, ties to
    the larger price included.
    """
    c = scenario.columns
    capacity = scenario.system.cloud_capacity_cycles
    tiers = np.sort(c.threshold)
    tiers = tiers[np.append(True, tiers[1:] != tiers[:-1])]   # as np.unique
    tier_loads = _exact_sums(c.load_cycles, np.searchsorted(tiers, c.threshold),
                             len(tiers))
    visited = tiers[::-1].tolist()
    screened: list[float] = []   # price * load of each candidate that fits
    rationed = None
    total = 0
    for price, units in zip(visited, reversed(tier_loads)):
        load = (total + units) / _EXACT_UNIT
        if load > capacity:
            rationed = _ration(scenario, price, total)
            break
        total += units
        screened.append(price * load)
    del visited[len(screened) + 1:]   # the overflowing candidate is the last

    rel, tiny = 2.0**-50, (len(c.threshold) + 4) * 2.0**-1074
    floor = max([r - r * rel - tiny for r in screened]
                + [rationed.revenue_s if rationed is not None else 0.0])
    return visited, best_settled(scenario, [
        evaluate_price(scenario, price)
        for price, r in zip(visited, screened) if r + r * rel + tiny >= floor
    ] + [rationed])


def solve_uniform(scenario: Scenario) -> PriceOutcome:
    """The revenue-optimal shared price's outcome: what ``best_settled``
    picks along the walk, from ``_tier_pass``."""
    return _tier_pass(scenario)[1]
