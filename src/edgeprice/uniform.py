"""Seller-side uniform pricing: one shared price for every user.

The revenue-optimal shared price lies in the finite candidate set
{1/local_cpu_cps}: pushing a price upward inside a gap between candidates
keeps every offload decision fixed while scaling revenue up, so interior
prices are never optimal. ``price_walk`` visits the candidates from the most
expensive down and stops at the first one whose induced load exceeds the
cloud capacity (load only grows as the price falls); ``best_settled`` picks
the outcome. It is the one copy of that walk, and ``protocol.run_bargaining``
records it as messages.

At that first overflowing candidate the users tied at the price are
indifferent between offloading and not, so the cloud serves them up to its
budget instead of selling nothing (``ration_tie``): users strictly above the
price offload their balance, as at the previous candidate, and the tied ones
are served whole in index order, each only if its load still fits. That
rationed outcome is scored with the other candidates and the walk stops.

``solve_uniform`` returns what the walk settles on without walking it. With
the thresholds sorted once, each candidate serves a prefix of the users.
Exact prefix sums of the balance loads find the first overflowing candidate;
each revenue above it is screened as price times load, within a certified
relative error band, and only the candidates inside the band (one or two in
practice) are rescored exactly, plus the rationed one. Its cost is a sort
and those rescorings, however many CPU tiers there are; the walk evaluates
every user at each candidate it visits.

``evaluate_prices`` turns one price per user into an outcome; the shared
price (``evaluate_price``) and the per-user scheme both go through it. It
computes every user's best response at once from ``Scenario.columns`` with
the operations of ``follower.best_response``, so the decisions are
bit-identical to it. It and ``ration_tie`` build every ``PriceOutcome`` the
same way, from the prices and the decisions (``_priced_outcome``). The
exhaustive reference walk lives in ``verify``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

import numpy as np

from .follower import OffloadDecision, best_response
from .scenario import Scenario

# Distinguished "nobody offloads" price, strictly above every 1/local_cpu_cps.
NO_OFFLOAD_PRICE = math.inf

# Exact load sums count in units of the smallest subnormal float, 2**-1074.
# Every finite float is a whole number of them, and int / int division rounds
# correctly, so ``total / _EXACT_UNIT`` is the value math.fsum would report.
_EXACT_UNIT = 1 << 1074


def _exact_units(x: float) -> int:
    numerator, denominator = x.as_integer_ratio()  # a power of two <= 2**1074
    return numerator << (1075 - denominator.bit_length())


@dataclass(frozen=True)
class PriceOutcome:
    """A pricing solution, shared by the uniform and per-user schemes."""

    prices: tuple[float, ...]              # per user, s/cycle
    decisions: tuple[OffloadDecision, ...]
    total_load_cycles: float               # sum of offloaded_bits * cycles_per_bit
    revenue_s: float                       # sum of payments; 0 when infeasible
    feasible: bool                         # load within cloud capacity


def candidate_prices(scenario: Scenario) -> list[float]:
    """Deduplicated {1/local_cpu_cps}, ascending."""
    return sorted({1.0 / u.local_cpu_cps for u in scenario.users})


def _priced_outcome(scenario: Scenario, prices: Sequence[float],
                    decisions: Sequence[OffloadDecision]) -> PriceOutcome:
    """The seller view of ``decisions``: load, feasibility and revenue."""
    load = math.fsum(d.offloaded_bits * u.cycles_per_bit
                     for d, u in zip(decisions, scenario.users))
    feasible = load <= scenario.system.cloud_capacity_cycles
    revenue = math.fsum(d.payment_s for d in decisions) if feasible else 0.0
    return PriceOutcome(
        prices=tuple(prices),
        decisions=tuple(decisions),
        total_load_cycles=load,
        revenue_s=revenue,
        feasible=feasible,
    )


def _best_responses(scenario: Scenario, prices: float | np.ndarray
                    ) -> tuple[OffloadDecision, ...]:
    """``follower.best_response`` of every user at one shared price or at its
    own, computed at once from ``Scenario.columns``."""
    if not np.greater_equal(prices, 0.0).all():  # NaN fails too
        raise ValueError(f"price must be >= 0 (got {np.min(prices)})")
    c = scenario.columns
    offload = prices <= c.threshold
    # a user who keeps its data local pays 0, so NO_OFFLOAD_PRICE (inf)
    # never multiplies a load
    paid = np.where(offload, prices, 0.0)
    cost = np.where(offload, (paid - c.threshold) * c.load_cycles + c.local_s,
                    c.local_s)
    return tuple(map(OffloadDecision, range(len(offload)),
                     np.where(offload, c.balance_bits, 0.0).tolist(),
                     offload.view(np.uint8).tolist(),
                     cost.tolist(),
                     np.where(offload, c.offload_latency_s, c.local_s).tolist(),
                     (paid * c.load_cycles).tolist()))


def evaluate_prices(scenario: Scenario, prices: Sequence[float]) -> PriceOutcome:
    """Best responses of every user at its own price, plus the seller view.

    Ties offload. If the induced load exceeds the capacity the outcome is
    marked infeasible and its revenue reported as zero.
    """
    return _priced_outcome(scenario, prices, _best_responses(
        scenario, np.asarray(prices, dtype=float)))


def evaluate_price(scenario: Scenario, price: float) -> PriceOutcome:
    """``evaluate_prices`` at one shared price.

    When the outcome overflows, the walk settles on ``ration_tie`` instead.
    """
    return _priced_outcome(scenario, (price,) * len(scenario.users),
                           _best_responses(scenario, price))


def ration_tie(scenario: Scenario, price: float,
               decisions: Sequence[OffloadDecision]) -> PriceOutcome | None:
    """Serve the users tied at an overflowing shared price up to the capacity.

    ``decisions`` are the best responses at ``price``, ties offloading. Only
    their offloaded bits (what each user reports) are read, together with
    the cycles_per_bit and local_cpu_cps the cloud holds. Users whose
    threshold 1/local_cpu_cps lies strictly above the price are served. The
    tied users are served whole, in index order, each only if its load still
    fits; the others are declined: each gets its best response at
    ``NO_OFFLOAD_PRICE``, keeping everything local. Returns None
    when the users strictly above the price overflow the capacity by
    themselves (below the walk's first overflowing candidate).

    The running load is an exact integer sum of the float loads (in units of
    2**-1074), and each admission tests the correctly rounded float of that
    sum. That float is ``math.fsum`` of the served loads, the very value
    reported as ``total_load_cycles``, so rounding never takes the load over
    the capacity.
    """
    users = scenario.users
    capacity = scenario.system.cloud_capacity_cycles
    loads = [d.offloaded_bits * u.cycles_per_bit for d, u in zip(decisions, users)]
    tied = [x > 0.0 and 1.0 / u.local_cpu_cps == price
            for x, u in zip(loads, users)]
    total = sum(_exact_units(x) for x, t in zip(loads, tied)
                if x > 0.0 and not t)
    if total / _EXACT_UNIT > capacity:
        return None
    served = list(decisions)
    for k, (x, t) in enumerate(zip(loads, tied)):
        if t:
            grown = total + _exact_units(x)
            if grown / _EXACT_UNIT <= capacity:
                total = grown
            else:
                served[k] = best_response(scenario.kinetics[k], users[k],
                                          NO_OFFLOAD_PRICE, user_index=k)
    outcome = _priced_outcome(scenario, (price,) * len(users), served)
    if not outcome.feasible:
        raise RuntimeError(f"rationed load {outcome.total_load_cycles!r} "
                           f"exceeds capacity {capacity!r}")
    return outcome


def price_walk(scenario: Scenario
               ) -> Iterator[tuple[PriceOutcome, PriceOutcome | None]]:
    """The descending-price walk: ``(induced, settled)`` per candidate.

    ``induced`` is ``evaluate_price`` at the candidate (ties offload).
    ``settled`` is what the cloud sells there: ``induced`` when it fits,
    otherwise ``ration_tie`` of it (None if nothing can be sold). Load is
    nondecreasing as the price falls, so everything below the first
    overflowing candidate overflows too and the walk stops after it.
    """
    for price in reversed(candidate_prices(scenario)):
        induced = evaluate_price(scenario, price)
        if induced.feasible:
            yield induced, induced
        else:
            yield induced, ration_tie(scenario, price, induced.decisions)
            return


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


def solve_uniform(scenario: Scenario) -> PriceOutcome:
    """What ``best_settled`` picks along ``price_walk``, found without
    walking.

    The users sorted by threshold, falling, offload in prefixes. Exact
    prefix sums of their loads (``_exact_units``) give each candidate's load
    rounded as ``evaluate_price`` rounds it, up to the first overflowing
    candidate, which ``ration_tie`` settles. A fitting candidate's revenue,
    the fsum of its payments price * load, and its screened price * load
    differ by four roundings of relative size 2**-53 at most, so they lie
    within a relative 2**-50 of each other (plus a floor for subnormal
    payments). A candidate whose band stays below the best lower bound earns
    strictly less than some rescored outcome, so ``best_settled`` over the
    rescored ones picks what the walk picks, ties to the larger price
    included.
    """
    c = scenario.columns
    capacity = scenario.system.cloud_capacity_cycles
    order = np.argsort(c.threshold)[::-1]
    screened: list[tuple[float, float]] = []   # (price, price * load) that fit
    rationed = None
    total = 0
    for price, group in groupby(zip(c.threshold[order].tolist(),
                                    c.load_cycles[order].tolist()),
                                key=itemgetter(0)):
        total += sum(_exact_units(x) for _, x in group)
        load = total / _EXACT_UNIT
        if load > capacity:
            rationed = ration_tie(scenario, price,
                                  _best_responses(scenario, price))
            break
        screened.append((price, price * load))

    rel, tiny = 2.0**-50, (len(order) + 4) * 2.0**-1074
    floor = max([r - r * rel - tiny for _, r in screened]
                + [rationed.revenue_s if rationed is not None else 0.0])
    return best_settled(scenario, [
        evaluate_price(scenario, price)
        for price, r in screened if r + r * rel + tiny >= floor
    ] + [rationed])
