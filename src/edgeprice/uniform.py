"""Seller-side uniform pricing: one shared price for every user.

The revenue-optimal shared price lies in the finite candidate set
{1/local_cpu_cps}: pushing a price upward inside a gap between candidates
keeps every offload decision fixed while scaling revenue up, so interior
prices are never optimal. ``price_walk`` visits the candidates from the most
expensive down and stops at the first one whose induced load exceeds the
cloud capacity (load only grows as the price falls); ``best_settled`` picks
the outcome. It is the one copy of that walk: ``solve_uniform`` runs it and
``protocol.run_bargaining`` records it as messages.

At that first overflowing candidate the users tied at the price are
indifferent between offloading and not, so the cloud serves them up to its
budget instead of selling nothing (``ration_tie``): users strictly above the
price offload their balance, as at the previous candidate, and the tied ones
are served whole in index order, each only if its load still fits. That
rationed outcome is scored with the other candidates and the walk stops.

``evaluate_prices`` turns one price per user into an outcome; the shared
price (``evaluate_price``) and the per-user scheme both go through it. It and
``ration_tie`` build every ``PriceOutcome`` the same way, from the prices and
the decisions (``_priced_outcome``). Every function reads the users'
kinetics from ``Scenario.kinetics``; the exhaustive reference walk lives in
``verify``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

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


def evaluate_prices(scenario: Scenario, prices: Sequence[float]) -> PriceOutcome:
    """Best responses of every user at its own price, plus the seller view.

    Ties offload. If the induced load exceeds the capacity the outcome is
    marked infeasible and its revenue reported as zero.
    """
    users, kin_all = scenario.users, scenario.kinetics
    return _priced_outcome(scenario, prices, [
        best_response(kin_all[k], users[k], prices[k], user_index=k)
        for k in range(len(users))
    ])


def evaluate_price(scenario: Scenario, price: float) -> PriceOutcome:
    """``evaluate_prices`` at one shared price.

    When the outcome overflows, the walk settles on ``ration_tie`` instead.
    """
    return evaluate_prices(scenario, (price,) * len(scenario.users))


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
    """The best outcome settled along ``price_walk``, which stops at the
    first overflowing candidate."""
    return best_settled(scenario,
                        (settled for _, settled in price_walk(scenario)))
