"""Seller-side per-user pricing, reduced to a 0/1 knapsack.

A user charged its own threshold 1/local_cpu_cps offloads balance_bits and
pays it per cycle of its load; any higher price earns nothing. Choosing
whom to serve is a knapsack over ``Scenario.columns``: weight ``load_cycles``,
value the payment ``threshold * load_cycles`` the outcome reports, capacity
the cloud cycle budget. Unserved users get the no-offload sentinel price.

Up to 20 users the knapsack is solved by subset enumeration, beyond that by
a depth-first branch and bound on Dantzig's LP bound (Martello & Toth,
*Knapsack Problems*, 1990, ch. 2). Both are exact, and both count a
selection as fitting when the correctly rounded sum of its weights is within
the capacity, as ``evaluate_prices`` does. A search cut at ``NODE_BUDGET``
nodes returns its best selection with a certified gap.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import reduce
from itertools import accumulate
from operator import or_

import numpy as np

from .scenario import Scenario
from .uniform import (_EXACT_UNIT, NO_OFFLOAD_PRICE, PriceOutcome,
                      _exact_units, evaluate_prices)

BRUTE_FORCE_MAX_ITEMS = 20
NODE_BUDGET = 20_000   # branch-and-bound nodes; past it, return the best found


@dataclass(frozen=True)
class KnapsackInstance:
    weights: tuple[float, ...]   # cycles per item
    values: tuple[float, ...]    # seconds per item
    capacity: float              # cycles


@dataclass(frozen=True)
class KnapsackSolution:
    selected: tuple[bool, ...]
    total_weight: float
    total_value: float
    value_bound: float = 0.0     # certified cap on value below the optimum


def _validate_instance(inst: KnapsackInstance) -> None:
    if len(inst.weights) != len(inst.values):
        raise ValueError("weights and values must have equal length")
    for name, xs in (("weight", inst.weights), ("value", inst.values)):
        for i, x in enumerate(xs):
            if not (math.isfinite(x) and x > 0):
                raise ValueError(f"{name} {i} must be finite and > 0 (got {x})")
    if not (math.isfinite(inst.capacity) and inst.capacity >= 0):
        raise ValueError(f"capacity must be finite and >= 0 (got {inst.capacity})")


def build_knapsack(scenario: Scenario, kin_all: object = None) -> KnapsackInstance:
    """One item per user, from ``Scenario.columns``; ``kin_all`` is unread."""
    c = scenario.columns
    return KnapsackInstance(weights=tuple(c.load_cycles.tolist()),
                            values=tuple((c.threshold * c.load_cycles).tolist()),
                            capacity=scenario.system.cloud_capacity_cycles)


def _solution(inst: KnapsackInstance,
              selected: tuple[bool, ...]) -> KnapsackSolution:
    total_weight = math.fsum(w for w, s in zip(inst.weights, selected) if s)
    total_value = math.fsum(v for v, s in zip(inst.values, selected) if s)
    return KnapsackSolution(selected=selected, total_weight=total_weight,
                            total_value=total_value)


def _integers(xs: tuple[float, ...]) -> tuple[list[int], int]:
    """``xs`` exactly, in units of 2**(shift - 1074) for the largest
    ``shift`` that keeps every one whole, and that ``shift``."""
    units = [_exact_units(x) for x in xs]
    low = reduce(or_, units, 0)
    shift = max((low & -low).bit_length() - 1, 0)
    return [u >> shift for u in units], shift


def solve_knapsack_branch_and_bound(inst: KnapsackInstance) -> KnapsackSolution:
    """Exact optimum by depth-first branch and bound on Dantzig's LP bound.

    Items are decided in falling value density, then index, each taken
    before it is left out. A node is dropped when its LP bound (the items
    left that fit whole, found by ``bisect`` on prefix sums, plus the
    fitting fraction of the next) cannot beat the best selection found; once
    every item left fits, all are taken. All arithmetic is on exact integers
    (``_exact_units``), and a selection fits when the correctly rounded sum
    of its weights is <= capacity, as in ``evaluate_prices``. Of selections
    of equal value the first reached is kept: at the first item in density
    order where two differ, the one holding it.

    After ``NODE_BUDGET`` nodes the best selection found is returned, with
    ``value_bound`` the root LP bound minus its value; 0 proves it optimal.
    """
    _validate_instance(inst)
    n = len(inst.weights)
    weights, w_shift = _integers(inst.weights)
    values, v_shift = _integers(inst.values)
    # the largest exact load whose correctly rounded float is <= capacity
    cap = _exact_units(inst.capacity) + _exact_units(math.ulp(inst.capacity)) // 2
    cap = (cap if cap / _EXACT_UNIT <= inst.capacity else cap - 1) >> w_shift
    # ratios of integers below 2**b that differ do so by over 2**-2b
    scale = 2 * max(weights, default=1).bit_length()
    order = sorted(range(n),
                   key=lambda i: (-((values[i] << scale) // weights[i]), i))
    w, v = ([xs[i] for i in order] for xs in (weights, values))
    pw, pv = (list(accumulate(xs, initial=0)) for xs in (w, v))

    def lp_bound(d: int, room: int, value: int) -> tuple[int, int, int]:
        """Items d..k-1 fit whole in ``room``: (value with them, k, room left)."""
        k = bisect_right(pw, pw[d] + room, d) - 1
        return value + pv[k] - pv[d], k, room - (pw[k] - pw[d])

    best = (0, 0)                 # value, bit mask of the taken positions
    stack = [(0, cap, 0, 0)]      # depth, room, value, mask
    nodes = 0
    while stack and nodes < NODE_BUDGET:
        nodes += 1
        d, room, value, taken = stack.pop()
        whole, k, left = lp_bound(d, room, value)
        if k == n:   # every item left fits
            if whole > best[0]:
                best = (whole, taken | (1 << n) - (1 << d))
        elif (whole - best[0]) * w[k] + left * v[k] > 0:   # bound > best
            if value > best[0]:
                best = (value, taken)
            stack.append((d + 1, room, value, taken))
            if w[d] <= room:
                stack.append((d + 1, room - w[d], value + v[d], taken | 1 << d))

    bit = dict(zip(order, reversed(f"{best[1]:0{n}b}")))   # bit p: order[p]
    solution = _solution(inst, tuple(bit[i] == "1" for i in range(n)))
    if not stack:
        return solution
    whole, k, left = lp_bound(0, cap, 0)
    root = ((whole * w[k] + left * v[k]) << v_shift) / (w[k] << 1074)
    return replace(solution, value_bound=max(0.0, root - solution.total_value))


def solve_knapsack_bruteforce(inst: KnapsackInstance) -> KnapsackSolution:
    """Exact optimum by subset enumeration; ties pick the lexicographically
    smallest selection vector. Capped at 20 items.

    A subset's float weight sum, added in index order, is within n/2
    ulp(total) of the exact one, so outside a band of (n + 2) ulp around the
    capacity the float test agrees with the correctly rounded sum. Of the
    best subsets below the band's top, those inside it are settled by
    ``math.fsum``; if none fits, the next best are tried.
    """
    _validate_instance(inst)
    n = len(inst.weights)
    if n > BRUTE_FORCE_MAX_ITEMS:
        raise ValueError(f"{n} items exceeds the 2^{BRUTE_FORCE_MAX_ITEMS} "
                         f"enumeration cap")
    wsum = np.zeros(1)
    vsum = np.zeros(1)
    for w, v in zip(inst.weights, inst.values):
        wsum = np.concatenate([wsum, wsum + w])
        vsum = np.concatenate([vsum, vsum + v])
    band = (n + 2) * math.ulp(max(float(wsum[-1]), inst.capacity))
    scored = np.where(wsum <= inst.capacity + band, vsum, -1.0)
    while True:
        # nothing nested may read wsum: as a closure cell it slows the
        # doubling loop above by about a third
        tied = np.flatnonzero(scored == scored.max()).tolist()
        fitting = [mask for mask, clear
                   in zip(tied, wsum[tied] < inst.capacity - band)
                   if clear or math.fsum(w for i, w in enumerate(inst.weights)
                                         if mask >> i & 1) <= inst.capacity]
        if fitting:
            break
        scored[tied] = -1.0
    selected = min(
        tuple(bool((mask >> i) & 1) for i in range(n)) for mask in fitting)
    return _solution(inst, selected)


def solve_differentiated(scenario: Scenario) -> PriceOutcome:
    """Per-user prices: 1/local_cpu_cps for knapsack winners, sentinel otherwise.

    The winners come from subset enumeration up to 20 users and from the
    branch and bound beyond.
    """
    inst = build_knapsack(scenario)
    if len(inst.weights) <= BRUTE_FORCE_MAX_ITEMS:
        solution = solve_knapsack_bruteforce(inst)
    else:
        solution = solve_knapsack_branch_and_bound(inst)
    prices = np.where(solution.selected, scenario.columns.threshold,
                      NO_OFFLOAD_PRICE).tolist()
    outcome = evaluate_prices(scenario, prices)
    if not outcome.feasible:
        raise RuntimeError(f"per-user load {outcome.total_load_cycles!r} exceeds "
                           f"capacity {scenario.system.cloud_capacity_cycles!r}")
    return outcome
