"""Price-based computation offloading for a capacity-limited edge cloud.

The seller (an edge cloud with a finite per-period cycle budget) posts
prices per CPU cycle; each user splits its task between its own CPU and the
cloud to minimize latency plus payment. The package provides the user-side
best response, the optimal shared price, optimal per-user prices via a 0/1
knapsack, a message-level bargaining simulator, and a Monte Carlo benchmark
harness with a CLI.
"""

from .scenario import (BITS_PER_KB, Scenario, ScenarioConfig, SystemParams,
                       UserProfile, db_to_linear, dbm_to_watts,
                       load_scenario_config, sample_scenario, validate_scenario)
from .kinetics import (UserKinetics, compute_kinetics, downlink_rate, local_time,
                       offload_time, scenario_kinetics, task_latency, uplink_rate,
                       user_cost)
from .follower import OffloadDecision, best_response
from .uniform import (NO_OFFLOAD_PRICE, PriceOutcome, candidate_prices,
                      evaluate_price, solve_uniform)
from .differentiated import (BRUTE_FORCE_MAX_ITEMS, NODE_BUDGET,
                             KnapsackInstance, KnapsackSolution, build_knapsack,
                             solve_differentiated,
                             solve_knapsack_branch_and_bound,
                             solve_knapsack_bruteforce)
from .protocol import (BargainRound, BargainTrace, Message, format_trace,
                       information_audit, run_bargaining, write_trace)
from .bench import (SCHEMES, SweepSpec, TrialResult, load_sweep_spec,
                    local_only_latency, read_csv, run_sweep, run_trial, write_csv)

__version__ = "0.1.0"
