"""The uniform-pricing bargain replayed as an explicit message exchange.

The replay records ``uniform.price_walk``, the walk ``solve_uniform`` takes:
each round the cloud broadcasts a candidate price and every user answers
with (its index, its offload size) computed purely from its own parameters.
The cloud tallies the reported load against its capacity and either moves to
the next lower candidate or terminates. The full exchange is recorded as an
auditable trace whose final outcome is ``uniform.best_settled`` over the
rounds, so it matches the direct solver exactly. Each ``BargainRound`` holds
the outcome its price induces, ties offloading, as ``price_walk`` yields it;
only its broadcast and reports are messages. The reports are read off the
outcome's offload-size column, so the replay builds no decision records.

When the last round's reported load overflows the capacity, the cloud serves
the users tied at that price up to its budget (``uniform.ration_tie``). The
admitted set follows from that round's (index, bits) reports and the
cycles_per_bit and local_cpu_cps the cloud already holds: ``ration_tie``
reads each offloader's load from ``Scenario.columns``, and that column load
equals its reported bits times its cycles_per_bit. So rationing adds no
message: the trace shows the reports it was decided from.

Rounds are synchronous and lossless: every report arrives before the next
broadcast. The trace serializes to one message per line for golden-file
comparisons; ``write_trace`` streams those lines to the file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator

from .scenario import Scenario
from .uniform import PriceOutcome, best_settled, price_walk

PRICE_BROADCAST = "PriceBroadcast"
OFFLOAD_REPORT = "OffloadReport"
TERMINATE = "Terminate"
CLOUD = "cloud"


@dataclass(frozen=True)
class Message:
    kind: str
    round: int
    sender: str
    payload: object   # float price | (user_index, offloaded_bits) | None


@dataclass(frozen=True)
class BargainRound:
    broadcast: Message
    reports: tuple[Message, ...]
    outcome: PriceOutcome   # induced by the broadcast price, ties offloading


@dataclass(frozen=True)
class BargainTrace:
    rounds: tuple[BargainRound, ...]
    final: PriceOutcome

    def messages(self) -> Iterator[Message]:
        for rnd in self.rounds:
            yield rnd.broadcast
            yield from rnd.reports
        yield Message(kind=TERMINATE, round=len(self.rounds), sender=CLOUD,
                      payload=None)


def run_bargaining(scenario: Scenario) -> BargainTrace:
    """Play the descending-price rounds of ``price_walk`` and record every message.

    The cloud knows each user's cycles_per_bit and local_cpu_cps (collected
    up front to form the candidate list); everything else stays on the
    devices. Each round records the reports and the outcome they induce, ties
    offloading. The round whose reports overflow the capacity is the last:
    the cloud admits the users above its price and then the tied users in
    index order while their reported load fits (``ration_tie``). The final
    outcome is the best settled round, as in ``solve_uniform``.
    """
    rounds: list[BargainRound] = []
    settled: list[PriceOutcome | None] = []
    users = range(len(scenario.users))
    senders = [f"user_{i}" for i in users]
    for round_index, (induced, outcome) in enumerate(price_walk(scenario)):
        broadcast = Message(kind=PRICE_BROADCAST, round=round_index,
                            sender=CLOUD, payload=induced.prices[0])
        reports = tuple(map(Message, repeat(OFFLOAD_REPORT),
                            repeat(round_index), senders,
                            zip(users, induced.decisions.offloaded_bits)))
        rounds.append(BargainRound(broadcast=broadcast, reports=reports,
                                   outcome=induced))
        settled.append(outcome)
    return BargainTrace(rounds=tuple(rounds),
                        final=best_settled(scenario, settled))


def information_audit(trace: BargainTrace) -> list[str]:
    """Flag any message whose payload leaks more than the protocol allows.

    Broadcasts may carry exactly one finite nonnegative price; reports
    exactly (user index >= 0, finite nonnegative offloaded bits);
    terminations nothing. Reports must reference the price round they answer.
    Every user reports in every round, so each round must hold as many
    reports as the first, with indices below that count, each once.
    """
    found: list[tuple[int, Message, str]] = []   # labelled only when found

    def flag(problem: str) -> None:
        found.append((pos, msg, problem))

    users = len(trace.rounds[0].reports) if trace.rounds else 0
    senders = [f"user_{i}" for i in range(users)]   # built once, not per round
    current_round: int | None = None
    reports, seen = 0, set()   # the current round's report count and indices
    for pos, msg in enumerate(trace.messages()):
        if msg.kind == OFFLOAD_REPORT:
            reports += 1
            payload = msg.payload
            if (not isinstance(payload, tuple) or len(payload) != 2
                    or not isinstance(payload[0], int)
                    or isinstance(payload[0], bool)
                    or not isinstance(payload[1], float)):
                flag(f"report payload must be (user index, offloaded bits), "
                     f"got {payload!r}")
                continue
            user, bits = payload
            if user < 0:
                flag(f"negative user index {user}")
            if msg.sender != (senders[user] if 0 <= user < users
                              else f"user_{user}"):
                flag(f"sender {msg.sender!r} does not match reported index {user}")
            if not 0.0 <= bits < math.inf:
                flag(f"offload report must be finite and nonnegative, got {bits!r}")
            if msg.round != current_round:
                flag(f"report references round {msg.round}, current broadcast "
                     f"is {current_round}")
            if user >= users:
                flag(f"user index {user} outside the first round's {users} users")
            elif user in seen:
                flag(f"second report from user {user} in this round")
            seen.add(user)
            continue
        if msg.kind in (PRICE_BROADCAST, TERMINATE):   # ends the open round
            if current_round is not None and reports != users:
                flag(f"round {current_round} held {reports} reports, the first "
                     f"round {users}")
            current_round, reports, seen = None, 0, set()
        if msg.kind == PRICE_BROADCAST:
            if msg.sender != CLOUD:
                flag(f"broadcast from non-cloud sender {msg.sender!r}")
            if not (isinstance(msg.payload, float)
                    and 0.0 <= msg.payload < math.inf):
                flag(f"broadcast payload must be a single finite nonnegative "
                     f"price, got {msg.payload!r}")
            current_round = msg.round
        elif msg.kind == TERMINATE:
            if msg.payload is not None:
                flag(f"terminate must carry no payload, got {msg.payload!r}")
        else:
            flag(f"unknown message kind {msg.kind!r}")
    return [f"message {pos} ({msg.kind}, round {msg.round}): {problem}"
            for pos, msg, problem in found]


def _fmt(x: float) -> str:
    return "%.17g" % x


def _trace_lines(trace: BargainTrace) -> Iterator[str]:
    """One line per message: round, kind, sender, payload fields. A user's
    bits repeat across rounds, so each distinct float is formatted once."""
    text: dict[float, str] = {}
    for msg in trace.messages():
        p = msg.payload
        head = f"{msg.round}\t{msg.kind}\t{msg.sender}\t"
        if (msg.kind == OFFLOAD_REPORT and type(p) is tuple and len(p) == 2
                and type(p[0]) is int and type(p[1]) is float):
            bits = p[1]
            # 0.0 and -0.0 are one key but print apart: zeros skip the memo
            shown = text.get(bits) if bits else _fmt(bits)
            if shown is None:
                shown = text[bits] = _fmt(bits)
            yield f"{head}user={p[0]} bits={shown}\n"
        elif msg.kind == PRICE_BROADCAST and type(p) is float:
            yield f"{head}price={_fmt(p)}\n"
        else:   # no payload is "-"; any other is shown whole, for inspection
            yield head + ("-\n" if p is None else f"payload={p!r}\n")


def format_trace(trace: BargainTrace) -> str:
    """One message per line: round, kind, sender, payload fields."""
    return "".join(_trace_lines(trace))


def write_trace(trace: BargainTrace, path: str) -> None:
    """``format_trace`` to ``path``, written line by line."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_trace_lines(trace))
