"""The uniform-pricing bargain replayed as an explicit message exchange.

The replay records the walk ``solve_uniform`` takes (``uniform._tier_pass``):
each round the cloud broadcasts a candidate price and every user answers
with (its index, its offload size) computed purely from its own parameters.
The cloud tallies the reported load against its capacity and either moves to
the next lower candidate or terminates. The full exchange is recorded as an
auditable trace whose final outcome is the walk's, so it matches the direct
solver exactly. The walk is a descending clock: a user's report changes once,
from 0 to its balance offload size, in the round whose price is its threshold
1/local_cpu_cps. So a replay is its scenario and its prices (``Rounds``),
which the trace writer and the audit read without building a round; any
other trace, hand built or forged, they read message by message.

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
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import count, repeat
from typing import Iterator

import numpy as np

from .scenario import LazyTuple, Scenario
from .text import EXACT, format_rows
from .uniform import PriceOutcome, _priced_outcome, _responses, _tier_pass

PRICE_BROADCAST = "PriceBroadcast"
OFFLOAD_REPORT = "OffloadReport"
TERMINATE = "Terminate"
CLOUD = "cloud"
_fmt = EXACT.__mod__   # a float's text in the trace, which reads back bit for bit


@dataclass(frozen=True)
class Message:
    kind: str
    round: int
    sender: str
    payload: object   # float price | (user_index, offloaded_bits) | None


def _is_report_payload(p: object) -> bool:
    """A report's payload as the replay sends it: exactly (int, float)."""
    return (type(p) is tuple and len(p) == 2 and type(p[0]) is int
            and type(p[1]) is float)


class Reports(LazyTuple):
    """One round's ``OffloadReport`` messages, kept as the offload-size
    column they are read from: user i sends (i, bits[i]) as ``user_i`` in
    round ``round_index``. The messages are built on the first read."""

    def __init__(self, round_index: int, bits: np.ndarray) -> None:
        self.round_index = round_index
        self.bits = np.asarray(bits, dtype=float)   # no copy of a float column
        self._columns = (self.bits, round_index)

    def _build(self) -> tuple[Message, ...]:
        bits = self.bits.tolist()
        return tuple(map(Message, repeat(OFFLOAD_REPORT),
                         repeat(self.round_index),
                         map("user_{}".format, range(len(bits))),
                         enumerate(bits)))


@dataclass(frozen=True)
class BargainRound:
    broadcast: Message
    reports: Sequence[Message]   # Reports, or a tuple for a hand-built round
    outcome: PriceOutcome   # induced by the broadcast price, ties offloading

    def __getattr__(self, name: str) -> PriceOutcome:
        """A round ``Rounds`` built computes its outcome on the first read:
        ``evaluate_price`` at its price, over its reports' own column."""
        lazy = vars(self).get("_lazy")   # (scenario, _responses at the price)
        if name != "outcome" or lazy is None:
            raise AttributeError(name)
        price = self.broadcast.payload
        vars(self)[name] = _priced_outcome(lazy[0], (price,) * len(self.reports),
                                           price, lazy[1])
        return vars(self)[name]


class Rounds(Sequence):
    """A replay's rounds, kept as its scenario and one broadcast per price
    the walk visited, from the highest threshold down. Each read builds a
    round, and none is kept; a slice is the tuple of its rounds. It equals
    another ``Rounds`` with the same broadcasts and scenario, and hashes as
    its broadcasts."""

    def __init__(self, scenario: Scenario, prices: Sequence[float]) -> None:
        self.scenario = scenario
        self.broadcasts = tuple(map(Message, repeat(PRICE_BROADCAST), count(),
                                    repeat(CLOUD), prices))

    def __len__(self) -> int:
        return len(self.broadcasts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        broadcast = self.broadcasts[index]
        answers = _responses(self.scenario.columns, broadcast.payload)
        rnd = BargainRound.__new__(BargainRound)
        vars(rnd).update(broadcast=broadcast, _lazy=(self.scenario, answers),
                         reports=Reports(broadcast.round, answers[1]))
        return rnd

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rounds):
            return NotImplemented
        return (self.broadcasts == other.broadcasts
                and self.scenario == other.scenario)

    def __hash__(self) -> int:
        return hash(self.broadcasts)


@dataclass(frozen=True)
class BargainTrace:
    rounds: Sequence[BargainRound]   # Rounds, or a tuple for a hand-built trace
    final: PriceOutcome

    @cached_property
    def terminate(self) -> Message:
        return Message(kind=TERMINATE, round=len(self.rounds), sender=CLOUD,
                       payload=None)

    def messages(self) -> Iterator[Message]:
        for rnd in self.rounds:
            yield rnd.broadcast
            yield from rnd.reports
        yield self.terminate


def run_bargaining(scenario: Scenario) -> BargainTrace:
    """Play the descending-price rounds of the walk and record every message.

    The cloud knows each user's cycles_per_bit and local_cpu_cps (collected
    up front to form the candidate list); everything else stays on the
    devices. Each round records the reports and the outcome they induce, ties
    offloading. The round whose reports overflow the capacity is the last:
    the cloud admits the users above its price and then the tied users in
    index order while their reported load fits (``ration_tie``). The final
    outcome is the best settled round, as in ``solve_uniform``: both are
    ``uniform._tier_pass``, whose visited prices are the rounds.
    """
    prices, final = _tier_pass(scenario)
    return BargainTrace(rounds=Rounds(scenario, prices), final=final)


class _Audit:
    """``information_audit``'s walk: the state of the open round and the
    problems found, fed one message at a time."""

    def __init__(self, rounds: int, per_round: int) -> None:
        self.rounds, self.per_round = rounds, per_round   # the first round's
        self.found: list[str] = []
        self.pos = 0              # position of the next message in messages()
        self.broadcasts = 0       # broadcasts seen so far
        self.current_round: int | None = None
        self.reports, self.seen = 0, set()   # the open round's, and its indices

    def message(self, msg: Message) -> None:
        pos = self.pos
        self.pos += 1

        def flag(problem: str) -> None:
            self.found.append(f"message {pos} ({msg.kind}, round {msg.round}): "
                              f"{problem}")

        users = self.per_round
        if msg.kind == OFFLOAD_REPORT:
            self.reports += 1
            payload = msg.payload
            if not _is_report_payload(payload):
                flag(f"report payload must be (user index, offloaded bits), "
                     f"got {payload!r}")
                return
            user, bits = payload
            if user < 0:
                flag(f"negative user index {user}")
            if msg.sender != f"user_{user}":
                flag(f"sender {msg.sender!r} does not match reported index {user}")
            if not 0.0 <= bits < math.inf:
                flag(f"offload report must be finite and nonnegative, got {bits!r}")
            if msg.round != self.current_round:
                flag(f"report references round {msg.round}, current broadcast "
                     f"is {self.current_round}")
            if user >= users:
                flag(f"user index {user} outside the first round's {users} users")
            elif user in self.seen:
                flag(f"second report from user {user} in this round")
            self.seen.add(user)
            return
        if msg.kind in (PRICE_BROADCAST, TERMINATE):   # ends the open round
            if self.current_round is not None and self.reports != users:
                flag(f"round {self.current_round} held {self.reports} reports, "
                     f"the first round {users}")
            self.current_round, self.reports, self.seen = None, 0, set()
        if msg.kind == PRICE_BROADCAST:
            if msg.sender != CLOUD:
                flag(f"broadcast from non-cloud sender {msg.sender!r}")
            if not (type(msg.payload) is float
                    and 0.0 <= msg.payload < math.inf):
                flag(f"broadcast payload must be a single finite nonnegative "
                     f"price, got {msg.payload!r}")
            if msg.round != self.broadcasts:
                flag(f"broadcast numbered round {msg.round} is broadcast "
                     f"{self.broadcasts} of the bargain")
            self.broadcasts += 1
            self.current_round = msg.round
        elif msg.kind == TERMINATE:
            if msg.payload is not None:
                flag(f"terminate must carry no payload, got {msg.payload!r}")
            if msg.round != self.rounds:
                flag(f"terminate numbered round {msg.round} ends a bargain of "
                     f"{self.rounds} rounds")
        else:
            flag(f"unknown message kind {msg.kind!r}")


def information_audit(trace: BargainTrace) -> list[str]:
    """Flag any message whose payload leaks more than the protocol allows.

    Broadcasts may carry exactly one finite nonnegative price, a float;
    reports exactly (user index >= 0, finite nonnegative offloaded bits),
    an (int, float) pair; terminations nothing. Reports must reference the
    price round they answer. Every user reports in every round, so each
    round must hold as many reports as the first, with indices below that
    count, each once. Rounds run in sequence: the i-th broadcast is
    numbered round i, and the terminate is numbered with the count of
    rounds.

    Each message is labelled with its position in ``trace.messages()``. A
    replay's reports are (i, 0.0) or (i, balance_bits[i]) from ``user_i``,
    which no rule flags while every balance is finite and nonnegative: then
    they are counted in bulk. Every other report is checked message by
    message, so each rule is stated once.
    """
    rounds = trace.rounds
    if isinstance(rounds, Rounds):
        bits = rounds.scenario.columns.balance_bits
        audit = _Audit(len(rounds), len(bits))
        if ((bits >= 0.0) & (bits < math.inf)).all():
            for broadcast in rounds.broadcasts:   # and its reports, all clean
                audit.message(broadcast)
                audit.pos, audit.reports = audit.pos + len(bits), len(bits)
            audit.message(trace.terminate)
            return audit.found
    else:
        audit = _Audit(len(rounds), len(rounds[0].reports) if rounds else 0)
    for msg in trace.messages():
        audit.message(msg)
    return audit.found


def _message_line(msg: Message) -> str:
    p = msg.payload
    head = f"{msg.round}\t{msg.kind}\t{msg.sender}\t"
    if msg.kind == OFFLOAD_REPORT and _is_report_payload(p):
        return f"{head}user={p[0]} bits={_fmt(p[1])}\n"
    if msg.kind == PRICE_BROADCAST and type(p) is float:
        return f"{head}price={_fmt(p)}\n"
    # no payload is "-"; any other is shown whole, for inspection
    return head + ("-\n" if p is None else f"payload={p!r}\n")


def _trace_lines(trace: BargainTrace) -> Iterator[str]:
    """The trace text, one line per message: round, kind, sender, payload
    fields. A replay keeps each user's line after the round number, first
    with ``bits=0``; a broadcast rewrites the lines of the users whose
    threshold is its price, their balances formatted by ``text.format_rows``,
    and its round joins them all. Any other trace comes message by message."""
    rounds = trace.rounds
    if not isinstance(rounds, Rounds):
        yield from map(_message_line, trace.messages())
        return
    c = rounds.scenario.columns
    lines = [f"\t{OFFLOAD_REPORT}\tuser_{i}\tuser={i} bits=0\n"
             for i in range(len(c.threshold))]
    for broadcast in rounds.broadcasts:
        yield _message_line(broadcast)
        joining = np.flatnonzero(c.threshold == broadcast.payload)
        values = "".join(format_rows(EXACT + "\n", [c.balance_bits[joining]]))
        for i, value in zip(joining.tolist(), values.splitlines(True)):
            lines[i] = lines[i][:-2] + value   # "0\n" becomes the balance
        r = f"{broadcast.round}"
        yield from (r, r.join(lines))
    yield _message_line(trace.terminate)


def format_trace(trace: BargainTrace) -> str:
    """One message per line: round, kind, sender, payload fields."""
    return "".join(_trace_lines(trace))


def write_trace(trace: BargainTrace, path: str) -> None:
    """``format_trace`` to ``path``, written line by line."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_trace_lines(trace))
