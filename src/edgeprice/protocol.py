"""The uniform-pricing bargain replayed as an explicit message exchange.

The replay records the walk ``solve_uniform`` takes (``uniform._tier_pass``):
each round the cloud broadcasts a candidate price and every user answers
with (its index, its offload size) computed purely from its own parameters.
The cloud tallies the reported load against its capacity and either moves to
the next lower candidate or terminates. The full exchange is recorded as an
auditable trace whose final outcome is the walk's, so it matches the direct
solver exactly. The walk is a descending clock, so a round is fully
determined by its price: a replay keeps one broadcast ``Message`` per round
(``Rounds``) and builds each ``BargainRound`` when it is read, keeping none.
Its reports are ``Reports`` over the offload-size column at its price, whose
``Message``s are built only when they are read; the outcome its price
induces, ties offloading, is computed only for a reader of it. The trace
formats only changed report values, through a memo per user; the audit
counts a clean column in bulk and checks every other report one by one.

When the last round's reported load overflows the capacity, the cloud serves
the users tied at that price up to its budget (``uniform.ration_tie``). The
admitted set follows from that round's (index, bits) reports and the
cycles_per_bit and local_cpu_cps the cloud already holds: ``ration_tie``
reads each offloader's load from ``Scenario.columns``, and that column load
equals its reported bits times its cycles_per_bit. So rationing adds no
message: the trace shows the reports it was decided from.

Rounds are synchronous and lossless: every report arrives before the next
broadcast. The trace serializes to one message per line for golden-file
comparisons; ``write_trace`` streams those lines to the file, formatting a
round's changed report values with ``text.format_rows``.
"""

from __future__ import annotations

import math
import operator
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
    """A replay's rounds, kept as its scenario and one broadcast per visited
    price. Each read builds a round, and none is kept. It compares, hashes
    and slices as the tuple of its rounds, and a slice is that tuple."""

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
        if not isinstance(other, (Rounds, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __add__(self, other: tuple) -> tuple:
        return tuple(self) + other

    def __radd__(self, other: tuple) -> tuple:
        return other + tuple(self)


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
    problems found, fed one message or one round's reports at a time."""

    def __init__(self, trace: BargainTrace) -> None:
        self.rounds = len(trace.rounds)
        self.per_round = len(trace.rounds[0].reports) if trace.rounds else 0
        self.found: list[str] = []
        self.pos = 0              # position of the next message in messages()
        self.broadcasts = 0       # broadcasts seen so far
        self.current_round: int | None = None
        # the open round's count and its indices: range(bulk), and seen
        self.reports, self.bulk, self.seen = 0, 0, set()

    def flag(self, pos: int, kind: str, round_: int, problem: str) -> None:
        self.found.append(f"message {pos} ({kind}, round {round_}): {problem}")

    def round_reports(self, reports: Sequence[Message]) -> None:
        """Count a ``Reports`` column in bulk when no report rule can flag
        it: the open round's first reports, no more than the first round's,
        all finite and nonnegative; its payloads and senders are the
        replay's own. Other reports go through ``message`` one by one."""
        if (isinstance(reports, Reports) and not self.seen and not self.bulk
                and reports.round_index == self.current_round
                and len(reports) <= self.per_round
                and ((reports.bits >= 0.0) & (reports.bits < math.inf)).all()):
            self.pos += len(reports)
            self.reports += len(reports)
            self.bulk = len(reports)
        else:
            for msg in reports:
                self.message(msg)

    def message(self, msg: Message) -> None:
        pos = self.pos
        self.pos += 1

        def flag(problem: str) -> None:
            self.flag(pos, msg.kind, msg.round, problem)

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
            elif 0 <= user < self.bulk or user in self.seen:
                flag(f"second report from user {user} in this round")
            self.seen.add(user)
            return
        if msg.kind in (PRICE_BROADCAST, TERMINATE):   # ends the open round
            if self.current_round is not None and self.reports != users:
                flag(f"round {self.current_round} held {self.reports} reports, "
                     f"the first round {users}")
            self.current_round, self.reports, self.bulk, self.seen = None, 0, 0, set()
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
    ``Reports`` column that no rule can flag is counted in bulk; every other
    report is checked message by message, so each rule is stated once.
    """
    audit = _Audit(trace)
    for rnd in trace.rounds:
        audit.message(rnd.broadcast)
        audit.round_reports(rnd.reports)
    audit.message(trace.terminate)
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
    fields. A hand-built round comes message by message, a ``Reports`` round
    as its round number and its report lines joined by it. Per user a memo
    keeps the head up to ``bits=`` and the line, rebuilt when the bits change
    bit for bit: +0.0 as ``0``, other values by ``text.format_rows``."""
    heads: list[str] = []   # user i's head
    tails: list[str] = []   # and its line, which a round joins as it is
    shown = np.empty(0, dtype=np.int64)   # the previous column's bit patterns
    for rnd in trace.rounds:
        yield _message_line(rnd.broadcast)
        reports = rnd.reports
        if not isinstance(reports, Reports):
            yield from map(_message_line, reports)
            continue
        pattern = reports.bits.view(np.int64)
        n, m = len(pattern), min(len(pattern), len(shown))
        if n > len(heads):   # new users, whose lines are all rebuilt below
            new = [f"\t{OFFLOAD_REPORT}\tuser_{i}\tuser={i} bits="
                   for i in range(len(heads), n)]
            heads += new
            tails += new
        changed = np.concatenate((np.flatnonzero(pattern[:m] != shown[:m]),
                                  np.arange(m, n)))
        shown = pattern
        nonzero = pattern[changed] != 0   # formatted; +0.0 is the constant
        lines: list[str] = []   # split a block at a time: one batch's text
        for block in format_rows(EXACT + "\n", [reports.bits[changed[nonzero]]]):
            lines += block.splitlines(True)
        values = iter(lines)
        for i, formatted in zip(changed.tolist(), nonzero.tolist()):
            tails[i] = heads[i] + (next(values) if formatted else "0\n")
        if n:
            r = f"{reports.round_index}"
            yield from (r, r.join(tails if n == len(tails) else tails[:n]))
    yield _message_line(trace.terminate)


def format_trace(trace: BargainTrace) -> str:
    """One message per line: round, kind, sender, payload fields."""
    return "".join(_trace_lines(trace))


def write_trace(trace: BargainTrace, path: str) -> None:
    """``format_trace`` to ``path``, written line by line."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_trace_lines(trace))
