"""The uniform-pricing bargain replayed as an explicit message exchange.

The replay records ``uniform.price_walk``, the walk ``solve_uniform`` takes:
each round the cloud broadcasts a candidate price and every user answers
with (its index, its offload size) computed purely from its own parameters.
The cloud tallies the reported load against its capacity and either moves to
the next lower candidate or terminates. The full exchange is recorded as an
auditable trace whose final outcome is ``uniform.best_settled`` over the
rounds, so it matches the direct solver exactly. Each ``BargainRound`` holds
the outcome its price induces, ties offloading, as ``price_walk`` yields it.
Its broadcast is a ``Message``; its reports are ``Reports``, the outcome's own
offload-size column, whose ``Message``s are built only when they are read.
So the replay builds one message per round. The trace formats only changed
report values, through a memo per user; the audit counts a clean column in
bulk and checks every other report message by message.

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
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterator

import numpy as np

from .scenario import LazyTuple, Scenario
from .text import EXACT, format_rows
from .uniform import PriceOutcome, best_settled, price_walk

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


@dataclass(frozen=True)
class BargainTrace:
    rounds: tuple[BargainRound, ...]
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
    for round_index, (induced, outcome) in enumerate(price_walk(scenario)):
        broadcast = Message(kind=PRICE_BROADCAST, round=round_index,
                            sender=CLOUD, payload=induced.prices[0])
        rounds.append(BargainRound(
            broadcast=broadcast,
            reports=Reports(round_index, induced.decisions.offloaded_bits),
            outcome=induced))
        settled.append(outcome)
    return BargainTrace(rounds=tuple(rounds),
                        final=best_settled(scenario, settled))


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
    heads = tails = np.empty(0, dtype=object)   # user i's head, and its line
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
            new = np.array([f"\t{OFFLOAD_REPORT}\tuser_{i}\tuser={i} bits="
                            for i in range(len(heads), n)], dtype=object)
            heads, tails = np.append(heads, new), np.append(tails, new)
        changed = np.concatenate((np.flatnonzero(pattern[:m] != shown[:m]),
                                  np.arange(m, n)))
        shown = pattern
        values = np.array(["0\n"] * len(changed), dtype=object)
        formatted = np.flatnonzero(pattern[changed])   # all but +0.0
        lines: list[str] = []   # split a block at a time: one batch's text
        for block in format_rows(EXACT + "\n", [reports.bits[changed[formatted]]]):
            lines += block.splitlines(True)
        values[formatted] = lines
        tails[changed] = heads[changed] + values
        if n:
            r = f"{reports.round_index}"
            yield from (r, r.join(tails[:n].tolist()))
    yield _message_line(trace.terminate)


def format_trace(trace: BargainTrace) -> str:
    """One message per line: round, kind, sender, payload fields."""
    return "".join(_trace_lines(trace))


def write_trace(trace: BargainTrace, path: str) -> None:
    """``format_trace`` to ``path``, written line by line."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_trace_lines(trace))
