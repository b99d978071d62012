import math
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgeprice import (Message, NO_OFFLOAD_PRICE, OffloadDecision, Scenario,
                       ScenarioConfig, best_response, candidate_prices,
                       evaluate_price, format_trace, information_audit,
                       run_bargaining, sample_scenario, solve_uniform,
                       write_trace)
from edgeprice import protocol, uniform
from edgeprice.protocol import (BargainRound, BargainTrace, CLOUD,
                                OFFLOAD_REPORT, PRICE_BROADCAST, TERMINATE,
                                Reports, _fmt)
from edgeprice.text import EXACT, SHOWN, format_rows
from edgeprice.uniform import Decisions
from edgeprice.verify import random_scenario_config

from conftest import (balanced_single_user_scenario, balanced_two_user_scenario,
                      tied_tier_scenario)

GOLDEN_TRACE = (
    "0\tPriceBroadcast\tcloud\tprice=1e-08\n"
    "0\tOffloadReport\tuser_0\tuser=0 bits=0\n"
    "0\tOffloadReport\tuser_1\tuser=1 bits=0\n"
    "0\tOffloadReport\tuser_2\tuser=2 bits=1750880.8287817608\n"
    "1\tPriceBroadcast\tcloud\tprice=3.3333333333333334e-09\n"
    "1\tOffloadReport\tuser_0\tuser=0 bits=0\n"
    "1\tOffloadReport\tuser_1\tuser=1 bits=2150240.7115751114\n"
    "1\tOffloadReport\tuser_2\tuser=2 bits=1750880.8287817608\n"
    "2\tPriceBroadcast\tcloud\tprice=1.1111111111111111e-09\n"
    "2\tOffloadReport\tuser_0\tuser=0 bits=3056954.449730156\n"
    "2\tOffloadReport\tuser_1\tuser=1 bits=2150240.7115751114\n"
    "2\tOffloadReport\tuser_2\tuser=2 bits=1750880.8287817608\n"
    "3\tTerminate\tcloud\t-\n"
)


def test_two_user_bargain_rounds(two_user_scenario):
    trace = run_bargaining(two_user_scenario)
    assert len(trace.rounds) == 2
    assert [r.broadcast.payload for r in trace.rounds] == [2e-9, 1e-9]
    assert all(r.outcome.feasible for r in trace.rounds)
    assert trace.final.revenue_s == pytest.approx(0.7, rel=1e-9)
    assert trace.final == solve_uniform(two_user_scenario)


def test_all_infeasible_single_round():
    trace = run_bargaining(balanced_two_user_scenario(capacity=1.0))
    assert len(trace.rounds) == 1
    assert not trace.rounds[0].outcome.feasible
    assert trace.rounds[0].outcome.revenue_s == 0.0
    assert trace.final.prices == (NO_OFFLOAD_PRICE,) * 2
    assert trace.final.revenue_s == 0.0


def test_overflowing_tie_rationed_from_reports():
    # ~3e8 cycles each, tied at 2e-9, budget 5e8: user 0 is served, user 1 declined
    scenario = tied_tier_scenario(5e8, (6e5, 6e5))
    trace = run_bargaining(scenario)
    assert trace.final == solve_uniform(scenario)
    assert [d.offload_flag for d in trace.final.decisions] == [1, 0]
    assert trace.final.revenue_s == pytest.approx(0.6, rel=1e-9)
    assert trace.final.total_load_cycles <= scenario.system.cloud_capacity_cycles
    # the round itself still records the tie's full, overflowing reports
    assert len(trace.rounds) == 1
    last = trace.rounds[0].outcome
    assert not last.feasible and last.revenue_s == 0.0
    assert all(msg.payload[1] > 0.0 for msg in trace.rounds[0].reports)
    assert information_audit(trace) == []
    text = format_trace(trace)
    messages = list(trace.messages())
    assert len(messages) == 1 + 2 + 1
    assert len(text.splitlines()) == len(messages)
    assert [line.split("\t")[1] for line in text.splitlines()] == \
        [PRICE_BROADCAST, OFFLOAD_REPORT, OFFLOAD_REPORT, TERMINATE]


def test_rationing_round_after_feasible_rounds():
    scenario = tied_tier_scenario(4.5e8, (8e5, 6e5), above_data_bits=(2e5,))
    trace = run_bargaining(scenario)
    assert [r.outcome.feasible for r in trace.rounds] == [True, False]
    assert trace.final == solve_uniform(scenario)
    assert trace.final.prices[0] == trace.rounds[-1].broadcast.payload
    assert information_audit(trace) == []
    assert len(format_trace(trace).splitlines()) == len(list(trace.messages()))


def test_single_user_single_round():
    scenario = balanced_single_user_scenario()
    trace = run_bargaining(scenario)
    assert len(trace.rounds) == 1
    assert trace.final.prices[0] == 1.0 / scenario.users[0].local_cpu_cps


def test_final_matches_direct_solver():
    rng = np.random.default_rng(51)
    for _ in range(200):
        s = sample_scenario(random_scenario_config(rng))
        assert run_bargaining(s).final == solve_uniform(s)


def test_rounds_hold_their_induced_outcome():
    # each round's outcome is the price's own evaluation, its reports are read
    # off that outcome, and a rationed final declines tied users with the
    # all-local best response
    rng = np.random.default_rng(53)
    declined = 0
    for _ in range(250):
        s = sample_scenario(random_scenario_config(rng))
        trace = run_bargaining(s)
        for rnd in trace.rounds:
            assert rnd.outcome == evaluate_price(s, rnd.broadcast.payload)
            assert [msg.payload for msg in rnd.reports] == \
                [(d.user_index, d.offloaded_bits) for d in rnd.outcome.decisions]
        last = trace.rounds[-1].outcome
        if last.feasible or trace.final.prices != last.prices:
            continue
        for k, (offered, sold) in enumerate(zip(last.decisions,
                                                trace.final.decisions)):
            if offered.offload_flag and not sold.offload_flag:
                declined += 1
                assert sold == best_response(s.kinetics[k], s.users[k],
                                             NO_OFFLOAD_PRICE, user_index=k)
    assert declined >= 20


def test_round_shape():
    rng = np.random.default_rng(52)
    for _ in range(50):
        s = sample_scenario(random_scenario_config(rng))
        trace = run_bargaining(s)
        distinct = len({u.local_cpu_cps for u in s.users})
        assert len(trace.rounds) <= distinct
        prices = [r.broadcast.payload for r in trace.rounds]
        assert all(a > b for a, b in zip(prices, prices[1:]))
        for rnd in trace.rounds:
            assert len(rnd.reports) == len(s.users)
            assert all(msg.round == rnd.broadcast.round for msg in rnd.reports)


def test_trace_deterministic(two_user_scenario):
    a = run_bargaining(two_user_scenario)
    b = run_bargaining(two_user_scenario)
    assert a == b
    assert format_trace(a) == format_trace(b)


def test_trace_golden_bytes():
    trace = run_bargaining(sample_scenario(ScenarioConfig(num_users=3, seed=7)))
    assert format_trace(trace) == GOLDEN_TRACE


def test_write_trace_round_trip(tmp_path, two_user_scenario):
    trace = run_bargaining(two_user_scenario)
    path = tmp_path / "bargain.log"
    write_trace(trace, str(path))
    assert path.read_bytes().decode("utf-8") == format_trace(trace)


def test_audit_clean_on_real_trace(two_user_scenario):
    assert information_audit(run_bargaining(two_user_scenario)) == []


def test_audit_clean_on_empty_trace(two_user_scenario):
    empty = BargainTrace(rounds=(),
                         final=run_bargaining(two_user_scenario).final)
    assert information_audit(empty) == []


def _forged(trace: BargainTrace, round_index: int, payload) -> BargainTrace:
    rnd = trace.rounds[round_index]
    bad_report = Message(kind=OFFLOAD_REPORT, round=rnd.broadcast.round,
                         sender="user_0", payload=payload)
    forged_round = type(rnd)(broadcast=rnd.broadcast,
                             reports=(bad_report,) + rnd.reports[1:],
                             outcome=rnd.outcome)
    rounds = list(trace.rounds)
    rounds[round_index] = forged_round
    return BargainTrace(rounds=tuple(rounds), final=trace.final)


def test_audit_flags_leaked_device_parameter(two_user_scenario):
    trace = run_bargaining(two_user_scenario)
    # a report smuggling the device CPU speed alongside the offload size
    leaked = _forged(trace, 0, (0, 123.0, two_user_scenario.users[0].local_cpu_cps))
    problems = information_audit(leaked)
    assert len(problems) == 1 and "payload" in problems[0]


def test_audit_flags_dict_payload(two_user_scenario):
    trace = run_bargaining(two_user_scenario)
    leaked = _forged(trace, 0, {"bits": 1.0, "local_cpu_cps": 5e8})
    assert information_audit(leaked)


def test_audit_flags_stale_round_reference(two_user_scenario):
    trace = run_bargaining(two_user_scenario)
    rnd = trace.rounds[1]
    stale = Message(kind=OFFLOAD_REPORT, round=0, sender="user_0",
                    payload=(0, 1.0))
    forged_round = type(rnd)(broadcast=rnd.broadcast,
                             reports=(stale,) + rnd.reports[1:],
                             outcome=rnd.outcome)
    forged = BargainTrace(rounds=(trace.rounds[0], forged_round),
                          final=trace.final)
    problems = information_audit(forged)
    assert any("references round" in p for p in problems)


def test_audit_flags_wrong_sender(two_user_scenario):
    trace = run_bargaining(two_user_scenario)
    rnd = trace.rounds[0]
    spoofed = Message(kind=OFFLOAD_REPORT, round=rnd.broadcast.round,
                      sender="user_1", payload=(0, 1.0))
    forged_round = type(rnd)(broadcast=rnd.broadcast,
                             reports=(spoofed,) + rnd.reports[1:],
                             outcome=rnd.outcome)
    forged = BargainTrace(rounds=(forged_round,) + trace.rounds[1:],
                          final=trace.final)
    assert any("does not match" in p for p in information_audit(forged))


def test_audit_flags_terminate_payload(two_user_scenario):
    real = run_bargaining(two_user_scenario)

    class ChattyTrace(BargainTrace):
        @property
        def terminate(self):
            return Message(kind=TERMINATE, round=len(self.rounds), sender=CLOUD,
                           payload=42.0)

    chatty = ChattyTrace(rounds=real.rounds, final=real.final)
    assert any("no payload" in p for p in information_audit(chatty))


def test_broadcast_payloads_are_prices_only(two_user_scenario):
    trace = run_bargaining(two_user_scenario)
    for msg in trace.messages():
        if msg.kind == PRICE_BROADCAST:
            assert isinstance(msg.payload, float)
        elif msg.kind == OFFLOAD_REPORT:
            assert isinstance(msg.payload, tuple) and len(msg.payload) == 2


def _forged_broadcast(trace: BargainTrace, price) -> BargainTrace:
    rnd = trace.rounds[0]
    broadcast = Message(kind=PRICE_BROADCAST, round=rnd.broadcast.round,
                        sender=CLOUD, payload=price)
    forged_round = type(rnd)(broadcast=broadcast, reports=rnd.reports,
                             outcome=rnd.outcome)
    return BargainTrace(rounds=(forged_round,) + trace.rounds[1:],
                        final=trace.final)


def test_audit_flags_infinite_price(two_user_scenario):
    trace = run_bargaining(two_user_scenario)
    problems = information_audit(_forged_broadcast(trace, math.inf))
    assert len(problems) == 1 and "finite nonnegative price" in problems[0]


def test_audit_flags_infinite_offload_report(two_user_scenario):
    trace = run_bargaining(two_user_scenario)
    problems = information_audit(_forged(trace, 0, (0, math.inf)))
    assert len(problems) == 1 and "finite and nonnegative" in problems[0]


def test_audit_flags_negative_user_index(two_user_scenario):
    trace = run_bargaining(two_user_scenario)
    rnd = trace.rounds[0]
    negative = Message(kind=OFFLOAD_REPORT, round=rnd.broadcast.round,
                       sender="user_-1", payload=(-1, 0.0))
    forged_round = type(rnd)(broadcast=rnd.broadcast,
                             reports=(negative,) + rnd.reports[1:],
                             outcome=rnd.outcome)
    forged = BargainTrace(rounds=(forged_round,) + trace.rounds[1:],
                          final=trace.final)
    problems = information_audit(forged)
    assert problems == ["message 1 (OffloadReport, round 0): "
                        "negative user index -1"]


def _with_round(trace: BargainTrace, round_index: int, reports) -> BargainTrace:
    rnd = trace.rounds[round_index]
    rounds = list(trace.rounds)
    rounds[round_index] = type(rnd)(broadcast=rnd.broadcast,
                                    reports=tuple(reports), outcome=rnd.outcome)
    return BargainTrace(rounds=tuple(rounds), final=trace.final)


def test_audit_flags_a_user_reporting_twice(two_user_scenario):
    trace = run_bargaining(two_user_scenario)
    first = trace.rounds[0].reports[0]
    forged = _with_round(trace, 0, (first, first))   # and none from user_1
    assert information_audit(forged) == [
        "message 2 (OffloadReport, round 0): second report from user 0 in "
        "this round"]


def test_audit_flags_a_report_from_outside_the_bargain(two_user_scenario):
    trace = run_bargaining(two_user_scenario)
    rnd = trace.rounds[0]
    stranger = Message(kind=OFFLOAD_REPORT, round=rnd.broadcast.round,
                       sender="user_7", payload=(7, 0.0))
    forged = _with_round(trace, 0, (rnd.reports[0], stranger))
    assert information_audit(forged) == [
        "message 2 (OffloadReport, round 0): user index 7 outside the first "
        "round's 2 users"]


def test_audit_flags_a_round_short_of_reports(two_user_scenario):
    trace = run_bargaining(two_user_scenario)
    forged = _with_round(trace, 1, trace.rounds[1].reports[:1])
    assert information_audit(forged) == [
        "message 5 (Terminate, round 2): round 1 held 1 reports, the first "
        "round 2"]


def _into_an_open_round(trace: BargainTrace, reports) -> BargainTrace:
    """Round 0 as a ``Reports`` column, then a broadcast of unknown kind,
    which leaves round 0 open, and ``reports`` labelled round 0."""
    first, second = trace.rounds[:2]
    assert isinstance(first.reports, Reports)
    return BargainTrace(rounds=(first, replace(
        second, broadcast=replace(second.broadcast, kind="Gossip"),
        reports=reports)) + trace.rounds[2:], final=trace.final)


_GOSSIP = "message 3 (Gossip, round 1): unknown message kind 'Gossip'"


@pytest.mark.parametrize("label, expected", [
    ("a hand-built duplicate", [
        "message 4 (OffloadReport, round 0): second report from user 1 in "
        "this round"]),
    ("a second column", [
        "message 4 (OffloadReport, round 0): second report from user 0 in "
        "this round",
        "message 5 (OffloadReport, round 0): second report from user 1 in "
        "this round"]),
    ("a negative index", [
        "message 4 (OffloadReport, round 0): negative user index -1",
        "message 4 (OffloadReport, round 0): sender 'user_1' does not match "
        "reported index -1"]),
])
def test_audit_checks_reports_into_an_open_round(two_user_scenario, label,
                                                 expected):
    # a report of a user who already reported in the open round is a second
    # report, however it comes; a negative index is no such user
    trace = run_bargaining(two_user_scenario)
    assert len(trace.rounds) == 2
    round0 = trace.rounds[0].reports
    reports = {
        "a hand-built duplicate": (round0[1],),
        "a second column": Reports(0, round0.bits),
        "a negative index": (replace(round0[1], payload=(-1, 0.0)),),
    }[label]
    forged = _into_an_open_round(trace, reports)
    found = [_GOSSIP, *expected,
             f"message {4 + len(reports)} (Terminate, round 2): round 0 held "
             f"{2 + len(reports)} reports, the first round 2"]
    assert information_audit(forged) == found
    assert information_audit(_as_tuples(forged)) == found


def test_format_and_write_forged_trace(tmp_path, two_user_scenario):
    trace = run_bargaining(two_user_scenario)
    forged = _forged(trace, 0, {"bits": 1.0})
    assert information_audit(forged)
    text = format_trace(forged)
    lines, real = text.splitlines(), format_trace(trace).splitlines()
    assert lines[1] == "0\tOffloadReport\tuser_0\tpayload={'bits': 1.0}"
    assert lines[:1] + lines[2:] == real[:1] + real[2:]
    path = tmp_path / "forged.log"
    write_trace(forged, str(path))
    assert path.read_text(encoding="utf-8") == text


def test_trace_zero_bits_keep_their_sign(two_user_scenario):
    trace = run_bargaining(two_user_scenario)
    signed = _forged(_forged(trace, 0, (0, 0.0)), 1, (0, -0.0))
    lines = format_trace(signed).splitlines()
    assert lines[1].endswith("bits=0")
    assert lines[len(trace.rounds[0].reports) + 2].endswith("bits=-0")


def test_replay_builds_no_decision_records():
    # the replay, its trace and its audit read only the offload-size column;
    # building one OffloadDecision per user per round is what they avoid
    scenario = sample_scenario(ScenarioConfig(num_users=500, seed=11,
                                              capacity_cycles=500 * 2e8))
    built = 0

    def profile(frame, event, arg):
        nonlocal built
        if event == "call" and frame.f_code is OffloadDecision.__init__.__code__:
            built += 1

    sys.setprofile(profile)
    try:
        trace = run_bargaining(scenario)
        format_trace(trace)
        problems = information_audit(trace)
        replayed = built
        trace.final.decisions[0]   # the probe sees records once they are read
    finally:
        sys.setprofile(None)
    assert problems == [] and len(trace.rounds) > 1
    assert replayed == 0
    assert built == len(scenario.users)


def test_replay_readers_evaluate_no_outcome(monkeypatch, tmp_path):
    # the trace, its file, its audit and its message count read only the
    # broadcasts and the reports: a round's outcome is computed for a reader
    # of it alone, and the trace keeps no round it built
    scenario = sample_scenario(ScenarioConfig(
        num_users=200, seed=11, capacity_cycles=200 * 2e8,
        local_cpu_step_cps=1e6))
    trace = run_bargaining(scenario)

    def refuse(*args):
        raise AssertionError("a reader evaluated a round's outcome")

    monkeypatch.setattr(uniform, "_priced_outcome", refuse)
    text = format_trace(trace)
    path = tmp_path / "bargain.log"
    write_trace(trace, str(path))
    assert information_audit(trace) == []
    messages = len(trace.rounds) * (1 + len(scenario.users)) + 1
    assert len(trace.rounds) > 10 and len(text.splitlines()) == messages
    assert path.read_bytes().decode("utf-8") == text
    with pytest.raises(AssertionError, match="evaluated"):
        trace.rounds[1].outcome
    monkeypatch.undo()
    rnd = trace.rounds[1]
    assert rnd is not trace.rounds[1]
    assert rnd.reports[0].payload[0] == 0
    assert rnd.outcome == evaluate_price(scenario, rnd.broadcast.payload)
    read = weakref.ref(rnd)
    del rnd
    assert read() is None


def test_replayed_rounds_equal_their_built_copies():
    # a round read from a replay is a BargainRound as the constructor builds
    # one: it compares, hashes and prints as its copy. The rounds themselves
    # are a replay's scenario and prices, which no tuple of rounds equals
    scenario = sample_scenario(ScenarioConfig(
        num_users=40, seed=11, capacity_cycles=40 * 2e8,
        local_cpu_step_cps=1e6))
    trace = run_bargaining(scenario)
    built = tuple(BargainRound(r.broadcast, tuple(r.reports),
                               evaluate_price(scenario, r.broadcast.payload))
                  for r in trace.rounds)
    assert len(built) > 2
    for rnd, copy in zip(trace.rounds, built):
        assert type(rnd) is BargainRound
        assert rnd == copy and copy == rnd and hash(rnd) == hash(copy)
        assert repr(rnd) == repr(copy)
        assert replace(rnd, outcome=trace.final) == \
            replace(copy, outcome=trace.final)
    assert trace.rounds != built


def _golden_trace() -> BargainTrace:
    return run_bargaining(sample_scenario(ScenarioConfig(num_users=3, seed=7)))


@pytest.mark.parametrize("label", [0, 7])
def test_audit_flags_a_broadcast_out_of_sequence(label):
    # round 1's broadcast and reports relabelled as one round: the reports
    # agree with their broadcast, but the broadcast is the bargain's second
    trace = _golden_trace()
    rnd = trace.rounds[1]
    relabelled = type(rnd)(broadcast=replace(rnd.broadcast, round=label),
                           reports=Reports(label, rnd.reports.bits),
                           outcome=rnd.outcome)
    forged = BargainTrace(rounds=(trace.rounds[0], relabelled, trace.rounds[2]),
                          final=trace.final)
    assert format_trace(forged).splitlines()[4].startswith(f"{label}\t")
    assert information_audit(forged) == [
        f"message 4 (PriceBroadcast, round {label}): broadcast numbered round "
        f"{label} is broadcast 1 of the bargain"]


def test_audit_flags_a_terminate_out_of_sequence():
    # the last round dropped, and the bargain's own terminate kept
    real = _golden_trace()

    class Truncated(BargainTrace):
        terminate = real.terminate

    cut = Truncated(rounds=real.rounds[:2], final=real.final)
    assert information_audit(cut) == [
        "message 8 (Terminate, round 3): terminate numbered round 3 ends a "
        "bargain of 2 rounds"]


def test_reports_read_as_their_tuple():
    trace = _golden_trace()
    rnd = trace.rounds[1]
    assert rnd.reports.bits is rnd.outcome.decisions.offloaded_bits
    fresh = Reports(rnd.reports.round_index, rnd.reports.bits)   # unread
    messages = tuple(rnd.reports)
    assert [m.payload for m in messages] == \
        [(i, b) for i, b in enumerate(rnd.outcome.decisions.offloaded_bits.tolist())]
    assert all(type(m.payload[0]) is int and type(m.payload[1]) is float
               for m in messages)
    assert len(fresh) == 3
    assert fresh == messages and messages == fresh and fresh == rnd.reports
    assert fresh != Reports(0, rnd.reports.bits) and fresh != messages[:2]
    assert hash(fresh) == hash(messages)
    assert repr(fresh) == repr(messages)
    assert fresh[1] == messages[1] and fresh[-1] == messages[-1]
    assert fresh[1:] == messages[1:] and type(fresh[1:]) is tuple
    assert list(fresh) == list(messages)
    assert messages[2] in fresh and fresh.index(messages[2]) == 2
    # a slice is a tuple, so a round is still forged by concatenation
    bad = Message(kind=OFFLOAD_REPORT, round=1, sender="user_0",
                  payload=(0, -1.0))
    forged = _with_round(trace, 1, (bad,) + rnd.reports[1:])
    assert information_audit(forged) == [
        "message 5 (OffloadReport, round 1): offload report must be finite "
        "and nonnegative, got -1.0"]


def test_replay_builds_one_message_per_round():
    # the reports stay a column through the replay, its trace and its audit;
    # the messages are built only for a reader of one round's reports
    scenario = sample_scenario(ScenarioConfig(num_users=500, seed=11,
                                              capacity_cycles=500 * 2e8))
    built = 0

    def profile(frame, event, arg):
        nonlocal built
        if event == "call" and frame.f_code is Message.__init__.__code__:
            built += 1

    sys.setprofile(profile)
    try:
        trace = run_bargaining(scenario)
        format_trace(trace)
        problems = information_audit(trace)
        replayed = built
        trace.rounds[-1].reports[0]
    finally:
        sys.setprofile(None)
    assert problems == [] and len(trace.rounds) > 1
    assert replayed <= len(trace.rounds) + 1
    assert built == replayed + len(scenario.users)


@pytest.mark.parametrize("num_users, step", [(500, 1e8), (40, 1e5)])
def test_trace_formats_each_changed_report_once(monkeypatch, num_users, step):
    # a report's line is rebuilt only when the user's bits change: every
    # report of the first round, then at most one change per user along the
    # walk. A rebuilt +0.0 is the constant 0; every other rebuilt value goes
    # once through the one batch formatter, and each broadcast formats its
    # price alone. Batches of 3 make a round's values span several batches,
    # and the round keeps them all
    trace = run_bargaining(sample_scenario(ScenarioConfig(
        num_users=num_users, seed=11, capacity_cycles=num_users * 2e8,
        local_cpu_step_cps=step)))
    batched, prices = [], []

    def fmt_rows(row, columns):
        (values,) = columns
        batched.extend(values.tolist())
        return format_rows(row, columns)

    def fmt(x):
        prices.append(x)
        return _fmt(x)

    monkeypatch.setattr(protocol, "format_rows", fmt_rows)
    monkeypatch.setattr(protocol, "_fmt", fmt)
    monkeypatch.setattr("edgeprice.text._BATCH", 3)
    text = format_trace(trace)
    monkeypatch.undo()
    assert text == format_trace(_as_tuples(trace))
    patterns = [r.reports.bits.view(np.int64) for r in trace.rounds]
    changed = np.concatenate([patterns[0]] + [
        now[now != before] for before, now in zip(patterns, patterns[1:])])
    reports = sum(map(len, patterns))
    assert len(trace.rounds) > 3 and len(changed) < reports / 2
    assert np.count_nonzero(changed == 0) > 0
    formatted = np.array(batched, dtype=float).view(np.int64)
    assert np.count_nonzero(formatted == 0) == 0
    assert formatted.tolist() == changed[changed != 0].tolist()
    assert prices == [r.broadcast.payload for r in trace.rounds]


@pytest.mark.parametrize("batch", [1, 3, 1 << 14])
def test_batch_formatter_matches_the_one_value_format(monkeypatch, batch):
    # the shared row writer gives each row the text of the row template
    # applied to it alone, whatever the batch: one column and seven, float
    # indices and flags in %d cells, signed zeros, NaN, infinities and
    # subnormals, and tables of 1, a batch and a batch and one rows
    monkeypatch.setattr("edgeprice.text._BATCH", batch)
    specials = [1750880.8287817608, 0.0, -0.0, math.nan, -math.nan, math.inf,
                -math.inf, 5e-324, 2.0**-1050, 1e300, 0.1]
    seven = ("user %d: price={0} offload=%d bits={0} latency_s={0} "
             "payment_s={0} cost_s={0}\n").format(SHOWN)
    for n in (1, batch, batch + 1):
        values = np.resize(np.array(specials), n)
        index = np.arange(n, dtype=float)
        flags = (np.arange(n) % 2).astype(float)
        one = "".join(format_rows(EXACT + "\n", [values]))
        assert one == "".join(_fmt(x) + "\n" for x in values.tolist())
        columns = [index, values, flags, values[::-1], -values, values, values]
        rows = "".join(format_rows(seven, columns))
        assert rows == "".join(seven % tuple(row) for row in zip(
            range(n), values.tolist(), (np.arange(n) % 2).tolist(),
            *(c.tolist() for c in columns[3:])))
        assert len(list(format_rows(seven, columns))) == -(-n // batch)
        assert list(format_rows(seven, [c[:0] for c in columns])) == []


# a column two users shorter than the one before it, then three longer, and
# user 1's bits going from a number to +0.0, -0.0, NaN and a number again
MEMO_COLUMNS = ((1.5, 0.25, 2.0, 3.0), (1.5, 0.0),
                (1.5, -0.0, 2.5, 2.0, 4.0), (1.5, math.nan, 2.5, 2.0, 4.0),
                (1.5, 0.25, 2.5, 2.0, 4.0))
MEMO_TRACE = (
    "0\tPriceBroadcast\tcloud\tprice=5.0000000000000001e-09\n"
    "0\tOffloadReport\tuser_0\tuser=0 bits=1.5\n"
    "0\tOffloadReport\tuser_1\tuser=1 bits=0.25\n"
    "0\tOffloadReport\tuser_2\tuser=2 bits=2\n"
    "0\tOffloadReport\tuser_3\tuser=3 bits=3\n"
    "1\tPriceBroadcast\tcloud\tprice=4.0000000000000002e-09\n"
    "1\tOffloadReport\tuser_0\tuser=0 bits=1.5\n"
    "1\tOffloadReport\tuser_1\tuser=1 bits=0\n"
    "2\tPriceBroadcast\tcloud\tprice=3.0000000000000004e-09\n"
    "2\tOffloadReport\tuser_0\tuser=0 bits=1.5\n"
    "2\tOffloadReport\tuser_1\tuser=1 bits=-0\n"
    "2\tOffloadReport\tuser_2\tuser=2 bits=2.5\n"
    "2\tOffloadReport\tuser_3\tuser=3 bits=2\n"
    "2\tOffloadReport\tuser_4\tuser=4 bits=4\n"
    "3\tPriceBroadcast\tcloud\tprice=2.0000000000000001e-09\n"
    "3\tOffloadReport\tuser_0\tuser=0 bits=1.5\n"
    "3\tOffloadReport\tuser_1\tuser=1 bits=nan\n"
    "3\tOffloadReport\tuser_2\tuser=2 bits=2.5\n"
    "3\tOffloadReport\tuser_3\tuser=3 bits=2\n"
    "3\tOffloadReport\tuser_4\tuser=4 bits=4\n"
    "4\tPriceBroadcast\tcloud\tprice=1.0000000000000001e-09\n"
    "4\tOffloadReport\tuser_0\tuser=0 bits=1.5\n"
    "4\tOffloadReport\tuser_1\tuser=1 bits=0.25\n"
    "4\tOffloadReport\tuser_2\tuser=2 bits=2.5\n"
    "4\tOffloadReport\tuser_3\tuser=3 bits=2\n"
    "4\tOffloadReport\tuser_4\tuser=4 bits=4\n"
    "5\tTerminate\tcloud\t-\n"
)


def test_trace_memo_leaks_no_stale_line(tmp_path):
    # users 2 and 3 leave and come back with other bits, user 4 is new, and
    # user 1's line follows its value through both zeros and NaN
    outcome = _golden_trace().final
    trace = BargainTrace(rounds=tuple(
        BargainRound(broadcast=Message(PRICE_BROADCAST, i, CLOUD,
                                       1e-9 * (5 - i)),
                     reports=Reports(i, np.array(bits)), outcome=outcome)
        for i, bits in enumerate(MEMO_COLUMNS)), final=outcome)
    assert format_trace(trace) == MEMO_TRACE
    assert format_trace(_as_tuples(trace)) == MEMO_TRACE
    path = tmp_path / "memo.log"
    write_trace(trace, str(path))
    assert path.read_bytes().decode("utf-8") == MEMO_TRACE


def _as_tuples(trace: BargainTrace) -> BargainTrace:
    """The trace with every round's reports a plain tuple of messages, so
    the trace and the audit take their per-message path."""
    return BargainTrace(rounds=tuple(replace(r, reports=tuple(r.reports))
                                     for r in trace.rounds),
                        final=trace.final)


@st.composite
def replayed_scenarios(draw) -> Scenario:
    """Scenarios of 1-30 users, a third of them on a fine CPU grid (steps of
    1e5-1e7 cycles/s, many rounds), at capacities from a twentieth to
    1.5 times 2e8 cycles per user."""
    num_users = draw(st.integers(1, 30))
    step = draw(st.sampled_from((1e8, 1e8, 1e8, 1e8, 1e8, 1e8, 1e5, 1e6, 1e7)))
    share = draw(st.floats(0.05, 1.5))
    return sample_scenario(ScenarioConfig(
        num_users=num_users, seed=draw(st.integers(0, 2**63 - 1)),
        capacity_cycles=share * num_users * 2e8, local_cpu_step_cps=step))


def replayed_traces():
    """The replays of ``replayed_scenarios``."""
    return replayed_scenarios().map(run_bargaining)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(replayed_scenarios())
def test_replay_stops_at_the_first_overflowing_candidate(s):
    # the stop rule, against each candidate scored on its own: the rounds
    # broadcast the candidates from the highest down through the first one
    # whose induced load overflows the capacity, or all of them
    expected = []
    for price in reversed(candidate_prices(s)):
        expected.append(price)
        if not evaluate_price(s, price).feasible:
            break
    assert [r.broadcast.payload for r in run_bargaining(s).rounds] == expected


@settings(max_examples=40, derandomize=True, deadline=None)
@given(replayed_traces())
def test_column_path_writes_and_audits_as_messages(trace):
    reference = _as_tuples(trace)
    assert format_trace(trace) == format_trace(reference)
    assert information_audit(trace) == information_audit(reference) == []


def test_replay_over_forged_balances_audits_message_by_message():
    # balances no report may carry, written into the read-only column after
    # the replay: the audit can no longer count the replay's reports in
    # bulk, and reads it message by message, its rounds built from the
    # column; the writer still reads the column and shows what they report
    scenario = sample_scenario(ScenarioConfig(
        num_users=40, seed=11, capacity_cycles=40 * 2e8,
        local_cpu_step_cps=1e6))
    trace = run_bargaining(scenario)
    bits = scenario.columns.balance_bits
    offloaders = np.flatnonzero(
        scenario.columns.threshold >= trace.rounds.broadcasts[-1].payload)
    assert len(trace.rounds) > 2 and len(offloaders) >= 3
    bits.flags.writeable = True
    bits[offloaders[:3]] = math.nan, -2.0, math.inf
    reference = _as_tuples(trace)
    found = information_audit(trace)
    assert found and all("finite and nonnegative" in f for f in found)
    assert found == information_audit(reference)
    assert format_trace(trace) == format_trace(reference)


FORGED_BITS = st.sampled_from((math.nan, -math.nan, math.inf, -math.inf,
                               -1.0, -3e-9, -0.0, 0.0, 5e-324, -5e-324,
                               2.0**-1050, 1.0))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(replayed_traces(), st.data())
def test_forged_columns_write_and_audit_as_messages(trace, data):
    # forged values at random positions, columns a report short or long,
    # stale round labels and a broadcast of unknown kind, which leaves the
    # previous round open, so its users' reports read as second reports
    rounds = []
    for rnd in trace.rounds:
        bits = rnd.reports.bits.copy()
        for pos, value in data.draw(st.lists(
                st.tuples(st.integers(0, len(bits) - 1), FORGED_BITS),
                max_size=4)):
            bits[pos] = value
        size = data.draw(st.sampled_from((0, 0, 0, 0, -1, 1)))
        bits = (bits[:size] if size < 0
                else np.append(bits, data.draw(FORGED_BITS)) if size else bits)
        label = data.draw(st.sampled_from(
            (rnd.broadcast.round,) * 4 + (rnd.broadcast.round + 1, 0)))
        kind = data.draw(st.sampled_from((PRICE_BROADCAST,) * 5 + ("Gossip",)))
        rounds.append(replace(rnd, broadcast=replace(rnd.broadcast, kind=kind),
                              reports=Reports(label, bits)))
    forged = BargainTrace(rounds=tuple(rounds), final=trace.final)
    reference = _as_tuples(forged)
    assert format_trace(forged) == format_trace(reference)
    assert information_audit(forged) == information_audit(reference)


def test_audit_flags_a_report_the_writer_shows_whole():
    # a numpy float is not the replay's float: the writer shows the payload
    # whole, so the audit must flag it too
    trace = _golden_trace()
    payload = (0, np.float64(1.0))
    forged = _forged(trace, 0, payload)
    assert format_trace(forged).splitlines()[1] == \
        f"0\tOffloadReport\tuser_0\tpayload={payload!r}"
    assert information_audit(forged) == [
        f"message 1 (OffloadReport, round 0): report payload must be (user "
        f"index, offloaded bits), got {payload!r}"]


def test_audit_flags_a_broadcast_the_writer_shows_whole():
    trace = _golden_trace()
    price = np.float64(1e-08)
    forged = _forged_broadcast(trace, price)
    assert format_trace(forged).splitlines()[0] == \
        f"0\tPriceBroadcast\tcloud\tpayload={price!r}"
    assert information_audit(forged) == [
        f"message 0 (PriceBroadcast, round 0): broadcast payload must be a "
        f"single finite nonnegative price, got {price!r}"]


def test_replay_equality_builds_no_records():
    # two replays compare by their broadcasts and scenarios, and their
    # rounds hash by the broadcasts: neither side builds its decision
    # records or its report messages. The same users in reverse order are
    # another scenario whose walk visits the same prices, so its replay has
    # the same broadcasts and still differs
    scenario = sample_scenario(ScenarioConfig(num_users=500, seed=11,
                                              capacity_cycles=500 * 2e8))
    a, b = run_bargaining(scenario), run_bargaining(scenario)
    flipped = run_bargaining(Scenario(system=scenario.system,
                                      users=scenario.users[::-1]))
    built = {OffloadDecision.__init__.__code__: 0, Message.__init__.__code__: 0}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in built:
            built[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        equal = a == b
        hashed = hash(a.rounds) == hash(b.rounds)
        moved = a.rounds[1].reports == b.rounds[0].reports
        other = a.rounds == flipped.rounds or flipped.rounds == a.rounds
    finally:
        sys.setprofile(None)
    assert len(a.rounds) > 1 and equal and hashed and not moved
    assert flipped.rounds.broadcasts == a.rounds.broadcasts and not other
    assert list(built.values()) == [0, 0]
    assert hash(a) == hash(b) and a != flipped


def test_replay_readers_build_no_round(monkeypatch, tmp_path):
    # the writer and the audit read a replay from its broadcasts and its
    # scenario's columns alone: not one round is built, the first included
    scenario = sample_scenario(ScenarioConfig(
        num_users=200, seed=11, capacity_cycles=200 * 2e8,
        local_cpu_step_cps=1e6))
    trace = run_bargaining(scenario)
    expected = format_trace(_as_tuples(trace))

    def refuse(self, index):
        raise AssertionError("a reader built a round")

    monkeypatch.setattr(protocol.Rounds, "__getitem__", refuse)
    path = tmp_path / "bargain.log"
    write_trace(trace, str(path))
    assert format_trace(trace) == expected
    assert path.read_bytes().decode("utf-8") == expected
    assert information_audit(trace) == []
    assert len(trace.rounds) > 10
    with pytest.raises(AssertionError, match="built a round"):
        list(trace.messages())


def _decisions(bits, payment) -> Decisions:
    n = len(bits)
    return Decisions(np.array(bits), np.ones(n, dtype=bool), np.zeros(n),
                     np.ones(n), np.array(payment))


_NAN_REPORTS = Reports(0, [1.0, math.nan])
_NAN_DECISIONS = _decisions([1.0, 2.0], [math.nan, 0.0])


@pytest.mark.parametrize("a, b", [
    (Reports(0, [1.0, math.nan]), Reports(0, [1.0, math.nan])),
    (Reports(0, _NAN_REPORTS.bits), _NAN_REPORTS),
    (_NAN_REPORTS, _NAN_REPORTS),
    (Reports(2, [-0.0, 3.0]), Reports(2, [0.0, 3.0])),
    (Reports(2, [1.0]), Reports(3, [1.0])),
    (Reports(2, []), Reports(3, [])),
    (Reports(2, [1.0, 2.0]), Reports(2, [1.0])),
    (_decisions([1.0, 2.0], [math.nan, 0.0]), _NAN_DECISIONS),
    (_NAN_DECISIONS, _NAN_DECISIONS),
    (_decisions([-0.0, 2.0], [0.0, -0.0]), _decisions([0.0, 2.0], [-0.0, 0.0])),
    (_decisions([1.0, 2.0], [0.5, 0.5]), _decisions([1.0, 2.5], [0.5, 0.5])),
])
def test_column_equality_is_the_tuples(a, b):
    # NaN is unequal, -0.0 equals 0.0, and x == x as tuple identity makes it
    expected = tuple(a) == tuple(b)
    assert (a == b) is expected and (b == a) is expected
    assert (a != b) is not expected


FLOATS = st.one_of(
    st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                     5e-324, -5e-324, 2.0**-1050, 2.2250738585072009e-308,
                     0.1 + 0.2, 1.0 / 3.0, 1750880.8287817608,
                     1.7976931348623157e308)),
    st.floats(), st.floats(-1e-307, 1e-307))


def _bit_pattern(x: float) -> int:
    return int(np.float64(x).view(np.int64))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.lists(st.tuples(FLOATS, st.lists(FLOATS, max_size=5)),
                min_size=1, max_size=4))
def test_trace_floats_parse_back_to_their_bits(columns):
    # forged columns and prices, with values repeating across rounds so the
    # writer reuses lines; every price= and bits= field reads back through
    # float() to the bit pattern it was written from. "%.17g" writes any
    # NaN as "nan", dropping its sign and payload, so a NaN only has to
    # read back as a NaN.
    golden = _golden_trace()
    rounds, sent = [], []
    for r, (price, bits) in enumerate(columns):
        broadcast = Message(kind=PRICE_BROADCAST, round=r, sender=CLOUD,
                            payload=price)
        rounds.append(replace(golden.rounds[0], broadcast=broadcast,
                              reports=Reports(r, bits)))
        sent += [price, *bits]
    trace = BargainTrace(rounds=tuple(rounds), final=golden.final)
    read = [float(line.split("\t")[3].split("=")[-1])
            for line in format_trace(trace).splitlines()[:-1]]
    assert len(read) == len(sent)
    for x, y in zip(sent, read):
        if math.isnan(x):
            assert math.isnan(y)
        else:
            assert _bit_pattern(y) == _bit_pattern(x)
