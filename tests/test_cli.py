import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import edgeprice
from edgeprice.bench import SOLVERS
from edgeprice.cli import main
from edgeprice.scenario import ScenarioConfig, sample_scenario
from edgeprice.text import _BATCH
from edgeprice.uniform import Decisions

SCENARIO_CFG = "num_users = 4\nseed = 11\ncapacity_cycles = 3e9\n"
SWEEP_CFG = (
    "sweep_param = capacity_cycles\n"
    "sweep_values = 2e9, 4e9\n"
    "trials = 2\n"
    "num_users = 4\n"
    "seed = 11\n")


def test_run_uniform_deterministic(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(SCENARIO_CFG)
    assert main(["run", "--config", str(cfg)]) == 0
    first = capsys.readouterr().out
    assert main(["run", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == first
    assert "revenue_s=" in first and "user 0:" in first


# run's text for SCENARIO_CFG, pinned byte for byte
RUN_TEXT = {
    "uniform": (
        "scheme=uniform\n"
        "num_users=4\n"
        "capacity_cycles=3e+09\n"
        "price_s_per_cycle=5e-09\n"
        "feasible=True\n"
        "total_load_cycles=1.45691848e+09\n"
        "revenue_s=7.2845924\n"
        "user 0: price=5e-09 offload=0 bits=0 latency_s=2.25975305 "
        "payment_s=0 cost_s=2.25975305\n"
        "user 1: price=5e-09 offload=1 bits=2313399.09 latency_s=0.387465217 "
        "payment_s=7.2845924 cost_s=7.67205762\n"
        "user 2: price=5e-09 offload=0 bits=0 latency_s=8.4614171 "
        "payment_s=0 cost_s=8.4614171\n"
        "user 3: price=5e-09 offload=0 bits=0 latency_s=1.88587309 "
        "payment_s=0 cost_s=1.88587309\n"),
    "differentiated": (
        "scheme=differentiated\n"
        "num_users=4\n"
        "capacity_cycles=3e+09\n"
        "feasible=True\n"
        "total_load_cycles=2.4355333e+09\n"
        "revenue_s=9.24182205\n"
        "user 0: price=2e-09 offload=1 bits=1715602.25 latency_s=0.302523402 "
        "payment_s=1.95722965 cost_s=2.25975305\n"
        "user 1: price=5e-09 offload=1 bits=2313399.09 latency_s=0.387465217 "
        "payment_s=7.2845924 cost_s=7.67205762\n"
        "user 2: price=inf offload=0 bits=0 latency_s=8.4614171 "
        "payment_s=0 cost_s=8.4614171\n"
        "user 3: price=inf offload=0 bits=0 latency_s=1.88587309 "
        "payment_s=0 cost_s=1.88587309\n"),
    "local_only": (
        "scheme=local_only\n"
        "num_users=4\n"
        "capacity_cycles=3e+09\n"
        "avg_latency_s=5.06977521\n"
        "revenue_s=0\n"),
}
# sha256 prefixes of run's text for configs/scenario_default.cfg
DEFAULT_RUN_SHA256 = {"uniform": "e990f00bfbb8c109",
                      "differentiated": "e1f372e389ea7c9a",
                      "local_only": "c576eff743a04b2c"}
DEFAULT_CFG = Path(__file__).resolve().parents[1] / "configs" / "scenario_default.cfg"


@pytest.mark.parametrize("scheme", sorted(RUN_TEXT))
def test_run_text_is_pinned(tmp_path, capsys, scheme):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(SCENARIO_CFG)
    assert main(["run", "--config", str(cfg), "--scheme", scheme]) == 0
    assert capsys.readouterr().out == RUN_TEXT[scheme]
    assert main(["run", "--config", str(DEFAULT_CFG), "--scheme", scheme]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == DEFAULT_RUN_SHA256[scheme]


@pytest.mark.parametrize("scheme", sorted(RUN_TEXT))
def test_run_builds_no_decision_records(tmp_path, capsys, monkeypatch, scheme):
    # run writes its lines from the outcome's columns, never its records
    def refuse(self):
        raise AssertionError("run built the OffloadDecision records")

    monkeypatch.setattr(Decisions, "_build", refuse)
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(SCENARIO_CFG)
    assert main(["run", "--config", str(cfg), "--scheme", scheme]) == 0
    assert capsys.readouterr().out == RUN_TEXT[scheme]


def _record_lines(outcome) -> list[str]:
    """run's user lines as built from the ``OffloadDecision`` records."""
    fmt = "%.9g".__mod__
    return [f"user {d.user_index}: price={fmt(price)} offload={d.offload_flag} "
            f"bits={fmt(d.offloaded_bits)} latency_s={fmt(d.latency_s)} "
            f"payment_s={fmt(d.payment_s)} cost_s={fmt(d.cost_s)}\n"
            for price, d in zip(outcome.prices, outcome.decisions)]


@pytest.mark.parametrize("scheme", ["uniform", "differentiated"])
def test_run_user_lines_match_the_records(tmp_path, capsys, scheme):
    # more users than two batches of the line writer, so a batch boundary
    # and a short last batch are both crossed
    k = 2 * _BATCH + 3
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(f"num_users = {k}\nseed = 5\ncapacity_cycles = {2e8 * k}\n")
    assert main(["run", "--config", str(cfg), "--scheme", scheme]) == 0
    lines = capsys.readouterr().out.splitlines(True)
    outcome = SOLVERS[scheme](sample_scenario(ScenarioConfig(
        num_users=k, seed=5, capacity_cycles=2e8 * k)))
    assert lines[-k - 1].startswith("revenue_s=")
    assert lines[-k:] == _record_lines(outcome)


def test_run_all_schemes(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(SCENARIO_CFG)
    for scheme in ("uniform", "differentiated", "local_only"):
        assert main(["run", "--config", str(cfg), "--scheme", scheme]) == 0
        assert "revenue_s=" in capsys.readouterr().out


def test_run_seed_override(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(SCENARIO_CFG)
    main(["run", "--config", str(cfg)])
    base = capsys.readouterr().out
    main(["run", "--config", str(cfg), "--seed", "99"])
    assert capsys.readouterr().out != base


def test_sweep_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert len(out1.read_text().splitlines()) == 1 + 2 * 2 * 3
    capsys.readouterr()


def test_sweep_trials_override(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    out = tmp_path / "c.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--trials", "1"]) == 0
    assert len(out.read_text().splitlines()) == 1 + 2 * 1 * 3
    capsys.readouterr()


def test_trace_stdout_and_file(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(SCENARIO_CFG)
    assert main(["trace", "--config", str(cfg)]) == 0
    streamed = capsys.readouterr().out
    assert "PriceBroadcast" in streamed and "Terminate" in streamed
    log = tmp_path / "bargain.log"
    assert main(["trace", "--config", str(cfg), "--out", str(log)]) == 0
    capsys.readouterr()
    assert log.read_text() == streamed


@pytest.mark.parametrize("command", ["trace", "run"])
def test_reader_closing_the_pipe_early_is_no_error(tmp_path, capsys, command):
    # ``edgeprice ... | head -1``: the reader takes one line and closes the
    # pipe while far more output than the pipe holds is still to come, so a
    # write fails with EPIPE. That exits 1, quietly, not 2 for bad input
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("num_users = 3000\ncapacity_cycles = 6e11\n")
    src = str(Path(edgeprice.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    with subprocess.Popen(
            [sys.executable, "-m", "edgeprice.cli", command, "--config",
             str(cfg)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b""
    assert first.startswith(b"0\tPriceBroadcast" if command == "trace"
                            else b"scheme=uniform")
    # the whole output is far more than a pipe holds (64 KiB on Linux)
    assert main([command, "--config", str(cfg)]) == 0
    assert len(capsys.readouterr().out) > 1 << 18


def test_verify_subcommand(capsys):
    assert main(["verify", "--seed", "1", "--trials", "20"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6 and "FAIL" not in out


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_rejects_nonpositive_trials(trials, capsys):
    assert main(["verify", "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert f"trials must be >= 1 (got {trials})" in captured.err


def test_missing_config_is_reported(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_config_value_is_reported(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("num_users = 0\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "num_users" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "gain_db_min = nan", "gain_db_min = -inf", "gain_db_max = inf",
    "data_kb_max = inf", "data_kb_max = nan", "cycles_per_bit_max = inf",
    "cycles_per_bit_max = nan", "local_cpu_max_cps = inf",
    "local_cpu_max_cps = nan",
])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_non_finite_config_bound_is_reported(tmp_path, capsys, line, command):
    name = line.split(" = ")[0]
    cfg = tmp_path / "bad.cfg"
    if command == "run":
        cfg.write_text(line + "\n")
        args = ["run", "--config", str(cfg)]
    else:
        cfg.write_text(SWEEP_CFG + line + "\n")
        args = ["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]
    assert main(args) == 2
    assert f"{name} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("text, name", [
    ("gain_db_min = -1e308\ngain_db_max = 1e308\n", "gain_db_max - gain_db_min"),
    ("local_cpu_max_cps = 1e300\n", "local_cpu_max_cps"),
    # bandwidth share times noise psd underflows to 0
    ("bandwidth_hz = 1e-310\n", "noise_psd_w_per_hz"),
    # power * gain underflows, so the SNR and the uplink rate are 0
    ("uplink_power_w = 1e-300\ngain_db_min = -300\ngain_db_max = -300\n",
     "user 0: uplink rate"),
    # a vanishing uplink rate pushes the balance point to 0
    ("uplink_power_w = 1e-300\ngain_db_min = -200\ngain_db_max = -200\n",
     "user 0: balance_bits"),
], ids=["gain_span", "cpu_max", "noise_underflow", "zero_rate",
        "balance_underflow"])
def test_config_bound_out_of_range_is_reported(tmp_path, capsys, text, name):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
