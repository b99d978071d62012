import pytest

from edgeprice.cli import main

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
], ids=["gain_span", "cpu_max"])
def test_config_bound_out_of_range_is_reported(tmp_path, capsys, text, name):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
