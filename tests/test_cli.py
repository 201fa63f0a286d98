import json
import math

import pytest

from selfnorm.cli import main, parse_real, parse_real_list
from selfnorm.bounds import TABLE1
from selfnorm import montecarlo
from selfnorm.montecarlo import CHECKS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def csv_rows(text):
    lines = [ln for ln in text.split("\r\n") if ln]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestParsing:
    def test_rationals(self):
        assert parse_real("9/16") == 0.5625
        assert parse_real("0.25") == 0.25
        assert parse_real_list("1/3, 0.5,2") == [1 / 3, 0.5, 2.0]

    def test_bad_input(self):
        with pytest.raises(ValueError):
            parse_real("abc")
        with pytest.raises(ValueError):
            parse_real("1/0")


class TestWeights:
    def test_table(self, capsys):
        code, out = run(capsys, "weights", "--table1")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 8
        for row, (a, c) in zip(rows, TABLE1):
            assert float(row["a"]) == pytest.approx(a, rel=1e-12)
            assert float(row["c"]) == pytest.approx(c, rel=1e-2)
            assert float(row["b"]) == pytest.approx(a * float(row["c"]), rel=1e-12)
            assert float(row["b"]) > 0.5

    def test_explicit_list(self, capsys):
        code, out = run(capsys, "weights", "--a", "1/3,9/16")
        assert code == 0
        rows = csv_rows(out)
        assert [float(r["c"]) for r in rows] == pytest.approx([2.0, 1.0], abs=1e-12)

    def test_out_of_domain_exits_2(self, capsys):
        code, _ = run(capsys, "weights", "--a", "0.1")
        assert code == 2

    def test_bad_flag_exits_2(self, capsys):
        code, _ = run(capsys, "weights", "--no-such-flag")
        assert code == 2


class TestHermite:
    def test_default_grid_passes(self, capsys):
        code, out = run(capsys, "hermite", "--x-steps", "20001")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 7
        assert all(r["satisfied"] == "True" for r in rows)
        assert all(float(r["min_margin"]) >= -1e-12 for r in rows)

    def test_custom_a_grid(self, capsys):
        code, out = run(capsys, "hermite", "--a-grid", "1/3,1", "--x-steps", "2001")
        assert code == 0
        assert len(csv_rows(out)) == 2


class TestSimulate:
    def test_idla_csv(self, capsys):
        code, out = run(capsys, "simulate", "idla", "--n", "5", "--seed", "1")
        assert code == 0
        lines = out.split("\r\n")
        assert lines[0] == "step,m,qv,pqv,x,l,r"
        assert len([ln for ln in lines if ln]) == 7

    def test_json_format(self, capsys):
        code, out = run(
            capsys, "simulate", "ar1", "--n", "4", "--seed", "1", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["header"]["seed"] == 1
        assert len(doc["rows"]) == 5

    def test_invalid_spec_exits_2(self, capsys):
        code, _ = run(capsys, "simulate", "idla", "--n", "0")
        assert code == 2


class TestVerify:
    def test_kearns_saul(self, capsys):
        code, out = run(capsys, "verify", "kearns-saul")
        assert code == 0
        assert all(r["satisfied"] == "True" for r in csv_rows(out))

    def test_idla_scaled(self, capsys):
        code, out = run(
            capsys, "verify", "idla-scaled", "--n", "50", "--reps", "5000", "--seed", "3"
        )
        assert code == 0
        rows = csv_rows(out)
        assert {"bound_weighted", "bound_azuma"} <= set(rows[0])

    def test_bad_spec_exits_2(self, capsys):
        code, _ = run(capsys, "verify", "idla-scaled", "--n", "0")
        assert code == 2

    def test_unknown_id_exits_2(self, capsys):
        code, _ = run(capsys, "verify", "no-such-inequality")
        assert code == 2


TAIL_COLUMNS = "p_hat,ci_lo,ci_hi,n_samples,satisfied"
MART_HEADER = f"x,y,bound_weighted,{TAIL_COLUMNS}"
ALL_PROCESSES = ("ar1", "idla", "learn")

# id: (CSV header, row count, --process values it runs on, size flags)
VERIFY_CASES = {
    "hermite": ("a,min_margin,argmin_x,discriminant_at_b,satisfied", 7, (), ()),
    "kearns-saul": ("p,max_ratio,satisfied", 5, (), ()),
    "weighted-tail": (MART_HEADER, 3, ALL_PROCESSES, ("--n", "30", "--reps", "2000")),
    "ratio-tail": (MART_HEADER, 3, ALL_PROCESSES, ("--n", "30", "--reps", "2000")),
    "pqv-ratio": (MART_HEADER, 3, ALL_PROCESSES, ("--n", "30", "--reps", "2000")),
    "missing-factor": (
        f"x,bound_missing-factor,{TAIL_COLUMNS}", 4, ("idla",), ("--n", "30", "--reps", "2000")
    ),
    "ar-estimator": (
        f"x,bound_weighted,bound_gauss-ar,{TAIL_COLUMNS}", 4, (), ("--n", "30", "--reps", "2000")
    ),
    "ar-laplace": ("t,mc_mean,mc_se,bound,satisfied", 2, (), ("--n", "30", "--reps", "2000")),
    "idla-scaled": (
        f"x,bound_weighted,bound_azuma,{TAIL_COLUMNS}", 4, (), ("--n", "30", "--reps", "2000")
    ),
    "idla-sqrt": (f"x,bound_sqrt-scaled,{TAIL_COLUMNS}", 4, (), ("--n", "30", "--reps", "2000")),
    "learn-threshold": (f"delta,{TAIL_COLUMNS}", 1, (), ("--n", "40", "--reps", "1000")),
    "learn-phi": (f"delta,{TAIL_COLUMNS}", 1, (), ("--n", "40", "--reps", "300")),
    "supermartingale": (
        "process,a,t,mc_mean,mc_se,satisfied", 12, ALL_PROCESSES, ("--n", "30", "--reps", "2000")
    ),
}


@pytest.mark.parametrize(
    "check_id, process",
    [(check_id, None) for check_id in CHECKS]
    + [(check_id, p) for check_id in CHECKS for p in VERIFY_CASES[check_id][2]],
)
def test_every_verify_id(capsys, monkeypatch, check_id, process):
    header, rows, _, size = VERIFY_CASES[check_id]
    calls = []
    simulate_finals = montecarlo.simulate_finals
    monkeypatch.setattr(
        montecarlo, "simulate_finals", lambda *a: calls.append(a) or simulate_finals(*a)
    )
    argv = ["verify", check_id, *size, "--seed", "3"]
    if process:
        argv += ["--process", process]
    code, out = run(capsys, *argv)
    assert code == 0
    assert out.split("\r\n")[0] == header
    assert len(csv_rows(out)) == rows
    # every row reads the finals of one simulation
    assert len(calls) == (0 if CHECKS[check_id].process is None else 1)


@pytest.mark.parametrize("check_id", ["idla-sqrt", "supermartingale"])
@pytest.mark.parametrize("reps", ["0", "-5", "99"])
def test_reps_below_floor_exits_2(capsys, check_id, reps):
    code = main(["verify", check_id, "--n", "10", "--reps", reps])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: reps must be at least 100, got {reps}"]


class TestLearningTable:
    def test_default(self, capsys):
        code, out = run(capsys, "learning-table")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 11
        zero = rows[0]
        assert float(zero["oslr3"]) == pytest.approx(0.11486752393651311, abs=1e-12)
        assert float(zero["cbg"]) == pytest.approx(0.9748980723967956, abs=5e-4)
        for r in rows:
            assert float(r["oslr3"]) < float(r["cbg"])
            assert float(r["cbg_minus_oslr3"]) == pytest.approx(
                float(r["cbg"]) - float(r["oslr3"]), abs=1e-9
            )

    def test_below_floor_exits_2(self, capsys):
        code = main(["learning-table", "--n", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert "floor" in captured.err

    def test_floor_value(self):
        # smallest usable horizon for the defaults a=1/3, delta=0.2
        floor = -(1 / 3) * 6.0 * math.log(0.2)
        assert main(["learning-table", "--n", str(math.ceil(floor))]) == 0


class TestConfigFile:
    def test_config_merges_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 6, "seed": 9}))
        code, out = run(
            capsys, "simulate", "idla", "--config", str(cfg), "--n", "4"
        )
        assert code == 0
        # --n beats the config value, seed comes from the config
        assert len([ln for ln in out.split("\r\n") if ln]) == 6

    def test_config_seed_applies(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9}))
        _, out_cfg = run(capsys, "simulate", "idla", "--n", "8", "--config", str(cfg))
        _, out_direct = run(capsys, "simulate", "idla", "--n", "8", "--seed", "9")
        assert out_cfg == out_direct

    def test_flag_with_other_dest_wins(self, tmp_path, capsys):
        # --a of weights stores into a_list; the config must not override it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a_list": "1/3"}))
        code, out = run(capsys, "weights", "--a", "9/16", "--config", str(cfg))
        assert code == 0
        assert [float(r["a"]) for r in csv_rows(out)] == [9 / 16]

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _ = run(capsys, "simulate", "idla", "--config", str(cfg))
        assert code == 2

    def test_missing_file_exits_2(self, capsys):
        code, _ = run(capsys, "simulate", "idla", "--config", "/no/such/file.json")
        assert code == 2


class TestSeedEnv:
    def test_env_default(self, monkeypatch, capsys):
        monkeypatch.setenv("SELFNORM_SEED", "9")
        _, out_env = run(capsys, "simulate", "idla", "--n", "8")
        monkeypatch.delenv("SELFNORM_SEED")
        _, out_flag = run(capsys, "simulate", "idla", "--n", "8", "--seed", "9")
        assert out_env == out_flag

    def test_flag_beats_env(self, monkeypatch, capsys):
        monkeypatch.setenv("SELFNORM_SEED", "9")
        _, out = run(capsys, "simulate", "idla", "--n", "8", "--seed", "2")
        monkeypatch.delenv("SELFNORM_SEED")
        _, direct = run(capsys, "simulate", "idla", "--n", "8", "--seed", "2")
        assert out == direct


def assert_one_error_line(code, captured):
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    # one line, which says what went wrong: no warnings before it
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


class TestSeedRange:
    def test_flag_out_of_range_exits_2(self, capsys):
        for seed in ("99999999999999999999999", str(2**63)):
            code = main(["simulate", "idla", "--n", "8", "--seed", seed])
            assert_one_error_line(code, capsys.readouterr())

    def test_env_out_of_range_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("SELFNORM_SEED", str(2**64 - 1))
        code = main(["verify", "idla-sqrt", "--n", "8", "--reps", "100"])
        assert_one_error_line(code, capsys.readouterr())


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "ar-estimator", "--theta", "3", "--n", "1000", "--reps", "200"],
        ["verify", "supermartingale", "--process", "ar1", "--theta", "3", "--n", "1000",
         "--reps", "200"],
    ],
)
def test_non_finite_finals_exit_2(capsys, argv):
    # theta = 3 overflows X_n, so every statistic is inf or NaN
    code = main(argv + ["--seed", "1"])
    captured = capsys.readouterr()
    assert_one_error_line(code, captured)
    assert "theta_hat in 200" in captured.err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_trace_exit_2(capsys, fmt):
    code = main(["simulate", "ar1", "--theta", "3", "--n", "1000", "--format", fmt])
    captured = capsys.readouterr()
    assert_one_error_line(code, captured)
    assert "m in " in captured.err and "qv in " in captured.err


def test_no_workers_option(tmp_path, capsys):
    code = main(["verify", "idla-sqrt", "--n", "8", "--reps", "100", "--workers", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    # argparse prefixes its one error line with the program name
    errors = [ln for ln in captured.err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and "--workers" in errors[0]

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workers": 2}))
    code = main(["simulate", "idla", "--n", "2", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert_one_error_line(code, captured)
    assert "workers" in captured.err

    code, out = run(capsys, "simulate", "idla", "--n", "2", "--format", "json")
    assert code == 0
    assert "workers" not in json.loads(out)["header"]["config"]
