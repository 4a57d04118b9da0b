"""CLI subcommands: CSV schemas, exit codes, determinism."""

import math
import warnings

import numpy as np
import pytest

from cvqkd.cli import main
from cvqkd.channel import distance_to_T
from cvqkd.decoy import DecoyDesign
from cvqkd import decoy, protocol, security


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# cvqkd-csv-v1")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:] if not line.startswith("#")]
    comments = [line for line in lines[2:] if line.startswith("#")]
    return header, rows, comments


def test_keyrate_distance_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main([
        "keyrate", "--sweep", "distance_km", "--start", "0", "--stop", "100",
        "--steps", "5", "--d", "1,8,inf", "--va", "0.5", "--xi", "0.005",
        "--eta", "0.6", "--beta", "0.8", "--out", str(out),
    ])
    assert rc == 0
    header, rows, _ = _read_csv(out)
    assert header[:3] == ["sweep", "value", "d"]
    assert len(rows) == 15
    by_d = {}
    for row in rows:
        record = dict(zip(header, row))
        assert record["sweep"] == "distance_km"
        want_t = distance_to_T(float(record["value"]))
        assert abs(float(record["t"]) - want_t) < 1e-12
        by_d.setdefault(record["d"], []).append(float(record["k"]))
    assert set(by_d) == {"1", "8", "inf"}
    # K decreases with distance while the protocol still yields key; once
    # negative it can creep back toward zero as everything attenuates
    for ks in by_d.values():
        positive = [k for k in ks if k > 0]
        assert positive and positive == sorted(positive, reverse=True)
        assert ks[0] == max(ks)


def test_keyrate_va_sweep_matches_library(tmp_path):
    out = tmp_path / "dxi.csv"
    rc = main([
        "keyrate", "--sweep", "va", "--start", "0.2", "--stop", "1.0",
        "--steps", "3", "--d", "1", "--xi", "0", "--beta", "0.9",
        "--out", str(out),
    ])
    assert rc == 0
    header, rows, _ = _read_csv(out)
    deltas = []
    for row in rows:
        record = dict(zip(header, row))
        v_a = float(record["v_a"])
        f_want, dxi_want = security.equivalent_excess_noise(1, v_a)
        assert abs(float(record["delta_xi"]) - dxi_want) < 1e-12
        assert abs(float(record["f_factor"]) - f_want) < 1e-12
        deltas.append(float(record["delta_xi"]))
    assert deltas == sorted(deltas)


def test_keyrate_optimize_va(tmp_path):
    out = tmp_path / "opt.csv"
    rc = main([
        "keyrate", "--sweep", "distance_km", "--start", "10", "--stop", "30",
        "--steps", "2", "--d", "8", "--xi", "0.005", "--eta", "0.6",
        "--beta", "0.8", "--optimize-va", "--va-min", "0.1", "--va-max", "3",
        "--out", str(out),
    ])
    assert rc == 0
    header, rows, _ = _read_csv(out)
    for row in rows:
        record = dict(zip(header, row))
        assert 0.1 <= float(record["v_a"]) <= 3.0
        assert float(record["k"]) > 0


def test_keyrate_usage_errors():
    with pytest.raises(SystemExit) as exc_info:
        main(["keyrate", "--sweep", "distance_km", "--start", "0",
              "--stop", "10", "--steps", "1"])
    assert exc_info.value.code == 2
    with pytest.raises(SystemExit) as exc_info:
        main(["keyrate", "--sweep", "va", "--start", "0.1", "--stop", "1",
              "--steps", "3", "--optimize-va"])
    assert exc_info.value.code == 2
    with pytest.raises(SystemExit) as exc_info:
        main(["keyrate", "--sweep", "xi", "--start", "0", "--stop", "0.1",
              "--steps", "3", "--d", "5"])
    assert exc_info.value.code == 2


@pytest.mark.parametrize("argv", [
    # the swept distance sets t, so a base channel flag would be ignored
    ["--sweep", "distance_km", "--stop", "10", "--transmittance", "2"],
    ["--sweep", "distance_km", "--stop", "10", "--distance-km", "5"],
    ["--sweep", "xi", "--stop", "0.01", "--distance-km", "-5"],
])
def test_keyrate_rejects_bad_base_channel(tmp_path, capsys, argv):
    out = tmp_path / "r.csv"
    with pytest.raises(SystemExit) as exc_info:
        main(["keyrate", *argv, "--start", "0", "--steps", "2", "--out", str(out)])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--distance-km" in errors[0]
    assert err.startswith("usage: cvqkd keyrate ") and errors[0].startswith("cvqkd keyrate: error:")
    assert not out.exists()


def _write_config(path, **overrides):
    base = {
        "flow": "decoy",
        "d": 8,
        "alpha": 1.0,
        "n_symbols": 8000,
        "p_est": 0.5,
        "p": 1.0,
        "transmittance": 0.9,
        "xi": 0.0,
        "seed": 3,
        "code": "rep16",
    }
    base.update(overrides)
    path.write_text("".join(f"{k} {v}\n" for k, v in base.items() if v is not None))


def test_simulate_deterministic_transcripts(tmp_path, capsys):
    cfg = tmp_path / "session.cfg"
    _write_config(cfg)
    rc1 = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")])
    rc2 = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "b")])
    assert rc1 == 0 and rc2 == 0
    for name in ("symbols.csv", "outcomes.csv", "manifest.txt", "alice_key.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    summary = capsys.readouterr().out.splitlines()[-1]
    for token in ("t_hat=", "xi_hat=", "beta_achieved=", "k=", "key_bits="):
        assert token in summary


def test_simulate_flow_override(tmp_path):
    cfg = tmp_path / "session.cfg"
    _write_config(cfg)
    out = tmp_path / "gauss"
    rc = main([
        "simulate", "--config", str(cfg), "--flow", "gaussian-postselected",
        "--out", str(out),
    ])
    assert rc == 0
    assert "flow gaussian" in (out / "manifest.txt").read_text()


@pytest.mark.parametrize("d, va", [("8", "1000"), ("1", "3000"), ("2", "20000")])
def test_keyrate_large_va(tmp_path, d, va):
    # these once ended in ZeroDivisionError, OverflowError and "failed to converge"
    out = tmp_path / "large.csv"
    rc = main(["keyrate", "--sweep", "xi", "--start", "0", "--stop", "0.01", "--steps", "2",
               "--d", d, "--va", va, "--out", str(out)])
    assert rc == 0
    header, rows, _ = _read_csv(out)
    assert len(rows) == 2
    for row in rows:
        record = dict(zip(header, row))
        assert float(record["v_a"]) == float(va)
        for name, text in record.items():
            if name not in ("sweep", "d", "detection"):
                assert math.isfinite(float(text)), name
        assert 0.0 < float(record["z_d"]) < float(record["z_epr"])


def test_keyrate_huge_va_excess_noise_floor(tmp_path):
    # Z_8 - V_A once read -2.04 here against its limit 1 - 1/(4m) = 0.9375,
    # which puts delta_xi at 2 (1 - 0.9375) = 0.125
    out = tmp_path / "huge.csv"
    rc = main(["keyrate", "--sweep", "va", "--start", "1e12", "--stop", "1e12", "--steps", "2",
               "--d", "8", "--transmittance", "0.5", "--xi", "0.01", "--out", str(out)])
    assert rc == 0
    header, rows, _ = _read_csv(out)
    for row in rows:
        assert abs(float(dict(zip(header, row))["delta_xi"]) - 0.125) <= 0.01


@pytest.mark.parametrize(
    "flag, value, field", [("--xi", "nan", "xi"), ("--xi", "inf", "xi"), ("--va", "inf", "v_a")]
)
def test_keyrate_rejects_non_finite_input(tmp_path, capsys, flag, value, field):
    rc = main(["keyrate", "--sweep", "distance_km", "--start", "0", "--stop", "10",
               "--steps", "2", "--d", "8", flag, value, "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f" {field} must be finite" in err and "unphysical" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # row 0 fails on v_a, row 1 on xi
        (["--sweep", "xi", "--start", "0", "--stop", "-0.01", "--va", "inf"],
         "modulation variance v_a must be finite and positive, got inf"),
        # row 0 fails on pairing at its second d, row 1 on v_a at its first
        (["--sweep", "va", "--start", "1", "--stop", "-1", "--d", "8,1",
          "--detection", "heterodyne"],
         "d=1 does not pair with heterodyne detection"),
    ],
)
def test_keyrate_reports_first_error_in_row_order(tmp_path, capsys, argv, message):
    rc = main(["keyrate", *argv, "--steps", "2", "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("start, stop", [("1e-310", "1e-309"), ("1e-320", "1e-319")])
def test_keyrate_refuses_a_subnormal_va(tmp_path, capsys, start, stop):
    out = tmp_path / "r.csv"
    rc = main(["keyrate", "--sweep", "va", "--start", start, "--stop", stop, "--steps", "2",
               "--d", "1,2,8", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: modulation variance v_a must be a normal float, got {float(start)}\n"
    assert not out.exists()


def test_simulate_config_error_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(protocol, "run_session", None)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("flow decoy\nd 8\nmystery 1\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "bad.cfg:3" in capsys.readouterr().err
    assert main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 2
    # abs(nan - alpha) > 1e-9 is false, so the design itself must refuse a NaN
    (tmp_path / "nan.txt").write_text("d 8\nalpha nan\np 0.5\nepsilon 0.0\nn_max 8\n0.5,1.0\n")
    _write_config(cfg, p=0.5, decoy_file="nan.txt")
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "alpha must be finite" in err


@pytest.mark.parametrize("code", ["foo", "rep0", "file"])
def test_simulate_bad_code_exits_before_running(tmp_path, capsys, monkeypatch, code):
    if code == "file":
        code = str(tmp_path / "code.txt")
        (tmp_path / "code.txt").write_text("4 3\n0 0\n0 1\n")
    cfg = tmp_path / "session.cfg"
    _write_config(cfg, code=code)
    monkeypatch.setattr(protocol, "run_session", None)
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "code" in err


@pytest.mark.parametrize("d, detection", [(8, "homodyne"), (1, "heterodyne")])
def test_simulate_rejects_unpaired_detection_at_load(tmp_path, capsys, monkeypatch,
                                                     d, detection):
    cfg = tmp_path / "session.cfg"
    _write_config(cfg, flow="gaussian", d=d, detection=detection)
    monkeypatch.setattr(protocol, "run_session", None)
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "does not pair" in err


@pytest.mark.parametrize("where", ["flag", "config"])
def test_simulate_rejects_negative_seed(tmp_path, capsys, where):
    cfg = tmp_path / "session.cfg"
    _write_config(cfg, seed=-3 if where == "config" else 3)
    argv = ["simulate", "--config", str(cfg)] + (["--seed", "-1"] if where == "flag" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "seed" in err


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--snr", "nan"), ("--snr", "0"),
                                         ("--snr", "1e-320")])
def test_reconcile_bench_rejects_bad_seed_and_snr(capsys, flag, value):
    with pytest.raises(SystemExit) as exc_info:
        main(["reconcile-bench", "--frames", "2", flag, value])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and flag in errors[0]
    assert err.startswith("usage: cvqkd reconcile-bench ")
    assert errors[0].startswith("cvqkd reconcile-bench: error:")


def test_simulate_value_error_is_one_error_line(tmp_path, capsys, monkeypatch):
    def boom(config):
        raise ValueError("boom")

    cfg = tmp_path / "session.cfg"
    _write_config(cfg)
    monkeypatch.setattr(protocol, "run_session", boom)
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: boom\n"


def test_simulate_runtime_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "degenerate.cfg"
    _write_config(
        cfg, flow="gaussian", d=1, detection="homodyne", n_symbols=2048,
        gamma_min=1.0, gamma_max=1.0,
    )
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert "error" in capsys.readouterr().err


def test_simulate_refuses_without_positive_rate(tmp_path, capsys):
    cfg = tmp_path / "noisy.cfg"
    _write_config(cfg, xi=1.0, transmittance=0.5)
    assert main(["simulate", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert "key_bits=0" in captured.out
    assert "not positive" in captured.err


@pytest.mark.parametrize("argv", [
    ["keyrate", "--sweep", "xi", "--start", "0", "--stop", "0.01", "--steps", "2"],
    ["simulate", "--config", None],
    ["decoy-opt", "--d", "2", "--alpha", "0.5", "--p", "0.5"],
    ["reconcile-bench", "--frames", "2"],
], ids=lambda argv: argv[0])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    # --out is checked before any symbol is drawn or any LP is solved
    monkeypatch.setattr(protocol, "run_session", None)
    monkeypatch.setattr(decoy, "optimize_decoy", None)
    cfg = tmp_path / "session.cfg"
    _write_config(cfg)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sub"
    argv = [str(cfg) if arg is None else arg for arg in argv]
    assert main([*argv, "--out", str(out)]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and str(out) in errors[0]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["file", "session.cfg"]


def test_decoy_opt_writes_design(tmp_path, capsys):
    out = tmp_path / "design.txt"
    rc = main(["decoy-opt", "--d", "2", "--alpha", "0.5", "--p", "0.5",
               "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "epsilon=" in captured
    assert "pi_d=" in captured
    design = DecoyDesign.load(out)
    assert design.epsilon <= 1e-4
    assert len(design.radii) <= 12


def test_decoy_opt_infeasible_exit_code(capsys):
    rc = main(["decoy-opt", "--d", "2", "--alpha", "0.5", "--p", "0.95"])
    assert rc == 1
    assert "photon number" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["1e-9", "1e-20"])
def test_decoy_opt_tiny_alpha_is_feasible(capsys, alpha):
    # g's weights beyond k = 0 underflow to 0 here; pi_d is 1, not 0 or nan
    assert main(["decoy-opt", "--d", "2", "--alpha", alpha, "--p", "0.5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("pi_d=1.0 k_star=0 p=0.5 feasible=yes\n")


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_decoy_opt_rejects_non_finite_alpha(capsys, alpha):
    assert main(["decoy-opt", "--d", "8", "--alpha", alpha, "--p", "0.5"]) == 2
    assert "alpha must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("d, alpha, p", [("8", "200", "0.001"), ("2", "1000", "0.0001")])
def test_decoy_opt_refuses_an_alpha_too_large_to_truncate(capsys, d, alpha, p):
    # the photon-number truncation search used to end in a RuntimeError traceback
    assert main(["decoy-opt", "--d", d, "--alpha", alpha, "--p", p]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.count("\n") == 1
    assert err.startswith(f"error: alpha={float(alpha)} at d={d} is too large")


@pytest.mark.parametrize("flag, value, field", [
    ("--max-radii", "0", "n_radii_max"),
    ("--max-radii", "-1", "n_radii_max"),
    ("--nmax", "0", "n_max"),
    ("--nmax", "-5", "n_max"),
])
def test_decoy_opt_rejects_nonpositive_sizes(capsys, flag, value, field):
    assert main(["decoy-opt", "--d", "2", "--alpha", "0.5", "--p", "0.5", flag, value]) == 2
    assert f"error: {field} must be at least 1" in capsys.readouterr().err


def test_decoy_opt_nmax_flag(tmp_path):
    out = tmp_path / "design.txt"
    rc = main(["decoy-opt", "--d", "2", "--alpha", "0.5", "--p", "0.5",
               "--nmax", "20", "--out", str(out)])
    assert rc == 0
    assert DecoyDesign.load(out).n_max == 20


@pytest.mark.parametrize("code", ["rep16", "identity"])
def test_reconcile_bench_sweeps_dimensions(tmp_path, code):
    out = tmp_path / "bench.csv"
    rc = main(["reconcile-bench", "--d", "1,2,4,8", "--snr", "2.5", "--code", code,
               "--frames", "20", "--seed", "1", "--out", str(out)])
    assert rc == 0
    header, rows, comments = _read_csv(out)
    assert header == ["d", "frame", "success", "pre_bit_errors", "post_bit_errors"]
    # one-bit identity frames at d=8 round 20 bits up to 3 whole blocks
    assert len(rows) == {"rep16": 80, "identity": 84}[code]
    assert len(comments) == 4
    for comment in comments:
        ks_p = float(comment.split("ks_p=")[1])
        assert ks_p >= 0.01
    if code == "rep16":
        assert all(row[2] == "1" for row in rows)
        assert all("success_rate=1.0" in comment for comment in comments)
    else:
        # a hard decision corrects nothing, so both counts come from one reduction
        assert all(row[3] == row[4] for row in rows)


def test_reconcile_bench_noiseless(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(["reconcile-bench", "--d", "8", "--snr", "inf", "--frames", "10",
               "--out", str(out)])
    assert rc == 0
    _, rows, comments = _read_csv(out)
    assert all(row[2] == "1" and row[3] == "0" for row in rows)
    assert math.isnan(float(comments[0].split("ks_p=")[1]))


def test_reconcile_bench_bad_code_exit_code(tmp_path, capsys):
    assert main(["reconcile-bench", "--code", "nosuchcode9"]) == 2
    assert "error" in capsys.readouterr().err
    # a path is an unknown id, even to a well-formed parity-check code file
    path = tmp_path / "code.txt"
    path.write_text("4 3\n0 0\n0 1\n")
    assert main(["reconcile-bench", "--code", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "unknown code" in err


def test_keyrate_alpha_sweep_sets_v_a(tmp_path):
    out = tmp_path / "alpha.csv"
    rc = main(["keyrate", "--sweep", "alpha", "--start", "0.2", "--stop", "1.3",
               "--steps", "4", "--d", "1,8", "--out", str(out)])
    assert rc == 0
    header, rows, _ = _read_csv(out)
    assert len(rows) == 8
    for row in rows:
        record = dict(zip(header, row))
        value = float(record["value"])
        assert record["sweep"] == "alpha"
        assert float(record["v_a"]) == 2.0 * value * value


@pytest.mark.parametrize("start, stop, v_a", [("1e-170", "1e-160", "0.0"),
                                               ("1e155", "1e160", "inf")])
def test_keyrate_alpha_sweep_refuses_v_a_outside_normal_range(capsys, start, stop, v_a):
    # V_A = 2 alpha^2 underflows to 0 or overflows to inf; the error names
    # alpha and the first offending value, before any CSV is written
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["keyrate", "--sweep", "alpha", "--start", start, "--stop", stop,
                   "--steps", "2", "--d", "8"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"error: --sweep alpha: alpha {float(start)} gives V_A = 2 alpha^2 = "
                          f"{v_a}, outside")


def test_keyrate_alpha_sweep_refuses_negative_alpha(tmp_path, capsys):
    # V_A = 2 alpha^2 is positive for alpha = -1 too; the sweep must refuse it
    # as every other path does, before any CSV is written
    out = tmp_path / "alpha.csv"
    rc = main(["keyrate", "--sweep", "alpha", "--start", "-1", "--stop", "1",
               "--steps", "2", "--d", "8", "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err == "error: --sweep alpha: alpha must be positive, got -1.0\n"


@pytest.mark.parametrize("argv, message", [
    (["--sweep", "va", "--start", "0", "--stop", "2", "--d", "8"],
     "modulation variance v_a must be finite and positive, got 0.0"),
    (["--sweep", "distance_km", "--start", "-5", "--stop", "10", "--d", "8"],
     "distance must be nonnegative"),
    (["--sweep", "xi", "--start", "0", "--stop", "0.01", "--d", "1", "--detection", "heterodyne"],
     "d=1 does not pair with heterodyne detection; homodyne serves d=1, heterodyne d in "
     "{2, 4, 8}, either serves d=inf"),
], ids=["va_zero", "negative_distance", "d1_heterodyne"])
def test_refused_keyrate_writes_nothing(tmp_path, capsys, argv, message):
    # every report is computed before --out is opened or stdout is written
    out = tmp_path / "refused.csv"
    for extra in (["--out", str(out)], []):
        assert main(["keyrate", *argv, "--steps", "2", *extra]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_keyrate_log_scale(tmp_path):
    out = tmp_path / "log.csv"
    rc = main(["keyrate", "--sweep", "va", "--start", "0.01", "--stop", "100",
               "--steps", "5", "--scale", "log", "--d", "8", "--out", str(out)])
    assert rc == 0
    header, rows, _ = _read_csv(out)
    values = [float(dict(zip(header, row))["value"]) for row in rows]
    assert np.allclose(values, [0.01, 0.1, 1.0, 10.0, 100.0], rtol=1e-12)


@pytest.mark.parametrize("argv, message", [
    (["keyrate", "--sweep", "va", "--start", "0", "--stop", "1", "--steps", "3",
      "--scale", "log"], "log scale needs positive --start/--stop"),
    (["keyrate", "--sweep", "va", "--start", "0.1", "--stop", "-1", "--steps", "3",
      "--scale", "log"], "log scale needs positive --start/--stop"),
    (["keyrate", "--sweep", "va", "--start", "0.1", "--stop", "1", "--steps", "3",
      "--d", "1,x"], "bad block dimension 'x'"),
    (["keyrate", "--sweep", "va", "--start", "0.1", "--stop", "1", "--steps", "3",
      "--d", ""], "bad block dimension ''"),
    (["reconcile-bench", "--d", "8,inf"], "d=inf is not supported by this command"),
    (["keyrate", "--sweep", "xi", "--start", "0", "--stop", "0.01", "--steps", "3",
      "--transmittance", "0.5", "--distance-km", "10"],
     "give either --transmittance or --distance-km, not both"),
    (["reconcile-bench", "--frames", "0"], "--frames must be at least 1"),
    # a non-finite bound is refused before np.linspace or np.geomspace would
    # warn and hand the sweep a nan the user never gave
    (["keyrate", "--sweep", "alpha", "--start", "2", "--stop", "inf", "--steps", "2",
      "--d", "8"], "--stop must be finite, got inf"),
    (["keyrate", "--sweep", "alpha", "--start", "nan", "--stop", "1", "--steps", "2",
      "--d", "8"], "--start must be finite, got nan"),
    (["keyrate", "--sweep", "va", "--start", "inf", "--stop", "inf", "--steps", "2",
      "--scale", "log"], "--start must be finite, got inf"),
])
def test_usage_errors_name_the_flag(tmp_path, capsys, argv, message):
    out = tmp_path / "out.csv"
    with warnings.catch_warnings(), pytest.raises(SystemExit) as exc_info:
        warnings.simplefilter("error")
        main([*argv, "--out", str(out)])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == [f"cvqkd {argv[0]}: error: {message}"]
    assert not out.exists()


def test_simulate_n_symbols_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "session.cfg"
    _write_config(cfg)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--n-symbols", "4000",
                 "--out", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert "n_symbols 4000" in manifest
    assert "key_bits=" in capsys.readouterr().out


def test_simulate_refuses_symmetrization_k_above_coordinates(tmp_path, capsys, monkeypatch):
    # 1000 heterodyne symbols give 2000 coordinates; the bound is checked at load
    monkeypatch.setattr(protocol, "run_session", None)
    cfg = tmp_path / "session.cfg"
    _write_config(cfg, n_symbols=1000, symmetrization_k=5000)
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {cfg}: symmetrization_k")
    assert "2000" in err
    # an override that shrinks the coordinate count below k is refused the same way
    _write_config(cfg, n_symbols=1000, symmetrization_k=2000)
    assert main(["simulate", "--config", str(cfg), "--n-symbols", "800"]) == 2
    assert "symmetrization_k must lie in [1, 1600]" in capsys.readouterr().err


def test_decoy_opt_max_radii_prunes_support(tmp_path, capsys):
    out = tmp_path / "design.txt"
    rc = main(["decoy-opt", "--d", "8", "--alpha", "1", "--p", "0.5", "--max-radii", "2",
               "--out", str(out)])
    assert rc == 0
    assert "n_radii=" in capsys.readouterr().out
    design = DecoyDesign.load(out)
    assert 1 <= len(design.radii) <= 2
    # the unpruned fit of the same target keeps more radii than the cap
    assert len(decoy.optimize_decoy(8, 1.0, 0.5).radii) > 2
    g = decoy.g_dist(8, 1.0, design.n_max)
    labeled = decoy.mixture_photon_dist(
        np.append(design.radii, 2.0),  # the key sphere, radius alpha sqrt(d/2)
        np.append((1.0 - design.p) * np.asarray(design.weights), design.p),
        n_max=design.n_max,
    )
    assert decoy.trace_distance(g, labeled) <= design.epsilon


def test_simulate_config_non_utf8_names_line(tmp_path, capsys):
    path = tmp_path / "session.cfg"
    path.write_bytes(b"d 8\nalpha 1.0\xff\nn_symbols 1000\n")
    assert main(["simulate", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}:2: 'utf-8' codec can't decode byte 0xff in position 9: "
        "invalid start byte\n"
    )
