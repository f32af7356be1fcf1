"""Command-line front end, exercised in process through cli.run, and as a
child process through cli.main and python -m tricomi."""
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import tricomi
from tricomi import identities as ident
from tricomi.cli import run
from tricomi.field import VANISH_AC_SIGMA, manufactured, parse_field
from tricomi.geometry import omega1, omega2, omega3, omega4
from tricomi.params import OperatorParams
from tricomi.quad import QuadConfig, check_two_level


@pytest.fixture(autouse=True)
def _isolate_cwd(tmp_path, monkeypatch):
    # default report paths land in the working directory
    monkeypatch.chdir(tmp_path)


def lines_of(capsys):
    return capsys.readouterr().out.splitlines()


def test_exponent_integer_example(capsys):
    assert run(["exponent", "--m1", "1", "--m2", "0"]) == 0
    assert lines_of(capsys) == ["critical_exponent 10",
                                "supercritical_threshold 9"]


def test_exponent_fractional(capsys):
    assert run(["exponent", "--m1", "3", "--m2", "2"]) == 0
    out = lines_of(capsys)
    assert out[0] == "critical_exponent 18/11"
    assert out[1] == "supercritical_threshold 7/11"


def test_exponent_degenerate_pair_is_config_error(capsys):
    rc = run(["exponent", "--m1", "0", "--m2", "0"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_verify_zero_field_example(tmp_path, capsys):
    # no domain flags: the canonical fixture is implied
    rep = tmp_path / "r.json"
    assert run(["verify", "pohozaev", "--field", "0",
                "--report", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    assert doc["pass"] is True
    (only,) = doc["reports"]
    assert only["identity"] == "pohozaev"
    assert only["lhs"] == only["rhs"] == only["defect"] == 0.0
    assert "pass" in lines_of(capsys)[0]


def test_verify_manufactured_default_field(tmp_path):
    rep = tmp_path / "r.json"
    assert run(["verify", "step3", "--variant", "omega4", "--m1", "1",
                "--m2", "0", "--y0", "-0.5", "--report", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    (only,) = doc["reports"]
    assert only["rel_err"] <= 1e-6
    assert only["seconds"] == 0.0   # timing off: reports stay byte-stable


def test_verify_reports_are_byte_identical(tmp_path):
    args = ["verify", "step3", "--variant", "omega4", "--m1", "1",
            "--m2", "0", "--y0", "-0.5"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(args + ["--report", str(a)]) == 0
    assert run(args + ["--report", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_timing_flag_records_seconds(tmp_path):
    rep = tmp_path / "r.json"
    assert run(["verify", "step3", "--variant", "omega4", "--m1", "1",
                "--m2", "0", "--y0", "-0.5", "--timing",
                "--report", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    assert any(r["seconds"] > 0.0 for r in doc["reports"])


def test_verify_failed_check_exits_one(tmp_path):
    # coarse loose quadrature converges (by its own loose test) to wrong
    # numbers: the check must report failure, not a config error
    rep = tmp_path / "r.json"
    rc = run(["verify", "step1", "--variant", "omega3", "--m1", "1",
              "--m2", "4", "--y0", "-0.5", "--gauss-order", "2",
              "--panels", "2", "--abs-tol", "10", "--rel-tol", "10",
              "--report", str(rep)])
    assert rc == 1
    doc = json.loads(rep.read_text())
    assert doc["pass"] is False
    assert doc["reports"][0]["pass"] is False


def test_verify_sigma_sign_no_claim_variant(tmp_path):
    rep = tmp_path / "r.json"
    assert run(["verify", "sigma-sign", "--variant", "omega3", "--m1", "1",
                "--m2", "4", "--y0", "-0.5", "--report", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    (only,) = doc["reports"]
    assert only["lhs"] < 0.0
    assert "no sign claim" in only["note"]
    assert only["pass"] is True


def test_verify_wrong_axis_anchor_is_config_error(capsys):
    assert run(["verify", "step1", "--variant", "omega1", "--m1", "1",
                "--m2", "4", "--y0", "-0.5"]) == 2
    assert "--x0" in capsys.readouterr().err


@pytest.mark.parametrize("argv, fault", [
    (["verify", "step1", "--panels", "2", "--rel-tol", "inf"], "tolerances"),
    (["verify", "step1", "--panels", "2", "--abs-tol", "inf"], "tolerances"),
    (["verify", "step2", "--nonlinearity", "power", "--alpha", "inf"], "alpha"),
    (["verify", "step2", "--nonlinearity", "power", "--alpha", "nan"], "alpha"),
    (["verify", "step1", "--x0", "nan"], "anchor"),
    (["suite", "--m1", "1", "--m2", "4", "--x0", "nan"], "anchor"),
    (["suite", "--m1", "1", "--m2", "4", "--x0", "inf"], "anchor"),
    (["scaling", "--m1", "1", "--m2", "4", "--p", "inf"], "pexp"),
    (["scaling", "--m1", "1", "--m2", "4", "--p", "nan"], "pexp"),
    (["scaling", "--m1", "1", "--m2", "4", "--lam", "inf"], "lam"),
    (["scaling", "--m1", "1", "--m2", "4", "--lam", "nan"], "lam"),
    # a separate -inf would be read as an option
    (["hardy", "--m1", "1", "--m2", "4", "--y-c=-inf"], "y_c"),
], ids=["rel-tol-inf", "abs-tol-inf", "alpha-inf", "alpha-nan", "verify-x0-nan",
        "suite-x0-nan", "suite-x0-inf", "scaling-p-inf", "scaling-p-nan",
        "scaling-lam-inf", "scaling-lam-nan", "hardy-y-c-inf"])
def test_non_finite_inputs_are_config_errors(capsys, monkeypatch, tmp_path,
                                             argv, fault):
    # each would pass vacuously or be misdiagnosed; one error line names it
    monkeypatch.chdir(tmp_path)   # a failed scaling run writes its report
    assert run(argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {fault} must be finite"), line
    if fault != "tolerances":   # the one message that quotes both values
        assert line.endswith(f"got {argv[-1].split('=')[-1]}"), line


@pytest.mark.parametrize("argv, message", [
    (["scaling", "--m1", "1", "--m2", "4", "--p", "1e6"],
     "error: box integral is not finite: inf vs inf"),
    (["hardy", "--m1", "1", "--m2", "4", "--y-c=-1e308"],
     "error: y_c = -1e+308 is out of range"),
    (["hardy", "--m1", "1", "--m2", "4", "--y-c=-1e-300"],
     "error: y_c = -1e-300 is out of range"),
    (["hardy", "--m1", "1", "--m2", "4", "--y-c=-1e-320"],
     "error: y_c = -1e-320 is out of range"),
    (["verify", "step1", "--panels", "1"],
     "error: panels_per_axis must be an integer >= 2"),
], ids=["scaling-p-overflows", "hardy-y-c-huge", "hardy-y-c-tiny",
        "hardy-y-c-subnormal", "panels-1"])
def test_out_of_range_inputs_give_one_error_line(capsys, argv, message):
    # one error line, no numpy warning before it and no NaN record after it
    rep = "r.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv + ["--report", rep]) == 2
    assert caught == []
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(message), line
    if os.path.exists(rep):
        def refuse(name):
            raise AssertionError(f"{name} in a report file")
        assert json.loads(Path(rep).read_text(), parse_constant=refuse)["reports"] == []


@pytest.mark.parametrize("argv, config, line", [
    (["exponent"], None, "error: missing required option(s): --m1, --m2"),
    (["flow", "--m1", "1", "--m2", "4"], None,
     "error: missing required option(s): --x, --y"),
    (["suite", "--m1", "1", "--m2", "4", "--x0", "0"], None,
     "error: anchor magnitude must be nonzero"),
    (["exponent"], [1], "error: config file must hold a JSON object"),
], ids=["exponent-no-pair", "flow-no-point", "suite-zero-anchor", "config-list"])
def test_refused_commands_give_one_error_line(capsys, argv, config, line):
    if config is not None:
        Path("cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", "cfg.json"]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert err.splitlines() == [line] and out == ""


def test_failed_divergence_selftest_is_one_error_line(tmp_path, capsys,
                                                      monkeypatch, request):
    # the self-test result is kept per (domain, cfg): clear it on both sides
    ident._ensure_oriented.cache_clear()
    request.addfinalizer(ident._ensure_oriented.cache_clear)
    monkeypatch.setattr(ident, "divergence_selftest",
                        lambda dom, cfg: ident.Residual(1.0, 1.1))
    rep = tmp_path / "r.json"
    assert run(["verify", "step1", "--report", str(rep)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(
        "error: divergence self-test rel error 3.226e-02 exceeds 1.0e-08")
    assert json.loads(rep.read_text())["error"].startswith(
        "NonConvergence: divergence self-test")


def test_hardy_grid_supremum_off_M_L_writes_no_record(tmp_path, capsys, monkeypatch):
    grid = ident._mucken_product_grid
    monkeypatch.setattr(ident, "_mucken_product_grid",
                        lambda *args: 1.001 * grid(*args))
    rep = tmp_path / "r.json"
    assert run(["hardy", "--m1", "1", "--m2", "4", "--report", str(rep)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert "does not reach M_L = 2/3" in line
    assert json.loads(rep.read_text())["reports"] == []


def test_verify_parity_violation_names_rule(capsys):
    rc = run(["verify", "step1", "--variant", "omega1", "--m1", "2",
              "--m2", "4", "--x0", "-0.5"])
    assert rc == 2
    assert "odd" in capsys.readouterr().err


def test_verify_bad_field_expression(capsys):
    assert run(["verify", "step1", "--field", "(frob x y)"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("text", [
    "(* 0.0 (* 1e300 (* 1e300 x)))",            # 0 * inf inside the jet
    "(/ 1.0 (* (+ (* 1e300 1e300) x) 2.0))",     # 1 / inf is 0
    "(+ (* 1e300 1e300) x)"])                    # inf passes the vanishing gate
def test_verify_non_finite_field_is_an_error(text, tmp_path, capsys):
    # numpy's overflow and invalid warnings are errors under pytest, so a
    # command that let one out would not get as far as its error line
    rep = tmp_path / "r.json"
    rc = run(["verify", "step1", "--variant", "omega1", "--m1", "1",
              "--m2", "4", "--x0", "-0.5", "--field", text,
              "--report", str(rep)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: non-finite field: ")
    assert json.loads(rep.read_text())["error"].startswith("DomainError: non-finite field")


def test_a_non_finite_field_prints_one_error_line_and_no_warnings(tmp_path):
    # outside pytest's warning filters numpy would print its overflow and
    # invalid-value warnings ahead of the error line
    env = dict(os.environ, PYTHONPATH=str(Path(tricomi.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "tricomi", "verify", "step1", "--variant", "omega1",
         "--m1", "1", "--m2", "4", "--x0", "-0.5",
         "--field", "(* 0.0 (* 1e300 (* 1e300 x)))"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 2
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: non-finite field:")


def test_verify_error_report_still_written(tmp_path):
    rep = tmp_path / "r.json"
    rc = run(["verify", "step1", "--field", "x", "--report", str(rep)])
    assert rc == 2   # x does not vanish on AC: precondition, not a failure
    doc = json.loads(rep.read_text())
    assert doc["reports"] == []
    assert "PreconditionViolated" in doc["error"]
    assert doc["pass"] is False


def test_config_file_merge_and_flag_priority(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m1": 1, "m2": 0}))
    assert run(["exponent", "--config", str(cfg)]) == 0
    assert lines_of(capsys)[0] == "critical_exponent 10"
    # a flag beats the same key in the config file
    assert run(["exponent", "--config", str(cfg), "--m1", "3"]) == 0
    assert lines_of(capsys)[0] == "critical_exponent 14/3"


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert run(["exponent", "--config", str(cfg), "--m1", "1",
                "--m2", "0"]) == 2
    assert "bogus" in capsys.readouterr().err


def test_quadrature_has_no_grading_switch(tmp_path, capsys):
    # the boundary charts are always graded: neither a flag nor a key
    with pytest.raises(SystemExit) as ei:
        run(["verify", "step1", "--no-grading"])
    assert ei.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_grading": False}))
    assert run(["verify", "step1", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.endswith("error: unknown config keys: no_grading\n")


def test_config_defaults_do_not_outlive_their_run(tmp_path):
    # the parser is built once per process, so a config file's values must
    # be undone after its parse: the next plain run sees the flag defaults
    cfg, rep = tmp_path / "cfg.json", tmp_path / "r.json"
    cfg.write_text(json.dumps({"sweeps": 3, "m1": 1, "m2": 4}))
    assert run(["hardy", "--config", str(cfg), "--report", str(rep)]) == 0
    assert {r["sides"].get("sweeps") for r in written(rep)} == {None, 3}
    assert run(["hardy", "--m1", "1", "--m2", "4", "--report", str(rep)]) == 0
    assert {r["sides"].get("sweeps") for r in written(rep)} == {None, 100}
    assert run(["hardy", "--report", str(rep)]) == 2   # m1, m2 unset again


def test_the_parser_is_built_once():
    from tricomi import cli
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("flags, fields", [
    (["--m1", "3", "--m2", "12", "--gauss-order", "8", "--panels", "4",
      "--rel-tol", "1e-13", "--abs-tol", "1e-300"],
     {"fine": 0.08148294122634003, "coarse": 0.08148293960475966, "panels": [4, 2]}),
    (["--m1", "3", "--m2", "12", "--gauss-order", "2", "--panels", "2"],
     {"fine": 0.03369151445471917, "coarse": 0.0003789315780409391, "panels": [2, 1]}),
], ids=["tight-tolerance", "two-point-gauss"])
def test_a_hardy_sweep_that_does_not_settle_names_its_first_integral(
        tmp_path, capsys, flags, fields):
    # the energy sweep fails on the first integral a loop over its phi would
    # check; the two records before it are kept
    rep = tmp_path / "r.json"
    assert run(["hardy"] + flags + ["--report", str(rep)]) == 2
    doc = json.loads(rep.read_text())
    assert [r["identity"] for r in doc["reports"]] == ["hardy-constants", "hardy-chain"]
    assert doc["error_fields"] == {"what": "interval integral", **fields}
    assert capsys.readouterr().err.startswith("error: interval integral did not settle")


def test_config_null_means_unset(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m1": None}))
    assert run(["domain", "--config", str(cfg)]) == 0
    assert "params m1 1 m2 4 anchor -0.5" in lines_of(capsys)


def test_config_lam_list_is_replaced_by_flags(tmp_path):
    cfg, rep = tmp_path / "cfg.json", tmp_path / "r.json"
    cfg.write_text(json.dumps({"lam": [0.5]}))
    assert run(["scaling", "--m1", "1", "--m2", "0", "--config", str(cfg),
                "--lam", "2", "--report", str(rep)]) == 0
    assert {r["sides"]["lam"] for r in written(rep)} == {2.0}


@pytest.mark.parametrize("flags, panels", [([], 16), (["--panels", "8"], 8)],
                         ids=["config", "flag-wins"])
def test_config_quad_value_reaches_the_report(tmp_path, flags, panels):
    cfg, rep = tmp_path / "cfg.json", tmp_path / "r.json"
    cfg.write_text(json.dumps({"panels": 16}))
    assert run(["verify", "step3", "--variant", "omega4", "--m2", "0",
                "--y0", "-0.5", "--config", str(cfg), "--report", str(rep)]
               + flags) == 0
    (only,) = written(rep)
    assert only["quad"]["panels_per_axis"] == panels


@pytest.mark.parametrize("argv, config", [
    (["verify", "step2"], {"nonlinearity": "cubc"}),
    (["verify", "step1"], {"timing": "false"}),
    (["verify", "step1"], {"timing": "yes"}),
    (["verify", "step1"], {"panels": True}),
    (["verify", "step1"], {"x0": [1]}),
    (["scaling", "--m1", "1", "--m2", "4"], {"lam": 0.5}),
    (["scaling", "--m1", "1", "--m2", "4"], {"lam": ["0.5"]}),
], ids=["choice", "switch-string", "switch-word", "int-bool", "float-list",
        "lam-scalar", "lam-strings"])
def test_config_values_are_checked_like_flags(tmp_path, capsys, argv, config):
    cfg, rep = tmp_path / "cfg.json", tmp_path / "r.json"
    cfg.write_text(json.dumps(config))
    assert run(argv + ["--config", str(cfg), "--report", str(rep)]) == 2
    out, err = capsys.readouterr()
    (key,) = config
    assert err.startswith(f"error: config key {key!r} must be ") and out == ""
    assert not rep.exists()    # refused before any computation


def test_config_empty_lam_list_is_refused(tmp_path, capsys):
    # an empty list would run no check and report a pass
    cfg, rep = tmp_path / "cfg.json", tmp_path / "r.json"
    cfg.write_text(json.dumps({"lam": []}))
    assert run(["scaling", "--m1", "1", "--m2", "4", "--config", str(cfg),
                "--report", str(rep)]) == 2
    assert capsys.readouterr().err == "error: --lam needs at least one value\n"
    assert not rep.exists()


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_exits_141_quietly(unbuffered):
    # what `tricomi flow ... | head -n 1` does to the console script, with
    # stdout buffered and with it unbuffered (python -u), where the text
    # layer would drop the rest of a partial write to the closed pipe
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = unbuffered
    env["PYTHONPATH"] = str(Path(tricomi.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from tricomi.cli import main; sys.exit(main())",
         "flow", "--m1", "1", "--m2", "4", "--x", "0.5", "--y", "0.5",
         "--steps", "200000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env)
    assert proc.stdout.readline() == b"t,x,y\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141 and err == b""


def test_python_dash_m_tricomi_runs_the_command_line_with_a_clean_stderr():
    # python -m tricomi.cli would import cli twice (the package imports it)
    # and runpy warns about that on stderr; the package's __main__ does not
    env = dict(os.environ, PYTHONPATH=str(Path(tricomi.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "tricomi", "exponent", "--m1", "1", "--m2", "0"],
        capture_output=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert b"critical_exponent 10" in proc.stdout.splitlines()


def test_hardy_takes_no_p_or_q(capsys):
    # HardyParams(p, q) with p, q != 2 has no inequality check to report
    with pytest.raises(SystemExit) as ei:
        run(["hardy", "--m1", "1", "--m2", "4", "--p", "3"])
    assert ei.value.code == 2


@pytest.mark.parametrize("command", ["exponent", "domain", "flow", "verify",
                                     "scaling", "hardy", "suite"])
def test_help_lists_defaults(capsys, command):
    with pytest.raises(SystemExit) as ei:
        run([command, "--help"])
    assert ei.value.code == 0
    assert "(default: " in capsys.readouterr().out


def test_domain_outputs(tmp_path, capsys):
    csv = tmp_path / "b.csv"
    svg = tmp_path / "b.svg"
    rc = run(["domain", "--variant", "omega1", "--m1", "1", "--m2", "4",
              "--x0", "-0.5", "--csv", str(csv), "--svg", str(svg),
              "--samples", "16"])
    assert rc == 0
    out = "\n".join(lines_of(capsys))
    assert "variant omega1" in out and "starlike true" in out
    assert "apex -0.7937005259840998 -0.3968502629920499" in out
    rows = csv.read_text().splitlines()
    assert rows[0] == "piece,s,x,y"
    assert {r.split(",")[0] for r in rows[1:]} == {"AC", "BC", "sigma"}
    text = svg.read_text()
    assert text.count("<path") == 3


def test_flow_stdout_table(capsys):
    rc = run(["flow", "--m1", "1", "--m2", "4", "--x", "1.0", "--y", "-1.0",
              "--t-max", "1.0", "--steps", "4"])
    assert rc == 0
    rows = lines_of(capsys)
    assert rows[0] == "t,x,y"
    assert len(rows) == 6
    t, x, y = (float(v) for v in rows[-1].split(","))
    assert (t, x, y) == (1.0,
                         pytest.approx(math.exp(-3.0), rel=1e-15),
                         pytest.approx(-math.exp(-6.0), rel=1e-15))


def test_flow_csv_file(tmp_path, capsys):
    out = tmp_path / "f.csv"
    rc = run(["flow", "--m1", "1", "--m2", "0", "--x", "0.5", "--y", "0.25",
              "--csv", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "t,x,y" and len(rows) == 102


def test_hardy_constants_and_table(tmp_path, capsys):
    table = tmp_path / "gl.csv"
    rep = tmp_path / "r.json"
    rc = run(["hardy", "--m1", "1", "--m2", "4", "--table", str(table),
              "--sweeps", "25", "--report", str(rep)])
    assert rc == 0
    out = lines_of(capsys)
    assert "M_L 2/3" in out and "r 2" in out
    assert "C_L_low 2/3" in out and "C_L_high 4/3" in out
    rows = table.read_text().splitlines()
    assert rows[0] == "x,GL"
    assert rows[1] == "-0.995,0.057698901098008022"
    doc = json.loads(rep.read_text())
    names = {r["identity"] for r in doc["reports"]}
    assert names == {"hardy-constants", "hardy-chain", "hardy-energy-sweep",
                     "hardy-inequality-sweep"}
    assert doc["pass"] is True


@pytest.mark.parametrize("argv", [
    ["hardy", "--m1", "1", "--m2", "4", "--sweeps", "0"],
    ["hardy", "--m1", "1", "--m2", "4", "--table", "gl.csv", "--table-points", "0"],
    ["domain", "--csv", "b.csv", "--svg", "b.svg", "--samples", "0"],
], ids=["sweeps", "table-points", "samples"])
def test_counts_below_one_are_config_errors(tmp_path, capsys, argv):
    # a sweep over no functions or a table of no rows would test nothing
    flag = next(a for a in argv if a in ("--sweeps", "--table-points", "--samples"))
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {flag} must be at least 1\n" and out == ""
    assert list(tmp_path.iterdir()) == []


def test_hardy_seed_changes_sweep_but_not_verdict(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["hardy", "--m1", "1", "--m2", "4", "--sweeps", "10",
                "--report", str(a)]) == 0
    assert run(["hardy", "--m1", "1", "--m2", "4", "--sweeps", "10",
                "--seed", "7", "--report", str(b)]) == 0
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    assert da["pass"] and db["pass"]
    ea = [r for r in da["reports"] if r["identity"] == "hardy-energy-sweep"]
    eb = [r for r in db["reports"] if r["identity"] == "hardy-energy-sweep"]
    assert ea[0]["lhs"] != eb[0]["lhs"]


def test_scaling_reports(tmp_path, capsys):
    rep = tmp_path / "r.json"
    rc = run(["scaling", "--m1", "1", "--m2", "0", "--lam", "0.5",
              "--lam", "2", "--report", str(rep)])
    assert rc == 0
    doc = json.loads(rep.read_text())
    assert doc["pass"] is True
    got = {(r["identity"], r["sides"]["lam"]): r for r in doc["reports"]}
    assert got[("scaling-lp", 2.0)]["rhs"] == 2.0 ** 5
    assert got[("scaling-grad", 2.0)]["rhs"] == 2.0 ** 1
    assert got[("scaling-lp", 0.5)]["lhs"] == 0.5 ** 5


@pytest.mark.parametrize("argv", [
    ["hardy", "--m1", "1", "--m2", "4", "--sweeps", "5"],
    ["scaling", "--m1", "1", "--m2", "0"],
], ids=["hardy", "scaling"])
def test_timing_flag_times_every_record(tmp_path, argv):
    rep = tmp_path / "r.json"
    assert run(argv + ["--timing", "--report", str(rep)]) == 0
    records = json.loads(rep.read_text())["reports"]
    assert records and all(r["seconds"] > 0.0 for r in records)


def written(path):
    return json.loads(path.read_text())["reports"]


def as_written(records):
    # a record as a report file holds it with timing off
    return [json.loads(r.with_seconds(0.0).to_json()) for r in records]


def test_python_records_equal_the_command_records(tmp_path):
    rep = tmp_path / "r.json"
    params = OperatorParams(1, 4)
    assert run(["hardy", "--m1", "1", "--m2", "4", "--sweeps", "5",
                "--report", str(rep)]) == 0
    assert written(rep) == as_written(
        ident.hardy_reports(params, ident.HardyParams(), sweeps=5, seed=42))

    field = "(* (- 1 (* x x)) (- 1 (* y y)))"
    assert run(["scaling", "--m1", "1", "--m2", "4", "--field", field,
                "--lam", "0.5", "--lam", "2", "--report", str(rep)]) == 0
    u = parse_field(field)
    assert written(rep) == as_written(
        [r for lam in (0.5, 2.0) for r in ident.scaling_reports(u, lam, 4.0, params)])

    dom = omega2(1, 4, 0.5)
    assert run(["verify", "sigma-sign", "--variant", "omega2", "--x0", "0.5",
                "--report", str(rep)]) == 0
    u = manufactured(dom, vanish_on=VANISH_AC_SIGMA)
    assert written(rep) == as_written([ident.sigma_sign_report(u, dom)])


def test_suite_selftest_and_sign_records_equal_the_python_records(tmp_path):
    rep = tmp_path / "r.json"
    assert run(["suite", "--m1", "1", "--m2", "4", "--report", str(rep)]) == 0
    doms = {d.variant.value: d for d in (omega1(1, 4, -0.5), omega2(1, 4, 0.5),
                                         omega3(1, 4, -0.5), omega4(1, 4, -0.5))}
    records = written(rep)
    selftests = [r for r in records if r["identity"] == "divergence-selftest"]
    assert [r["variant"] for r in selftests] == sorted(doms)
    assert selftests == as_written([ident.selftest_report(d) for d in doms.values()])
    signs = [r for r in records if r["identity"] == "sigma-sign"]
    claimed = [doms[v] for v in ident.SIGN_CLAIM_VARIANTS]
    assert signs == as_written([ident.sigma_sign_report(
        manufactured(d, vanish_on=VANISH_AC_SIGMA), d) for d in claimed])


_APEX_Y_OVERFLOWS = "error: omega1 anchor {}: apex y leaves the float range\n"


@pytest.mark.parametrize("argv, message", [
    (["domain", "--x0=-1e200"], _APEX_Y_OVERFLOWS.format(-1e200)),
    (["verify", "step1", "--x0=-1e120"], _APEX_Y_OVERFLOWS.format(-1e120)),
    (["domain", "--variant", "omega1", "--m1", "9", "--m2", "20", "--x0=-1e28"],
     _APEX_Y_OVERFLOWS.format(-1e28)),
    (["domain", "--variant", "omega3", "--m1", "9", "--m2", "20", "--y0=-1e300"],
     "error: omega3 anchor -1e+300: apex x leaves the float range\n"),
    (["scaling", "--m1", "1", "--m2", "4", "--lam", "1e200"], None),
    (["scaling", "--m1", "1", "--m2", "4", "--lam", "1e-200"], None),
    (["flow", "--m1", "1", "--m2", "4", "--x", "0.5", "--y", "0.5",
      "--t-max=-1e300"], None),
], ids=["domain", "verify", "domain-apex-omega1", "domain-apex-omega3",
        "scaling-large-lam", "scaling-small-lam", "flow"])
def test_overflow_is_a_config_error(capsys, argv, message):
    # exit 1 means a check failed its bound; an input beyond float range
    # is a configuration error.  An apex out of range names its domain and
    # coordinate; other overflows keep Python's own message
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    if message is None:
        assert err.startswith("error: numeric overflow: ")
    else:
        assert err == message


@pytest.mark.parametrize("argv, kept", [
    (["hardy", "--m1", "1", "--m2", "4", "--panels", "2", "--gauss-order", "2",
      "--rel-tol", "1e-14", "--abs-tol", "1e-14"],
     [("hardy-constants", None), ("hardy-chain", None)]),
    (["scaling", "--m1", "1", "--m2", "4", "--lam", "0.5", "--lam", "1e200"],
     [("scaling-lp", 0.5), ("scaling-grad", 0.5)]),
], ids=["hardy-nonconvergence", "scaling-overflow"])
def test_error_report_keeps_finished_records(tmp_path, argv, kept):
    rep = tmp_path / "r.json"
    assert run(argv + ["--report", str(rep)]) == 2
    doc = json.loads(rep.read_text())
    assert doc["pass"] is False and doc["error"]
    assert [(r["identity"], r["sides"].get("lam")) for r in doc["reports"]] == kept


def test_a_domain_too_small_for_the_star_shape_check_is_an_error(capsys):
    # its star-shape form underflows to 0 at every sample, which proves nothing
    assert run(["domain", "--variant", "omega1", "--m1", "1", "--m2", "4",
                "--x0=-1e-300"]) == 2
    out, err = capsys.readouterr()
    assert "starlike" not in out
    assert err == ("error: the star-shape form is 0 at every boundary sample: "
                   "the domain is too small to test\n")


def test_a_domain_whose_star_shape_form_is_nan_is_an_error(capsys):
    # the apex y underflows to -0.0, so every AC sample is NaN and every BC
    # sample 0; dropping the NaN samples read the domain as starlike
    assert run(["domain", "--variant", "omega1", "--m1", "1", "--m2", "4",
                "--x0=-1e-110"]) == 2
    out, err = capsys.readouterr()
    assert "starlike" not in out
    assert err == "error: the star-shape form is not finite on AC\n"


def test_out_of_memory_is_a_config_error(tmp_path, capsys, monkeypatch):
    def step1(*args):
        raise MemoryError("Unable to allocate 7.45 PiB for an array")
    monkeypatch.setattr(ident, "step1_residual", step1)
    rep = tmp_path / "r.json"
    assert run(["verify", "step1", "--report", str(rep)]) == 2
    out, err = capsys.readouterr()
    assert err == "error: out of memory: Unable to allocate 7.45 PiB for an array\n"
    assert out == ""
    doc = json.loads(rep.read_text())
    assert doc["error"].startswith("MemoryError: ") and doc["pass"] is False


def test_nonconvergence_report_keeps_its_fields(tmp_path):
    # 4 panels are too few for the self-test's area integral on this domain
    rep = tmp_path / "r.json"
    assert run(["verify", "step2", "--variant", "omega1", "--m1", "3",
                "--m2", "12", "--x0", "-1", "--panels", "4",
                "--report", str(rep)]) == 2
    doc = json.loads(rep.read_text())
    assert doc["error"].startswith("NonConvergence: area integral ")
    assert doc["error_fields"] == {"what": "area integral",
                                   "fine": 7.4613384355543015,
                                   "coarse": 7.46133948440934, "panels": [4, 2]}


def test_nonfinite_nonconvergence_fields_stay_strict_json(tmp_path, monkeypatch):
    def step1(*args):
        check_two_level(math.nan, -math.inf, QuadConfig(), "area functional")
    monkeypatch.setattr(ident, "step1_residual", step1)
    rep = tmp_path / "r.json"
    assert run(["verify", "step1", "--report", str(rep)]) == 2

    def refuse(name):
        raise AssertionError(f"{name} in a report file")
    doc = json.loads(rep.read_text(), parse_constant=refuse)
    assert doc["error_fields"] == {"what": "area functional", "fine": "nan",
                                   "coarse": "-inf", "panels": [32, 16]}


def test_suite_with_no_admissible_variant_names_each_rule(tmp_path, capsys):
    rep = tmp_path / "r.json"
    assert run(["suite", "--m1", "1", "--m2", "3", "--report", str(rep)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "error: no domain variant admits (m1, m2) = (1, 3); "
        "omega1 needs m1 odd and m2 divisible by 4, omega2 needs m1 odd and "
        "m2 even, omega3 needs m1 odd and m2 even, omega4 needs m1 odd and "
        "m2 even\n")
    assert not rep.exists()


def test_suite_skips_inadmissible_and_passes(tmp_path, capsys):
    # m2 = 2 admits omega2/3/4 but not omega1 (2 is not divisible by 4)
    rep = tmp_path / "r.json"
    rc = run(["suite", "--m1", "1", "--m2", "2", "--x0", "-0.5",
              "--report", str(rep)])
    assert rc == 0
    out = "\n".join(lines_of(capsys))
    assert "skipped omega1" in out
    doc = json.loads(rep.read_text())
    assert doc["pass"] is True
    assert list(doc["skipped_variants"]) == ["omega1"]
    assert "divisible by 4" in doc["skipped_variants"]["omega1"]
    assert doc["critical_exponent"] == "14/5"
    variants = {r["variant"] for r in doc["reports"] if r["variant"]}
    assert variants == {"omega2", "omega3", "omega4"}
    n = len(doc["reports"])
    assert f"suite {n}/{n} checks passed" in out
    keys = [(r["variant"], r["identity"], r["f"], r["field"], r["note"])
            for r in doc["reports"]]
    assert keys == sorted(keys)


def test_suite_reference_fixture_full_run(tmp_path, capsys, monkeypatch):
    # the suite's divergence-selftest records reuse the self-test that
    # gates the identities: one self-test per domain
    ident._ensure_oriented.cache_clear()
    selftests = []
    selftest = ident.divergence_selftest
    monkeypatch.setattr(ident, "divergence_selftest", lambda dom, cfg:
                        selftests.append(dom) or selftest(dom, cfg))
    rep = tmp_path / "r.json"
    rc = run(["suite", "--m1", "1", "--m2", "4", "--x0", "-0.5",
              "--report", str(rep)])
    assert rc == 0
    assert len(selftests) == 4 and len(set(selftests)) == 4
    doc = json.loads(rep.read_text())
    assert doc["pass"] is True
    assert "skipped_variants" not in doc
    assert all(r["rel_err"] <= 1e-6 for r in doc["reports"])
    variants = {r["variant"] for r in doc["reports"] if r["variant"]}
    assert variants == {"omega1", "omega2", "omega3", "omega4"}
    out = lines_of(capsys)
    n = len(doc["reports"])
    assert f"suite {n}/{n} checks passed" in out


def test_suite_rejects_fully_inadmissible_pair(capsys):
    rc = run(["suite", "--m1", "2", "--m2", "2", "--x0", "-0.5"])
    assert rc == 2
    assert "odd" in capsys.readouterr().err


def test_missing_subcommand_is_config_error(capsys):
    with pytest.raises(SystemExit) as ei:
        run([])
    assert ei.value.code == 2
