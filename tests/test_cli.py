"""Command-line front end, exercised in process through cli.run."""
import json
import math

import pytest

from tricomi import identities as ident
from tricomi.cli import run


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


def test_verify_parity_violation_names_rule(capsys):
    rc = run(["verify", "step1", "--variant", "omega1", "--m1", "2",
              "--m2", "4", "--x0", "-0.5"])
    assert rc == 2
    assert "odd" in capsys.readouterr().err


def test_verify_bad_field_expression(capsys):
    assert run(["verify", "step1", "--field", "(frob x y)"]) == 2
    assert capsys.readouterr().err.startswith("error:")


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
