"""CLI subcommands, invoked in process through cli(argv)."""

import csv
import json

import pytest
import yaml

from scanstream.cli import cli
from scanstream.metrics import read_metrics
from scanstream.predictor import load_model
from scanstream.residual_opt import min_rate, read_table


@pytest.fixture(scope="module")
def cal_dir(tmp_path_factory):
    """Artifacts from one tiny calibrate invocation, shared by the module."""
    d = tmp_path_factory.mktemp("cli-cal")
    rc = cli([
        "calibrate",
        "--rings", "8", "--azimuth", "64", "--scans", "4", "--seed", "31",
        "--out-table", str(d / "table.csv"),
        "--out-model", str(d / "model.json"),
        "--out-samples", str(d / "samples.csv"),
    ])
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def scenario_path(cal_dir):
    doc = {
        "version": 1,
        "scan_source": {"profile": {"rings": 8, "azimuth_steps": 64}, "seed": 2},
        "link": {"trace": [[0.0, 5.0e6]]},
        "rate_bounds": {"r_min_bps": 2.0e5, "r_max_bps": 5.0e6},
        "model": "model.json",
        "duration": 5.0,
    }
    path = cal_dir / "scn.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def test_calibrate_writes_all_artifacts(cal_dir):
    table = read_table(cal_dir / "table.csv")
    assert len(table.rows) == 170
    assert table.corpus_id.startswith("4x512-")
    # one sample per (config, scan)
    with open(cal_dir / "samples.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 170 * 4
    model = load_model(cal_dir / "model.json")
    assert model.diagnostics["rel_rmse"] < 0.15


def test_calibrate_reports_outputs(cal_dir, capsys, tmp_path):
    rc = cli([
        "calibrate", "--rings", "8", "--azimuth", "64", "--scans", "2",
        "--aggregate", "worst",
        "--out-table", str(tmp_path / "t.csv"),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "170 rows" in out
    assert read_table(tmp_path / "t.csv").aggregate == "worst"


def test_minrate_matches_library(cal_dir, capsys):
    rc = cli(["minrate", "--table", str(cal_dir / "table.csv"), "--epsilon", "0.05"])
    assert rc == 0
    out = capsys.readouterr().out
    bounds = min_rate(read_table(cal_dir / "table.csv"), 0.05, 10e6)
    assert f"r_min_bps: {bounds.r_min_bps!r}" in out
    assert f"floor_q:   {bounds.floor.min_q}" in out


def test_minrate_infeasible_exit_1(cal_dir, capsys):
    rc = cli(["minrate", "--table", str(cal_dir / "table.csv"), "--epsilon", "1e-12"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "smallest achievable" in err


def test_run_writes_metrics_and_summary(scenario_path, tmp_path, capsys):
    rc = cli([
        "run", "--scenario", str(scenario_path),
        "--out", str(tmp_path / "m.csv"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "conservation          ok" in out
    rows = read_metrics(tmp_path / "m.csv")
    assert len(rows) == 51  # 5 s at 10 metric ticks/s, inclusive of t=0


def test_run_seed_override_is_deterministic(scenario_path, tmp_path):
    for name in ("r1.csv", "r2.csv"):
        rc = cli([
            "run", "--scenario", str(scenario_path), "--seed", "3",
            "--out", str(tmp_path / name),
        ])
        assert rc == 0
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()


def test_baseline_fixes_encoder_knobs(scenario_path, tmp_path, capsys):
    rc = cli([
        "baseline", "--scenario", str(scenario_path),
        "--q", "12", "--c", "2", "--pacing-bps", "2e6",
        "--duration", "3", "--out", str(tmp_path / "b.csv"),
    ])
    assert rc == 0
    assert "mode                  baseline" in capsys.readouterr().out
    rows = read_metrics(tmp_path / "b.csv")
    assert all(row.q_used == 12 and row.c_used == 2 for row in rows)


@pytest.mark.parametrize("flags, knobs", [([], (12, 2)), (["--c", "5"], (12, 5))])
def test_baseline_takes_unflagged_knobs_from_the_scenario(cal_dir, tmp_path, flags, knobs):
    doc = yaml.safe_load((cal_dir / "scn.yaml").read_text())
    doc["baseline"] = {"q": 12, "c": 2}
    path = cal_dir / f"scn-baseline-{len(flags)}.yaml"
    path.write_text(yaml.safe_dump(doc))
    rc = cli(["baseline", "--scenario", str(path), *flags,
              "--duration", "2", "--out", str(tmp_path / "b.csv")])
    assert rc == 0
    rows = read_metrics(tmp_path / "b.csv")
    assert all((row.q_used, row.c_used) == knobs for row in rows)


def test_run_rejects_a_wrong_typed_value(scenario_path, capsys):
    doc = yaml.safe_load(scenario_path.read_text())
    doc["control"] = {"mss": "abc"}
    path = scenario_path.with_name("scn-typed.yaml")
    path.write_text(yaml.safe_dump(doc))
    assert cli(["run", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: control.mss: ")


def test_run_rejects_a_negative_seed_before_running(scenario_path, tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert cli(["run", "--scenario", str(scenario_path), "--seed", "-1", "--out", str(out)]) == 1
    # the scan source's own check, before the link's rng_seed check also fires
    assert capsys.readouterr().err.startswith("error: seed must be a nonnegative integer")
    assert not out.exists()


def test_run_refuses_a_model_of_another_scan_rate(scenario_path, tmp_path, capsys):
    doc = yaml.safe_load(scenario_path.read_text())
    doc["scan_hz"] = 20.0
    path = scenario_path.with_name("scn-20hz.yaml")
    path.write_text(yaml.safe_dump(doc))
    out = tmp_path / "m.csv"
    assert cli(["run", "--scenario", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: rate model calibrated at 10.0 Hz cannot drive a scenario at 20.0 Hz")
    assert not out.exists()


@pytest.mark.parametrize("flags, error", [
    (["--duration", "0"], "duration must be positive and finite"),
    (["--model", "missing.json"], "model file does not exist"),
])
def test_run_rejects_an_override_that_breaks_the_scenario_before_running(
    scenario_path, tmp_path, capsys, flags, error
):
    # the overridden scenario is rebuilt, and so checked, before the run starts
    out = tmp_path / "m.csv"
    assert cli(["run", "--scenario", str(scenario_path), "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err.startswith(f"error: {error}")
    assert not out.exists()


def test_missing_required_option_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli(["calibrate"])  # --out-table is required
    assert exc.value.code == 2


def test_unknown_subcommand_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli(["frobnicate"])
    assert exc.value.code == 2


def test_bad_velocity_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli(["calibrate", "--velocity", "fast", "--out-table", "x.csv"])
    assert exc.value.code == 2


def test_missing_table_file_exit_1(tmp_path, capsys):
    rc = cli(["minrate", "--table", str(tmp_path / "nope.csv"), "--epsilon", "0.05"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_missing_scenario_exit_1(tmp_path, capsys):
    rc = cli(["run", "--scenario", str(tmp_path / "nope.yaml")])
    assert rc == 1
    assert "does not exist" in capsys.readouterr().err



@pytest.mark.parametrize("edit", [
    lambda text: text.replace(" scan_hz=", " rate=", 1),
    lambda text: text.replace(" aggregate=", " agg=", 1),
    lambda text: text.replace("mean_ptp,", "mean,", 1),
    lambda text: "".join(text.splitlines(keepends=True)[:2]),  # the two header lines only
    lambda text: text.rstrip("\n").rsplit(",", 1)[0] + "\n",  # the last row is one field short
    lambda text: text.replace("\n8,", "\neight,", 1),
    lambda text: text.replace(" scan_hz=10.0", " scan_hz=fast", 1),
], ids=["no-scan_hz", "no-aggregate", "no-column", "no-rows", "short-row", "text-q",
        "text-scan_hz"])
def test_minrate_rejects_a_malformed_table(cal_dir, tmp_path, capsys, edit):
    path = tmp_path / "table.csv"
    path.write_text(edit((cal_dir / "table.csv").read_text()))
    assert cli(["minrate", "--table", str(path), "--epsilon", "0.05"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize("edit", [
    lambda doc: [doc],
    lambda doc: {k: v for k, v in doc.items() if k != "coef"},
    lambda doc: {**doc, "coef": doc["coef"][:-1]},
    lambda doc: {**doc, "feature_scale": doc["feature_scale"] + [1.0]},
    lambda doc: {**doc, "intercept": None},
    lambda doc: {**doc, "coef": [str(v) + "x" for v in doc["coef"]]},
    lambda doc: {**doc, "feature_center": [[v] for v in doc["feature_center"][:-1]] + [1.0]},
    lambda doc: {**doc, "diagnostics": [1.0]},
], ids=["not-a-mapping", "no-coef", "short-coef", "long-feature_scale", "null-intercept",
        "text-coef", "ragged-feature_center", "list-diagnostics"])
def test_run_rejects_a_malformed_model(cal_dir, scenario_path, tmp_path, capsys, edit):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(edit(json.loads((cal_dir / "model.json").read_text()))))
    rc = cli(["run", "--scenario", str(scenario_path), "--model", str(path), "--duration", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


def test_run_rejects_a_model_that_is_not_json(scenario_path, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text('{"format": ')
    rc = cli(["run", "--scenario", str(scenario_path), "--model", str(path), "--duration", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
