import csv
import dataclasses
import hashlib
import json
import math
import pathlib
import re
import tracemalloc

import numpy as np
import pytest

from d2dshare import cli
from d2dshare.cli import ConfigError, RunConfig, main, parse_config
from d2dshare.model import NetworkParams
from d2dshare.overlay import overlay_rates
from d2dshare.specfun import DomainError


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def test_empty_config_yields_defaults():
    cfg = parse_config("")
    assert cfg.params == NetworkParams()
    assert cfg.trials == 10000
    assert cfg.sweep_variable is None
    assert cfg.format == "csv"


def test_config_overrides_and_comments():
    text = """
    # baseline with a tweaked threshold
    mu = 350          # meters
    snr_m_db = 6
    bandwidth_normalization = off
    trials = 500
    seed = 77
    """
    cfg = parse_config(text)
    assert cfg.params.mu == 350.0
    assert cfg.params.snr_m_db == 6.0
    assert cfg.params.bandwidth_normalization is False
    assert cfg.trials == 500
    assert cfg.seed == 77


def test_config_invariant_violation_names_field():
    with pytest.raises(ConfigError, match="alpha"):
        parse_config("alpha = 1.5")


def test_config_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("mu = 100\n\nnot_a_key = 5\n")


def test_config_bad_value_reports_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("mu = fast")


# one sample line per field: raw text and the value its annotated type parses it to
_FIELD_SAMPLES = {
    "lambda_b": ("2e-6", 2e-6),
    "lambda_ue": ("3e-5", 3e-5),
    "xi": ("4e-5", 4e-5),
    "q": ("0.3", 0.3),
    "alpha": ("4", 4.0),
    "snr_m_db": ("5", 5.0),
    "mu": ("150", 150.0),
    "kappa": ("0.5", 0.5),
    "eta": ("0.25", 0.25),
    "beta": ("0.75", 0.75),
    "b_subchannels": ("3", 3),
    "w_c": ("0.5", 0.5),
    "w_d": ("0.5", 0.5),
    "noise_psd_dbm_hz": ("-170", -170.0),
    "bandwidth_hz": ("2e6", 2e6),
    "bandwidth_normalization": ("off", False),
    "trials": ("123", 123),
    "seed": ("7", 7),
    "hex_rings": ("3", 3),
    "threshold_min_db": ("-10", -10.0),
    "threshold_max_db": ("30", 30.0),
    "threshold_points": ("11", 11),
    "sweep_variable": ("mu", "mu"),
    "sweep_grid": ("100, 200", [100.0, 200.0]),
    "output_path": ("out.json", "out.json"),
    "format": ("json", "json"),
}


def _config_fields() -> set:
    """Every field of NetworkParams and RunConfig except RunConfig.params."""
    names = [f.name for f in dataclasses.fields(NetworkParams) + dataclasses.fields(RunConfig)]
    return set(names) - {"params"}


def test_every_dataclass_field_is_a_config_key_parsed_to_its_type():
    assert set(_FIELD_SAMPLES) == _config_fields()
    cfg = parse_config("\n".join(f"{k} = {raw}" for k, (raw, _) in _FIELD_SAMPLES.items()))
    for key, (_, expected) in _FIELD_SAMPLES.items():
        value = getattr(cfg.params if hasattr(cfg.params, key) else cfg, key)
        if key == "sweep_grid":
            assert value.tolist() == expected
        else:
            assert value == expected and type(value) is type(expected), key


def test_readme_lists_exactly_the_config_keys():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    params_text, _, plumbing_text = readme.partition("Parameter keys")[2].partition("Run plumbing:")
    plumbing_text = plumbing_text.split("\n\n", 1)[0]
    listed_params = re.findall(r"`(\w+)`", params_text)
    listed_plumbing = re.findall(r"`(\w+)`", plumbing_text)
    assert set(listed_params) == {f.name for f in dataclasses.fields(NetworkParams)}
    assert set(listed_plumbing) == {f.name for f in dataclasses.fields(RunConfig)} - {"params"}
    for key in listed_params + listed_plumbing:
        try:
            parse_config(f"{key} = {_FIELD_SAMPLES[key][0]}")
        except ConfigError as exc:  # a lone sweep key or a w_c/w_d sum, never an unknown key
            assert "unknown key" not in str(exc)


def test_config_sweep_range_expansion():
    cfg = parse_config("sweep_variable = mu\nsweep_grid = 50:1000:50\n")
    assert cfg.sweep_variable == "mu"
    assert cfg.sweep_grid.size == 20
    assert cfg.sweep_grid[0] == 50.0
    assert cfg.sweep_grid[-1] == 1000.0


def test_config_sweep_list_and_validation():
    cfg = parse_config("sweep_variable = q\nsweep_grid = 0.1, 0.2, 0.4\n")
    assert list(cfg.sweep_grid) == [0.1, 0.2, 0.4]
    with pytest.raises(ConfigError, match="invariant"):
        parse_config("sweep_variable = eta\nsweep_grid = 0.5, 1.5\n")
    with pytest.raises(ConfigError, match="together"):
        parse_config("sweep_variable = mu\n")
    with pytest.raises(ConfigError, match="sweep"):
        parse_config("sweep_variable = lambda_b\nsweep_grid = 1,2\n")


@pytest.mark.parametrize("variable, grid", [
    ("mu", "0:inf:1"),
    ("eta", "0.1:inf:0.1"),
    ("mu", "0:1e13:1"),
])
def test_unbounded_range_grid_is_a_config_error(tmp_path, capsys, variable, grid):
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text(f"sweep_variable = {variable}\nsweep_grid = {grid}\n")
    out = tmp_path / "s.csv"
    tracemalloc.start()
    try:
        code = main(["sweep", str(cfgfile), "--output", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "configuration error: line 2: invalid value for sweep_grid" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "s.csv.manifest.json").exists()
    assert peak < 2**20  # refused before the grid is built


def test_range_grid_point_limit():
    assert cli._parse_grid("1:1e6:1").size == 10**6
    with pytest.raises(ValueError, match="at most"):
        cli._parse_grid("0:1e6:1")


# ---------------------------------------------------------------------------
# Subcommand behaviour (exit codes, files, determinism)
# ---------------------------------------------------------------------------

def _read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_power_outputs(tmp_path):
    out = tmp_path / "power.csv"
    code = main(["power", "--output", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert rows[0][0] == "mu [m]"
    assert "[dBm]" in rows[0][6]
    assert len(rows) == 2
    manifest = json.loads((tmp_path / "power.csv.manifest.json").read_text())
    assert "content_hash" in manifest
    assert manifest["params"]["alpha"] == 3.5


def test_analyze_overlay_and_underlay(tmp_path):
    for mode in ("overlay", "underlay"):
        out = tmp_path / f"an_{mode}.csv"
        assert main(["analyze", "--mode", mode, "--output", str(out)]) == 0
        rows = _read_csv(out)
        assert len(rows) == 61  # header + 60 thresholds
        values = np.array([[float(c) for c in r] for r in rows[1:]])
        assert np.all(values[:, 2] <= 1.0) and np.all(values[:, 3] <= 1.0)
        manifest = json.loads((out.parent / (out.name + ".manifest.json")).read_text())
        assert manifest["rates"]["t_d_hat"] > 0


def test_validate_passes_and_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "v1.csv", tmp_path / "v2.csv"
    args = ["validate", "--mode", "d2d_overlay", "--trials", "1500", "--seed", "20231",
            "--tolerance", "0.06"]
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_validate_full_run_meets_documented_tolerance(tmp_path):
    # the headline validation recipe: 10^4 trials against the exact D2D form
    out = tmp_path / "vfull.csv"
    code = main([
        "validate", "--mode", "d2d_overlay", "--trials", "10000", "--seed", "20231",
        "--tolerance", "0.02", "--output", str(out),
    ])
    assert code == 0


def test_validate_fails_with_tight_tolerance(tmp_path):
    out = tmp_path / "v.csv"
    code = main([
        "validate", "--mode", "d2d_overlay", "--trials", "300", "--seed", "1",
        "--tolerance", "1e-6", "--output", str(out),
    ])
    assert code == 4
    manifest = json.loads((tmp_path / "v.csv.manifest.json").read_text())
    assert manifest["validation_passed"] is False


def test_optimize_overlay_large_mu_returns_d2d_weight(tmp_path):
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text("mu = 2000\n")
    out = tmp_path / "opt.csv"
    assert main(["optimize", "--mode", "overlay", str(cfgfile), "--output", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[1][0] == "eta"
    assert float(rows[1][1]) == pytest.approx(0.4, abs=1e-4)


def test_optimize_underlay(tmp_path):
    out = tmp_path / "optu.csv"
    assert main(["optimize", "--mode", "underlay", "--output", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[1][0] == "beta"
    assert 0.0 < float(rows[1][1]) <= 1.0


def test_sweep_rate_shapes(tmp_path):
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text("sweep_variable = mu\nsweep_grid = 40:640:40\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--mode", "overlay", str(cfgfile), "--output", str(out)]) == 0
    rows = _read_csv(out)
    t_c = np.array([float(r[4]) for r in rows[1:]])
    t_d = np.array([float(r[5]) for r in rows[1:]])
    assert np.all(np.diff(t_c) >= -1e-12)
    k = int(np.argmax(t_d))
    assert 0 < k < t_d.size - 1  # rises then falls


def test_sweep_requires_grid(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--output", str(out)]) == 2


def test_degenerate_sweep_value_is_numerical_error(tmp_path):
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text("sweep_variable = eta\nsweep_grid = 0.5, 1.0\n")
    assert main(["sweep", str(cfgfile), "--output", str(tmp_path / "s.csv")]) == 3


def test_rate_beyond_the_quadrature_rule_is_numerical_error(tmp_path):
    # alpha = 20 and lambda_ue/xi = 2000: the D2D coefficient is beyond what
    # the rate rule resolves, so the rate is refused instead of misreported
    xi = NetworkParams().lambda_b / 200.0
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text(f"alpha = 20\nq = 0.5\nxi = {xi!r}\nmu = 5e5\n")
    assert main(["analyze", str(cfgfile), "--output", str(tmp_path / "a.csv")]) == 3


def test_feasibility_curves(tmp_path):
    out = tmp_path / "feas.csv"
    assert main([
        "feasibility", "--eps-d", "0.1", "--eps-c", "0.5", "--output", str(out),
    ]) == 0
    rows = _read_csv(out)
    joint = np.array([float(r[3]) for r in rows[1:]])
    assert np.all(np.diff(joint) <= 1e-12)


def test_bad_config_file_exit_code(tmp_path):
    cfgfile = tmp_path / "bad.txt"
    cfgfile.write_text("alpha = 1.2\n")
    assert main(["power", str(cfgfile)]) == 2
    assert main(["power", str(tmp_path / "missing.txt")]) == 2


def test_joint_optimize_names_the_mu_that_breaks_lambda_c(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text("q = 0.95\nsweep_variable = mu\nsweep_grid = 100, 2000\n")
    out = tmp_path / "opt.csv"
    assert main(["optimize", "--joint", str(cfgfile), "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: mu=2000: invariant lambda_c >= lambda_b violated: "
        "lambda_c=6.3662e-07 < lambda_b=1.27324e-06\n"
    )
    assert not out.exists()


def test_json_format_output(tmp_path):
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text("format = json\n")
    out = tmp_path / "an.json"
    assert main(["analyze", str(cfgfile), "--output", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 60
    assert all(math.isfinite(r["d2d_ccdf"]) for r in rows)


def test_non_finite_cell_writes_neither_table_nor_manifest(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "avg_power_cellular", lambda p: math.inf)
    out = tmp_path / "power.csv"
    assert main(["power", "--output", str(out)]) == 3
    assert "non-finite value for 'avg_power_cellular'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_non_finite_cell_is_a_domain_error(tmp_path):
    out = tmp_path / "t.csv"
    with pytest.raises(DomainError, match="non-finite value for 'x'"):
        cli._write_table(["x [m]"], [(math.nan,)], str(out), "csv")
    assert not out.exists()


def test_power_at_large_alpha_is_a_numerical_error(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text("alpha = 120\n")
    assert main(["power", str(cfgfile), "--output", str(tmp_path / "p.csv")]) == 3
    assert capsys.readouterr().err == (
        "numerical error: avg_power_cellular is not a finite float at alpha=120.0\n"
    )
    assert not (tmp_path / "p.csv").exists()


def test_power_output_at_alpha_110_is_pinned(tmp_path, monkeypatch):
    # the finite moments at large alpha are unchanged by their finiteness check
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.txt").write_text("alpha = 110\n")
    assert main(["power", "cfg.txt"]) == 0
    assert (tmp_path / "power.csv").read_bytes() == (
        b"mu [m],avg_power_cellular [virtual m^alpha],avg_power_potential_d2d [virtual m^alpha],"
        b"avg_power_d2d_mode [virtual m^alpha],avg_cellular_dbm [dBm],avg_d2d_dbm [dBm],"
        b"peak_cellular_dbm [dBm],peak_d2d_dbm [dBm]\r\n"
        b"200.0,1.3756642459908861e+295,2.7774182119530296e+294,9.652947846898938e+250,"
        b"2847.385124499559,2405.8465995978327,2864.8670047696205,2427.1329952303795\r\n"
    )
    manifest = json.loads((tmp_path / "power.csv.manifest.json").read_text())
    assert manifest["content_hash"] == (
        "4adab67a5a120bb69f1ff23a0bc9610263ef9a0c8e13ad4d6395229ffc7b6e6f"
    )


_VALIDATE_PINS = {  # mode: (sha256 of the CSV, manifest content_hash)
    "uplink_hex": ("ea93d39c6409b2493de0c2c6ef03d56316602633feed0513d272890fd5fe3f65",
                   "5a3502e06fc20e5bec2f0483125eb924209fbef0ae94c35616828a03e67cb96b"),
    "d2d_overlay": ("b8b1022d8f6d34de5cd69b9ffe97df149fc9d474ca38a7a28375d160181b75e0",
                    "1a2572b5f77cbb6306bdfeb9a90365b16415aeb0be790a4813ccf8955cbbe769"),
    "d2d_underlay": ("cd5a131b45f45bb6cbd19941faddeab0904ed7ae2d1d4d70addc670a83bd2388",
                     "f8d69072ce85a641e89eb6deed9424802dc98c2726b5dc80285ef01df37818ec"),
}


@pytest.mark.parametrize("mode", sorted(_VALIDATE_PINS))
def test_validate_output_is_pinned(tmp_path, monkeypatch, mode):
    monkeypatch.chdir(tmp_path)
    out = f"{mode}.csv"
    assert main(["validate", "--mode", mode, "--trials", "2000", "--seed", "20231",
                 "--output", out]) == 0
    csv_sha256, content_hash = _VALIDATE_PINS[mode]
    assert hashlib.sha256((tmp_path / out).read_bytes()).hexdigest() == csv_sha256
    manifest = json.loads((tmp_path / f"{out}.manifest.json").read_text())
    assert manifest["content_hash"] == content_hash


def test_uplink_hex_empirical_ccdf_is_pinned(tmp_path, monkeypatch):
    # the simulator's column alone, so a change to the analytical reference
    # cannot hide a change to the Monte Carlo bytes behind a re-pinned CSV
    monkeypatch.chdir(tmp_path)
    assert main(["validate", "--mode", "uplink_hex", "--trials", "2000", "--seed", "20231",
                 "--output", "hex.csv"]) == 0
    header, *rows = _read_csv(tmp_path / "hex.csv")
    col = header.index("empirical_ccdf [prob]")
    column = "\n".join(row[col] for row in rows).encode()
    assert hashlib.sha256(column).hexdigest() == (
        "2ef54a53e3bf33d221680b26ccebf38b3211ca01fb556f0bf3d0a5690dbde519"
    )


def test_only_validate_records_a_verdict(tmp_path):
    manifests = {}
    for command in ("simulate", "validate"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--trials", "200", "--output", str(out)]) in (0, 4)
        manifests[command] = json.loads((tmp_path / f"{command}.csv.manifest.json").read_text())
    assert "tolerance" not in manifests["simulate"]
    assert "validation_passed" not in manifests["simulate"]
    assert manifests["validate"]["tolerance"] == 0.05
    assert isinstance(manifests["validate"]["validation_passed"], bool)
    shared = {k: v for k, v in manifests["validate"].items()
              if k not in ("tolerance", "validation_passed", "command", "output", "content_hash")}
    assert shared == {k: v for k, v in manifests["simulate"].items()
                      if k not in ("command", "output", "content_hash")}


def test_sweep_json_matches_csv(tmp_path):
    grid = "sweep_variable = q\nsweep_grid = 0.1, 0.4\n"
    (tmp_path / "csv.txt").write_text(grid)
    (tmp_path / "json.txt").write_text(grid + "format = json\n")
    assert main(["sweep", str(tmp_path / "csv.txt"), "--output", str(tmp_path / "s.csv")]) == 0
    assert main(["sweep", str(tmp_path / "json.txt"), "--output", str(tmp_path / "s.json")]) == 0
    header, *rows = _read_csv(tmp_path / "s.csv")
    keys = [h.split(" [", 1)[0] for h in header]
    records = json.loads((tmp_path / "s.json").read_text())
    assert [sorted(r) for r in records] == [sorted(keys)] * len(rows)
    for row, record in zip(rows, records):
        assert [str(record[k]) if isinstance(record[k], str) else repr(record[k]) for k in keys] == row


# ---------------------------------------------------------------------------
# Paper figure configs (scripts/figures, mapped to commands in the README)
# ---------------------------------------------------------------------------

_ROOT = pathlib.Path(__file__).parents[1]
_FIGURES = sorted((_ROOT / "scripts" / "figures").glob("*.cfg"))


def test_every_figure_config_parses_and_is_in_the_readme():
    assert _FIGURES
    for path in _FIGURES:
        cfg = parse_config(path.read_text())
        assert cfg.sweep_variable is not None, path.name
    listed = set(re.findall(r"scripts/figures/[\w.]+\.cfg", (_ROOT / "README.md").read_text()))
    assert listed == {f"scripts/figures/{path.name}" for path in _FIGURES}


def test_figure_config_runs_as_its_sweep(tmp_path):
    path = _ROOT / "scripts" / "figures" / "overlay_utility_q0.2.cfg"
    out = tmp_path / "fig.csv"
    assert main(["sweep", str(path), "--mode", "overlay", "--output", str(out)]) == 0
    rows = _read_csv(out)[1:]
    etas = np.linspace(0.02, 0.98, 49)
    assert [float(r[1]) for r in rows] == etas.tolist()
    base = NetworkParams(q=0.2, mu=710.0, bandwidth_normalization=False)
    assert float(rows[24][7]) == overlay_rates(base.replace(eta=float(etas[24]))).utility
