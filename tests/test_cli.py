import csv
import json
import math

import numpy as np
import pytest

from d2dshare.cli import ConfigError, main, parse_config
from d2dshare.model import NetworkParams


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


def test_json_format_output(tmp_path):
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text("format = json\n")
    out = tmp_path / "an.json"
    assert main(["analyze", str(cfgfile), "--output", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 60
    assert all(math.isfinite(r["d2d_ccdf"]) for r in rows)
