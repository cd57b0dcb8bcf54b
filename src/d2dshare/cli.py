"""Command-line front end: config ingestion, subcommands, sweeps, file output.

Subcommands
-----------
power        transmit-power statistics (optionally swept over mu)
analyze      analytical SINR CCDFs and rates for overlay or underlay
simulate     Monte Carlo run with the matching analytical reference curve
validate     like simulate, but exits 4 when any |empirical - analytical|
             exceeds the tolerance
optimize     eta* (overlay), beta* (underlay) or the joint (mu*, eta*)
feasibility  outage-constraint bounds beta_max(mu) for both link classes
sweep        full rate report per grid point of the configured sweep

Configuration files are flat ``key = value`` text; omitted keys fall back to
the built-in defaults, unknown keys are rejected with the offending line
number.  Every run writes a CSV (or JSON) table plus a JSON manifest carrying
the exact parameters, seed and a content hash, so outputs are byte-identical
for identical inputs.  Exit codes: 0 success, 2 configuration error,
3 numerical error, 4 validation failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import montecarlo, overlay, underlay
from .model import NetworkParams, ParameterError
from .montecarlo import SimConfig, SimulationConfigError
from .overlay import DegenerateRateError
from .power import (
    DegenerateModeError,
    actual_power_report,
    avg_power_cellular,
    avg_power_d2d_mode,
    avg_power_potential_d2d,
    optimal_mode_threshold,
)
from .specfun import ConvergenceError, DomainError

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VALIDATION = 4

_SWEEPABLE = ("mu", "eta", "beta", "q", "snr_m_db")

_PARAM_FLOAT_KEYS = (
    "lambda_b", "lambda_ue", "xi", "q", "alpha", "snr_m_db", "mu", "kappa",
    "eta", "beta", "w_c", "w_d", "noise_psd_dbm_hz", "bandwidth_hz",
)


class ConfigError(ValueError):
    """A configuration file or flag could not be parsed or validated."""


@dataclass
class RunConfig:
    """Parsed configuration: model parameters plus run plumbing."""

    params: NetworkParams
    trials: int = 10000
    seed: int = 20231
    hex_rings: int = 4
    threshold_min_db: float = -20.0
    threshold_max_db: float = 40.0
    threshold_points: int = 60
    sweep_variable: Optional[str] = None
    sweep_grid: Optional[np.ndarray] = None
    output_path: Optional[str] = None
    format: str = "csv"

    def thresholds(self) -> np.ndarray:
        if self.threshold_points < 2 or self.threshold_max_db <= self.threshold_min_db:
            raise ConfigError("threshold grid needs points >= 2 and max_db > min_db")
        return np.logspace(
            self.threshold_min_db / 10.0, self.threshold_max_db / 10.0, self.threshold_points
        )


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("on", "true", "1", "yes"):
        return True
    if low in ("off", "false", "0", "no"):
        return False
    raise ValueError(f"expected on/off, got {raw!r}")


def _parse_grid(raw: str) -> np.ndarray:
    """Grid syntax: 'start:stop:step' (inclusive) or a comma-separated list."""
    raw = raw.strip()
    if ":" in raw:
        pieces = raw.split(":")
        if len(pieces) != 3:
            raise ValueError("range grids use start:stop:step")
        start, stop, step = (float(p) for p in pieces)
        if step <= 0 or stop < start:
            raise ValueError("range grids need step > 0 and stop >= start")
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        return start + step * np.arange(n)
    return np.array([float(p) for p in raw.split(",") if p.strip() != ""])


def parse_config(text: str) -> RunConfig:
    """Parse a flat key-value document; unknown keys are rejected.

    An empty document yields the built-in defaults for every field.
    """
    params_kwargs: dict = {}
    run_kwargs: dict = {}
    sweep_variable: Optional[str] = None
    sweep_grid: Optional[np.ndarray] = None

    int_keys = {"trials", "seed", "hex_rings", "threshold_points"}
    run_float_keys = {"threshold_min_db", "threshold_max_db"}

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        try:
            if key in _PARAM_FLOAT_KEYS:
                params_kwargs[key] = float(raw)
            elif key == "b_subchannels":
                params_kwargs[key] = int(raw)
            elif key == "bandwidth_normalization":
                params_kwargs[key] = _parse_bool(raw)
            elif key in int_keys:
                run_kwargs[key] = int(raw)
            elif key in run_float_keys:
                run_kwargs[key] = float(raw)
            elif key == "sweep_variable":
                if raw not in _SWEEPABLE:
                    raise ValueError(f"sweep variable must be one of {_SWEEPABLE}")
                sweep_variable = raw
            elif key == "sweep_grid":
                sweep_grid = _parse_grid(raw)
            elif key == "output_path":
                run_kwargs["output_path"] = raw
            elif key == "format":
                if raw not in ("csv", "json"):
                    raise ValueError("format must be csv or json")
                run_kwargs["format"] = raw
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: invalid value for {key}: {exc}") from exc

    try:
        params = NetworkParams(**params_kwargs)
    except ParameterError as exc:
        raise ConfigError(f"invalid parameters: {exc}") from exc

    if (sweep_variable is None) != (sweep_grid is None):
        raise ConfigError("sweep_variable and sweep_grid must be given together")
    if sweep_variable is not None:
        for v in sweep_grid:
            try:
                params.replace(**{sweep_variable: float(v)})
            except ParameterError as exc:
                raise ConfigError(
                    f"sweep value {v!r} violates an invariant of {sweep_variable}: {exc}"
                ) from exc

    return RunConfig(
        params=params, sweep_variable=sweep_variable, sweep_grid=sweep_grid, **run_kwargs
    )


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _check_finite(rows: list[dict]) -> None:
    for row in rows:
        for key, value in row.items():
            if isinstance(value, (float, np.floating)) and not math.isfinite(value):
                raise ConvergenceError(f"refusing to write non-finite value for {key!r}")


def _format_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_table(rows: list[dict], header: list[str], path: str, fmt: str) -> None:
    _check_finite(rows)
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump(rows, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        keys = [h.split(" [", 1)[0] for h in header]
        for row in rows:
            writer.writerow([_format_cell(row[k]) for k in keys])


def _write_manifest(path: str, payload: dict) -> None:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    payload = dict(payload)
    payload["content_hash"] = hashlib.sha256(canonical.encode()).hexdigest()
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _manifest_payload(command: str, cfg: RunConfig, extra: dict) -> dict:
    payload = {
        "command": command,
        "params": dataclasses.asdict(cfg.params),
        "seed": cfg.seed,
        "trials": cfg.trials,
        "hex_rings": cfg.hex_rings,
        "thresholds_db": [cfg.threshold_min_db, cfg.threshold_max_db, cfg.threshold_points],
        "sweep": (
            {"variable": cfg.sweep_variable, "grid": [float(v) for v in cfg.sweep_grid]}
            if cfg.sweep_variable
            else None
        ),
    }
    payload.update(extra)
    return payload


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_power(cfg: RunConfig, args) -> tuple[list[dict], list[str], dict]:
    mus = (
        cfg.sweep_grid
        if cfg.sweep_variable == "mu" and cfg.sweep_grid is not None
        else np.array([cfg.params.mu])
    )
    rows = []
    for m in mus:
        p = cfg.params.replace(mu=float(m))
        report = actual_power_report(p)
        rows.append({
            "mu": float(m),
            "avg_power_cellular": avg_power_cellular(p),
            "avg_power_potential_d2d": avg_power_potential_d2d(p),
            "avg_power_d2d_mode": avg_power_d2d_mode(p),
            "avg_cellular_dbm": report.avg_cellular_dbm,
            "avg_d2d_dbm": report.avg_d2d_dbm,
            "peak_cellular_dbm": report.peak_cellular_dbm,
            "peak_d2d_dbm": report.peak_d2d_dbm,
        })
    header = [
        "mu [m]",
        "avg_power_cellular [virtual m^alpha]",
        "avg_power_potential_d2d [virtual m^alpha]",
        "avg_power_d2d_mode [virtual m^alpha]",
        "avg_cellular_dbm [dBm]",
        "avg_d2d_dbm [dBm]",
        "peak_cellular_dbm [dBm]",
        "peak_d2d_dbm [dBm]",
    ]
    extra = {"optimal_mode_threshold_m": optimal_mode_threshold(cfg.params)}
    return rows, header, extra


def _ccdf_pair(cfg: RunConfig, mode: str):
    t = cfg.thresholds()
    if mode == "overlay":
        return overlay.d2d_sinr_ccdf(cfg.params, t), overlay.cellular_sinr_ccdf(cfg.params, t)
    return (
        underlay.d2d_sinr_ccdf_underlay(cfg.params, t),
        underlay.cellular_sinr_ccdf_underlay(cfg.params, t),
    )


def _cmd_analyze(cfg: RunConfig, args) -> tuple[list[dict], list[str], dict]:
    d2d_curve, cell_curve = _ccdf_pair(cfg, args.mode)
    rows = [
        {
            "threshold": float(x),
            "threshold_db": 10.0 * math.log10(x),
            "d2d_ccdf": float(pd),
            "cellular_ccdf": float(pc),
        }
        for x, pd, pc in zip(d2d_curve.thresholds, d2d_curve.values, cell_curve.values)
    ]
    header = ["threshold [linear]", "threshold_db [dB]", "d2d_ccdf [prob]", "cellular_ccdf [prob]"]
    rates = (
        overlay.overlay_rates(cfg.params) if args.mode == "overlay"
        else underlay.underlay_rates(cfg.params)
    )
    return rows, header, {"mode": args.mode, "rates": dataclasses.asdict(rates)}


def _analytic_reference(cfg: RunConfig, scenario: str, thresholds: np.ndarray):
    if scenario == "uplink_hex":
        return overlay.cellular_sinr_ccdf(cfg.params, thresholds)
    if scenario == "d2d_overlay":
        return overlay.d2d_sinr_ccdf(cfg.params, thresholds)
    return underlay.d2d_sinr_ccdf_underlay(cfg.params, thresholds)


def _run_simulation(cfg: RunConfig, scenario: str):
    sim = SimConfig(
        trials=cfg.trials,
        seed=cfg.seed,
        scenario=scenario,
        hex_rings=cfg.hex_rings,
        sinr_thresholds=cfg.thresholds(),
    )
    if scenario == "uplink_hex":
        outcome = montecarlo.simulate_uplink_hex(cfg.params, sim)
    else:
        outcome = montecarlo.simulate_d2d(cfg.params, sim)
    reference = _analytic_reference(cfg, scenario, sim.thresholds())
    return outcome, reference


def _sim_rows(outcome, reference) -> tuple[list[dict], list[str]]:
    rows = [
        {
            "threshold": float(x),
            "empirical_ccdf": float(e),
            "analytical_ccdf": float(a),
            "abs_deviation": abs(float(e) - float(a)),
        }
        for x, e, a in zip(
            outcome.empirical_ccdf.thresholds, outcome.empirical_ccdf.values, reference.values
        )
    ]
    header = [
        "threshold [linear]",
        "empirical_ccdf [prob]",
        "analytical_ccdf [prob]",
        "abs_deviation [prob]",
    ]
    return rows, header


def _cmd_simulate(cfg: RunConfig, args) -> tuple[list[dict], list[str], dict]:
    outcome, reference = _run_simulation(cfg, args.mode)
    rows, header = _sim_rows(outcome, reference)
    extra = {
        "mode": args.mode,
        "samples_collected": outcome.samples_collected,
        "sim_metadata": outcome.metadata,
        "max_abs_deviation": max(r["abs_deviation"] for r in rows),
    }
    return rows, header, extra


def _cmd_validate(cfg: RunConfig, args) -> tuple[list[dict], list[str], dict]:
    rows, header, extra = _cmd_simulate(cfg, args)
    extra["tolerance"] = args.tolerance
    extra["validation_passed"] = bool(extra["max_abs_deviation"] <= args.tolerance)
    return rows, header, extra


def _cmd_optimize(cfg: RunConfig, args) -> tuple[list[dict], list[str], dict]:
    rows = []
    if args.mode == "overlay":
        if args.joint:
            grid = (
                cfg.sweep_grid
                if cfg.sweep_variable == "mu" and cfg.sweep_grid is not None
                else np.arange(50.0, 1001.0, 50.0)
            )
            opt = overlay.joint_optimize_mu_eta(cfg.params, grid)
            rows.append({"variable": "mu", "optimum": opt.mu, "utility": opt.utility})
            rows.append({"variable": "eta", "optimum": opt.eta, "utility": opt.utility})
        else:
            # the raw-rate objective eta* maximises (see optimal_partition)
            eta_star = overlay.optimal_partition(cfg.params)
            report = overlay.overlay_rates(
                cfg.params.replace(eta=eta_star, bandwidth_normalization=False)
            )
            rows.append({"variable": "eta", "optimum": eta_star, "utility": report.utility})
    else:
        beta_star = underlay.optimal_access_factor(cfg.params)
        report = underlay.underlay_rates(cfg.params.replace(beta=beta_star))
        rows.append({"variable": "beta", "optimum": beta_star, "utility": report.utility})
    header = ["variable", "optimum [dimensionless or m]", "utility [weighted log rate]"]
    return rows, header, {"mode": args.mode, "joint": bool(args.joint)}


def _cmd_feasibility(cfg: RunConfig, args) -> tuple[list[dict], list[str], dict]:
    grid = (
        cfg.sweep_grid
        if cfg.sweep_variable == "mu" and cfg.sweep_grid is not None
        else np.linspace(50.0, 1000.0, 20)
    )
    theta_d = 10.0 ** (args.theta_d_db / 10.0)
    theta_c = 10.0 ** (args.theta_c_db / 10.0)
    mus, bd, bc, ok = underlay.feasible_beta_curves(
        cfg.params, grid, theta_d, args.eps_d, theta_c, args.eps_c
    )
    rows = [
        {
            "mu": float(m),
            "beta_max_d2d": float(x),
            "beta_max_cellular": float(y),
            "beta_max_joint": float(min(x, y)),
            "cellular_feasible": int(f),
        }
        for m, x, y, f in zip(mus, bd, bc, ok)
    ]
    header = [
        "mu [m]",
        "beta_max_d2d [dimensionless]",
        "beta_max_cellular [dimensionless]",
        "beta_max_joint [dimensionless]",
        "cellular_feasible [0/1]",
    ]
    extra = {
        "theta_d_db": args.theta_d_db,
        "eps_d": args.eps_d,
        "theta_c_db": args.theta_c_db,
        "eps_c": args.eps_c,
    }
    return rows, header, extra


def _cmd_sweep(cfg: RunConfig, args) -> tuple[list[dict], list[str], dict]:
    if cfg.sweep_variable is None or cfg.sweep_grid is None:
        raise ConfigError("sweep requires sweep_variable and sweep_grid in the config")
    rows = []
    for v in cfg.sweep_grid:
        p = cfg.params.replace(**{cfg.sweep_variable: float(v)})
        report = (
            overlay.overlay_rates(p) if args.mode == "overlay" else underlay.underlay_rates(p)
        )
        rows.append({
            "variable": cfg.sweep_variable,
            "value": float(v),
            "r_c": report.r_c,
            "r_d": report.r_d,
            "t_c": report.t_c,
            "t_d": report.t_d,
            "t_d_hat": report.t_d_hat,
            "utility": report.utility,
        })
    header = [
        "variable",
        "value [field units]",
        "r_c [nat/s/Hz]",
        "r_d [nat/s/Hz]",
        "t_c [nat/s/Hz]",
        "t_d [nat/s/Hz]",
        "t_d_hat [nat/s/Hz]",
        "utility [weighted log rate]",
    ]
    return rows, header, {"mode": args.mode}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

_COMMANDS = {
    "power": _cmd_power,
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
    "optimize": _cmd_optimize,
    "feasibility": _cmd_feasibility,
    "sweep": _cmd_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="d2dshare",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("config", nargs="?", default=None, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override RNG seed")
        p.add_argument("--trials", type=int, default=None, help="override trial count")
        p.add_argument("--output", default=None, help="override output path")

    p = sub.add_parser("power", help="transmit-power statistics",
                       description="CSV: mu, virtual power means, dBm report columns.")
    add_common(p)

    p = sub.add_parser("analyze", help="analytical CCDFs and rates",
                       description="CSV: threshold, threshold_db, d2d_ccdf, cellular_ccdf; rates in manifest.")
    add_common(p)
    p.add_argument("--mode", choices=("overlay", "underlay"), default="overlay")

    for name in ("simulate", "validate"):
        p = sub.add_parser(
            name,
            help="Monte Carlo vs analytical CCDF",
            description="CSV: threshold, empirical_ccdf, analytical_ccdf, abs_deviation.",
        )
        add_common(p)
        p.add_argument(
            "--mode",
            choices=("uplink_hex", "d2d_overlay", "d2d_underlay"),
            default="d2d_overlay",
        )
        if name == "validate":
            p.add_argument("--tolerance", type=float, default=0.05,
                           help="max |empirical - analytical| allowed (exit 4 beyond)")

    p = sub.add_parser("optimize", help="optimal spectrum-sharing parameters",
                       description="CSV: variable, optimum, utility.")
    add_common(p)
    p.add_argument("--mode", choices=("overlay", "underlay"), default="overlay")
    p.add_argument("--joint", action="store_true",
                   help="overlay only: jointly optimise mu and eta over the mu sweep grid")

    p = sub.add_parser("feasibility", help="outage-constraint beta_max(mu) curves",
                       description="CSV: mu, beta_max_d2d, beta_max_cellular, beta_max_joint, cellular_feasible.")
    add_common(p)
    p.add_argument("--theta-d-db", type=float, default=0.0, dest="theta_d_db")
    p.add_argument("--eps-d", type=float, default=0.1, dest="eps_d")
    p.add_argument("--theta-c-db", type=float, default=0.0, dest="theta_c_db")
    p.add_argument("--eps-c", type=float, default=0.5, dest="eps_c")

    p = sub.add_parser("sweep", help="rate report per sweep grid point",
                       description="CSV: variable, value, r_c, r_d, t_c, t_d, t_d_hat, utility.")
    add_common(p)
    p.add_argument("--mode", choices=("overlay", "underlay"), default="overlay")

    return parser


def run(args) -> int:
    """Execute a parsed command line; returns the process exit code."""
    if args.config is not None:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from exc
    else:
        text = ""
    cfg = parse_config(text)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.trials is not None:
        cfg.trials = args.trials
    if args.output is not None:
        cfg.output_path = args.output

    rows, header, extra = _COMMANDS[args.command](cfg, args)

    suffix = "json" if cfg.format == "json" else "csv"
    out_path = cfg.output_path or f"{args.command}.{suffix}"
    _write_table(rows, header, out_path, cfg.format)
    manifest = _manifest_payload(args.command, cfg, extra)
    manifest["output"] = out_path
    _write_manifest(out_path + ".manifest.json", manifest)

    if args.command == "validate" and not extra["validation_passed"]:
        print(
            f"validation FAILED: max deviation {extra['max_abs_deviation']:.4f} "
            f"> tolerance {extra['tolerance']:.4f} ({out_path})",
            file=sys.stderr,
        )
        return EXIT_VALIDATION
    print(f"wrote {out_path} and {out_path}.manifest.json")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (ConfigError, ParameterError, SimulationConfigError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, DomainError, DegenerateRateError, DegenerateModeError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
