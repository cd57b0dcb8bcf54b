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

Configuration files are flat ``key = value`` text whose keys are the fields
of NetworkParams and RunConfig (all but ``params``), each parsed by its
annotated type; omitted keys fall back to the built-in defaults, unknown keys
are rejected with the offending line number.  Every run writes a CSV (or
JSON) table plus a JSON manifest carrying the exact parameters, seed and a
content hash, so outputs are byte-identical for identical inputs.  Exit
codes: 0 success, 2 configuration error, 3 numerical error, 4 validation
failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import math
import sys
import typing
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
_MAX_GRID_POINTS = 10**6


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
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ValueError("range grids need finite start, stop and step")
        if step <= 0 or stop < start:
            raise ValueError("range grids need step > 0 and stop >= start")
        span = (stop - start) / step + 1e-9
        if not span < _MAX_GRID_POINTS:
            raise ValueError(f"range grids hold at most {_MAX_GRID_POINTS} points")
        n = int(math.floor(span)) + 1
        return start + step * np.arange(n)
    return np.array([float(p) for p in raw.split(",") if p.strip() != ""])


def _one_of(choices: tuple, message: str):
    def parse(raw: str) -> str:
        if raw not in choices:
            raise ValueError(message)
        return raw
    return parse


def _key_parsers(cls: type, special: dict) -> dict:
    """Config key -> parser for each field of ``cls``, chosen by its annotation."""
    by_type = {float: float, int: int, bool: _parse_bool, Optional[str]: str}
    hints = typing.get_type_hints(cls)
    return {
        f.name: special.get(f.name) or by_type[hints[f.name]]
        for f in dataclasses.fields(cls)
        if f.name != "params"
    }


_PARAM_KEYS = _key_parsers(NetworkParams, {})
_RUN_KEYS = _key_parsers(RunConfig, {
    "sweep_variable": _one_of(_SWEEPABLE, f"sweep variable must be one of {_SWEEPABLE}"),
    "sweep_grid": _parse_grid,
    "format": _one_of(("csv", "json"), "format must be csv or json"),
})


def parse_config(text: str) -> RunConfig:
    """Parse a flat key-value document; unknown keys are rejected.

    An empty document yields the built-in defaults for every field.
    """
    params_kwargs: dict = {}
    run_kwargs: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in _PARAM_KEYS:
            kwargs, parse = params_kwargs, _PARAM_KEYS[key]
        elif key in _RUN_KEYS:
            kwargs, parse = run_kwargs, _RUN_KEYS[key]
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            kwargs[key] = parse(raw.strip())
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: invalid value for {key}: {exc}") from exc

    try:
        params = NetworkParams(**params_kwargs)
    except ParameterError as exc:
        raise ConfigError(f"invalid parameters: {exc}") from exc

    cfg = RunConfig(params=params, **run_kwargs)
    if (cfg.sweep_variable is None) != (cfg.sweep_grid is None):
        raise ConfigError("sweep_variable and sweep_grid must be given together")
    if cfg.sweep_variable is not None:
        for v in cfg.sweep_grid:
            try:
                params.replace(**{cfg.sweep_variable: float(v)})
            except ParameterError as exc:
                raise ConfigError(
                    f"sweep value {v!r} violates an invariant of {cfg.sweep_variable}: {exc}"
                ) from exc
    return cfg


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _write_table(header: list[str], rows: list[tuple], path: str, fmt: str) -> None:
    """Write rows (tuples in header order); the header names the JSON keys."""
    keys = [h.split(" [", 1)[0] for h in header]
    for row in rows:
        for key, value in zip(keys, row):
            if isinstance(value, (float, np.floating)) and not math.isfinite(value):
                raise DomainError(f"refusing to write non-finite value for {key!r}")
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, row)) for row in rows], fh, indent=1, sort_keys=True)
            fh.write("\n")
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([
                repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in row
            ])


def _write_manifest(path: str, command: str, cfg: RunConfig, extra: dict) -> None:
    """Write the run's parameters, seed and extras plus a hash of them to ``path``."""
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
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    payload["content_hash"] = hashlib.sha256(canonical.encode()).hexdigest()
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommand implementations: each returns (header, rows, manifest extras)
# ---------------------------------------------------------------------------

def _mu_grid(cfg: RunConfig, default: np.ndarray) -> np.ndarray:
    """The sweep grid when the config sweeps mu, else ``default``."""
    return cfg.sweep_grid if cfg.sweep_variable == "mu" and cfg.sweep_grid is not None else default


def _cmd_power(cfg: RunConfig, args) -> tuple[list[str], list[tuple], dict]:
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
    rows = []
    for m in _mu_grid(cfg, np.array([cfg.params.mu])):
        p = cfg.params.replace(mu=float(m))
        report = actual_power_report(p)
        rows.append((float(m), avg_power_cellular(p), avg_power_potential_d2d(p),
                     avg_power_d2d_mode(p), *dataclasses.astuple(report)))
    return header, rows, {"optimal_mode_threshold_m": optimal_mode_threshold(cfg.params)}


def _cmd_analyze(cfg: RunConfig, args) -> tuple[list[str], list[tuple], dict]:
    t = cfg.thresholds()
    if args.mode == "overlay":
        d2d_curve = overlay.d2d_sinr_ccdf(cfg.params, t)
        cell_curve = overlay.cellular_sinr_ccdf(cfg.params, t)
        rates = overlay.overlay_rates(cfg.params)
    else:
        d2d_curve = underlay.d2d_sinr_ccdf_underlay(cfg.params, t)
        cell_curve = underlay.cellular_sinr_ccdf_underlay(cfg.params, t)
        rates = underlay.underlay_rates(cfg.params)
    header = ["threshold [linear]", "threshold_db [dB]", "d2d_ccdf [prob]", "cellular_ccdf [prob]"]
    rows = [
        (float(x), 10.0 * math.log10(x), float(pd), float(pc))
        for x, pd, pc in zip(d2d_curve.thresholds, d2d_curve.values, cell_curve.values)
    ]
    return header, rows, {"mode": args.mode, "rates": dataclasses.asdict(rates)}


def _cmd_simulate(cfg: RunConfig, args) -> tuple[list[str], list[tuple], dict]:
    """Monte Carlo CCDF against its analytical curve; ``validate`` adds the verdict."""
    t = cfg.thresholds()
    sim = SimConfig(trials=cfg.trials, seed=cfg.seed, scenario=args.mode,
                    hex_rings=cfg.hex_rings, sinr_thresholds=t)
    if args.mode == "uplink_hex":
        outcome = montecarlo.simulate_uplink_hex(cfg.params, sim)
        reference = overlay.cellular_sinr_ccdf(cfg.params, t)
    else:
        outcome = montecarlo.simulate_d2d(cfg.params, sim)
        if args.mode == "d2d_overlay":
            reference = overlay.d2d_sinr_ccdf(cfg.params, t)
        else:
            reference = underlay.d2d_sinr_ccdf_underlay(cfg.params, t)
    header = [
        "threshold [linear]",
        "empirical_ccdf [prob]",
        "analytical_ccdf [prob]",
        "abs_deviation [prob]",
    ]
    rows = [
        (float(x), float(e), float(a), abs(float(e) - float(a)))
        for x, e, a in zip(
            outcome.empirical_ccdf.thresholds, outcome.empirical_ccdf.values, reference.values
        )
    ]
    extra = {
        "mode": args.mode,
        "samples_collected": outcome.samples_collected,
        "sim_metadata": outcome.metadata,
        "max_abs_deviation": max(row[3] for row in rows),
    }
    if args.command == "validate":
        extra["tolerance"] = args.tolerance
        extra["validation_passed"] = bool(extra["max_abs_deviation"] <= args.tolerance)
    return header, rows, extra


def _cmd_optimize(cfg: RunConfig, args) -> tuple[list[str], list[tuple], dict]:
    if args.mode == "underlay" and args.joint:
        raise ConfigError("--joint is defined for --mode overlay only")
    if args.mode == "overlay" and args.joint:
        grid = _mu_grid(cfg, np.arange(50.0, 1001.0, 50.0))
        opt = overlay.joint_optimize_mu_eta(cfg.params, grid)
        rows = [("mu", opt.mu, opt.utility), ("eta", opt.eta, opt.utility)]
    elif args.mode == "overlay":
        # the raw-rate objective eta* maximises (see optimal_partition)
        eta_star = overlay.optimal_partition(cfg.params)
        report = overlay.overlay_rates(
            cfg.params.replace(eta=eta_star, bandwidth_normalization=False)
        )
        rows = [("eta", eta_star, report.utility)]
    else:
        beta_star = underlay.optimal_access_factor(cfg.params)
        report = underlay.underlay_rates(cfg.params.replace(beta=beta_star))
        rows = [("beta", beta_star, report.utility)]
    header = ["variable", "optimum [dimensionless or m]", "utility [weighted log rate]"]
    return header, rows, {"mode": args.mode, "joint": bool(args.joint)}


def _cmd_feasibility(cfg: RunConfig, args) -> tuple[list[str], list[tuple], dict]:
    theta_d = 10.0 ** (args.theta_d_db / 10.0)
    theta_c = 10.0 ** (args.theta_c_db / 10.0)
    mus, bd, bc, ok = underlay.feasible_beta_curves(
        cfg.params, _mu_grid(cfg, np.linspace(50.0, 1000.0, 20)), theta_d, args.eps_d,
        theta_c, args.eps_c,
    )
    header = [
        "mu [m]",
        "beta_max_d2d [dimensionless]",
        "beta_max_cellular [dimensionless]",
        "beta_max_joint [dimensionless]",
        "cellular_feasible [0/1]",
    ]
    rows = [
        (float(m), float(x), float(y), float(min(x, y)), int(f))
        for m, x, y, f in zip(mus, bd, bc, ok)
    ]
    extra = {k: getattr(args, k) for k in ("theta_d_db", "eps_d", "theta_c_db", "eps_c")}
    return header, rows, extra


def _cmd_sweep(cfg: RunConfig, args) -> tuple[list[str], list[tuple], dict]:
    if cfg.sweep_variable is None or cfg.sweep_grid is None:
        raise ConfigError("sweep requires sweep_variable and sweep_grid in the config")
    rates = overlay.overlay_rates if args.mode == "overlay" else underlay.underlay_rates
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
    rows = []
    for v in cfg.sweep_grid:
        report = rates(cfg.params.replace(**{cfg.sweep_variable: float(v)}))
        rows.append((cfg.sweep_variable, float(v), *dataclasses.astuple(report)))
    return header, rows, {"mode": args.mode}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

_COMMANDS = {
    "power": _cmd_power,
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "validate": _cmd_simulate,
    "optimize": _cmd_optimize,
    "feasibility": _cmd_feasibility,
    "sweep": _cmd_sweep,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every ``main`` call."""
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

    p = sub.add_parser("power", help="transmit-power statistics")
    add_common(p)

    p = sub.add_parser("analyze", help="analytical CCDFs and rates",
                       description="The table holds the CCDFs; the rates are in the manifest.")
    add_common(p)
    p.add_argument("--mode", choices=("overlay", "underlay"), default="overlay")

    for name in ("simulate", "validate"):
        p = sub.add_parser(name, help="Monte Carlo vs analytical CCDF")
        add_common(p)
        p.add_argument(
            "--mode",
            choices=("uplink_hex", "d2d_overlay", "d2d_underlay"),
            default="d2d_overlay",
        )
        if name == "validate":
            p.add_argument("--tolerance", type=float, default=0.05,
                           help="max |empirical - analytical| allowed (exit 4 beyond)")

    p = sub.add_parser("optimize", help="optimal spectrum-sharing parameters")
    add_common(p)
    p.add_argument("--mode", choices=("overlay", "underlay"), default="overlay")
    p.add_argument("--joint", action="store_true",
                   help="overlay only: jointly optimise mu and eta over the mu sweep grid")

    p = sub.add_parser("feasibility", help="outage-constraint beta_max(mu) curves")
    add_common(p)
    p.add_argument("--theta-d-db", type=float, default=0.0, dest="theta_d_db")
    p.add_argument("--eps-d", type=float, default=0.1, dest="eps_d")
    p.add_argument("--theta-c-db", type=float, default=0.0, dest="theta_c_db")
    p.add_argument("--eps-c", type=float, default=0.5, dest="eps_c")

    p = sub.add_parser("sweep", help="rate report per sweep grid point")
    add_common(p)
    p.add_argument("--mode", choices=("overlay", "underlay"), default="overlay")

    return parser


def run(args) -> int:
    """Execute a parsed command line; returns the process exit code."""
    text = ""
    if args.config is not None:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from exc
    cfg = parse_config(text)
    for flag, key in (("seed", "seed"), ("trials", "trials"), ("output", "output_path")):
        if getattr(args, flag) is not None:
            setattr(cfg, key, getattr(args, flag))

    header, rows, extra = _COMMANDS[args.command](cfg, args)

    out_path = cfg.output_path or f"{args.command}.{cfg.format}"
    _write_table(header, rows, out_path, cfg.format)
    _write_manifest(out_path + ".manifest.json", args.command, cfg, {**extra, "output": out_path})

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
