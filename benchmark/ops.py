"""Running one op, timing it, and checking its outputs against the oracle.

``prepare`` turns an op into a zero-argument call; only that call is timed.
Library functions are reached through their module attributes at call time
(``overlay.overlay_rates``, not a bound name), so a traced run that swaps
module attributes for span-recording wrappers sees every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from d2dshare import cli, montecarlo, overlay, underlay
from d2dshare.model import NetworkParams
from d2dshare.montecarlo import SimConfig

# The tolerances of scripts/validate_sinr_ccdfs.py.
VALIDATE_TOL = {"uplink_hex": 0.05, "d2d_overlay": 0.02, "d2d_underlay": 0.03}


class CliFailure(RuntimeError):
    """A CLI job exited with a nonzero code."""

    def __init__(self, code: int, message: str):
        super().__init__(f"exit {code}: {message}")


@dataclass
class OpRecord:
    """One attempted op: its inputs, latency, outcome and output digests."""

    op: dict
    latency_s: float
    error: Optional[str] = None
    output: object = None
    digests: dict = field(default_factory=dict)
    bytes_written: int = 0

    @property
    def failed(self) -> bool:
        return self.error is not None


def params_of(op: dict) -> NetworkParams:
    keys = ("alpha", "snr_m_db", "mu", "q", "eta", "beta")
    return NetworkParams(**{k: op[k] for k in keys if k in op})


def _out_name(op: dict) -> str:
    return f"op{op['id']:05d}.csv"


def cli_call(argv: list[str], main: Callable[[list[str]], int] = None) -> int:
    """Run one CLI job in-process; a nonzero exit raises ``CliFailure``."""
    main = main or cli.main
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        lines = err.getvalue().strip().splitlines()
        raise CliFailure(code, lines[-1] if lines else "no message")
    return code


def _config_text(op: dict) -> str:
    lines = [f"{k} = {op[k]!r}" for k in ("alpha", "snr_m_db", "mu", "q", "eta", "beta") if k in op]
    if "mu_grid" in op:
        lines.append("sweep_variable = mu")
        lines.append("sweep_grid = " + ",".join(repr(m) for m in op["mu_grid"]))
    return "\n".join(lines) + "\n"


def cli_argv(op: dict) -> list[str]:
    """The command line of a CLI op; its config file is named after the op."""
    kind = op["kind"]
    out = ["--output", _out_name(op)]
    if kind.startswith("validate_"):
        mode = kind[len("validate_"):]
        return ["validate", "--mode", mode, "--trials", str(op["trials"]),
                "--seed", str(op["sim_seed"]), "--tolerance", repr(VALIDATE_TOL[mode])] + out
    cfg = f"op{op['id']:05d}.cfg"
    if kind == "power":
        return ["power", cfg] + out
    if kind == "feasibility":
        return ["feasibility", cfg,
                "--theta-d-db", repr(op["theta_d_db"]), "--eps-d", repr(op["eps_d"]),
                "--theta-c-db", repr(op["theta_c_db"]), "--eps-c", repr(op["eps_c"])] + out
    sub, mode = kind.split("_")
    if mode == "joint":
        return ["optimize", cfg, "--mode", "overlay", "--joint"] + out
    return [sub, cfg, "--mode", mode] + out


def prepare(op: dict) -> Callable[[], object]:
    """Everything an op needs before its timed call; returns that call.

    CLI ops write their config file here, in the current directory.
    """
    kind = op["kind"]
    if kind == "rate_point":
        p = params_of(op)

        def call():
            return {
                "overlay": dataclasses.asdict(overlay.overlay_rates(p)),
                "underlay": dataclasses.asdict(underlay.underlay_rates(p)),
                "eta_star": overlay.optimal_partition(p),
            }
        return call
    if kind == "rate_optimize":
        p = params_of(op)

        def call():
            joint = overlay.joint_optimize_mu_eta(p, op["mu_grid"])
            return {"beta_star": underlay.optimal_access_factor(p), "joint": dataclasses.asdict(joint)}
        return call
    if kind == "sample_link_powers":
        sim = SimConfig(trials=op["draws"], seed=op["sim_seed"], scenario="link_length_sampling")

        def call():
            return dataclasses.asdict(montecarlo.sample_link_powers(NetworkParams(), sim))
        return call
    argv = cli_argv(op)
    if not kind.startswith("validate_"):
        with open(argv[1], "w") as fh:
            fh.write(_config_text(op))
    return lambda: cli_call(argv)


def _finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(_finite(v) for v in obj)
    if isinstance(obj, (float, np.floating)):
        return math.isfinite(obj)
    return True


def run_op(op: dict, call: Callable[[], object]) -> OpRecord:
    """Time ``call``; any exception, nonzero exit or non-finite result is a failure."""
    t0 = time.perf_counter()
    try:
        output = call()
        error = None
    except Exception as exc:  # the op boundary: every failure is counted, none stops the run
        output = None
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if error is None and not _finite(output):
        error = "non-finite output"
    return OpRecord(op=op, latency_s=latency, error=error, output=output)


def collect_files(rec: OpRecord) -> None:
    """Read a CLI op's CSV and manifest (outside the timed region) and digest them."""
    if rec.op["kind"] in ("rate_point", "rate_optimize", "sample_link_powers"):
        blob = json.dumps(rec.output, sort_keys=True).encode()
        rec.digests["output"] = hashlib.sha256(blob).hexdigest()
        return
    out = _out_name(rec.op)
    files = {}
    for name in (out, out + ".manifest.json"):
        if os.path.exists(name):
            with open(name, "rb") as fh:
                data = fh.read()
            rec.digests[name] = hashlib.sha256(data).hexdigest()
            rec.bytes_written += len(data)
            files[name] = data.decode()
    rec.output = files


# ---------------------------------------------------------------------------
# Oracle checks: each returns None when the op's outputs agree, or the cause.
# ---------------------------------------------------------------------------

def _csv(text: str) -> dict[str, np.ndarray]:
    lines = text.strip().splitlines()
    header = [h.split(" [", 1)[0] for h in lines[0].split(",")]
    rows = [line.split(",") for line in lines[1:]]
    cols = {}
    for i, name in enumerate(header):
        vals = [r[i] for r in rows]
        try:
            cols[name] = np.array([float(v) for v in vals])
        except ValueError:
            cols[name] = np.array(vals)
    return cols


def _first(*causes):
    return next((c for c in causes if c), None)


def check(rec: OpRecord, oracle) -> Optional[str]:
    """Compare a successful op's outputs with the oracle."""
    # imported here so scipy is not loaded until the timed phase is over
    from oracle import (
        BETA_ABS, CCDF_ABS, CLOSED_FORM_REL, UTILITY_ABS,
        abs_mismatch, optimum_mismatch, rel_mismatch, report_mismatch,
    )

    op, out = rec.op, rec.output
    kind = op["kind"]
    if kind == "rate_point":
        p = params_of(op)
        return _first(
            report_mismatch("overlay_rates", out["overlay"], oracle.overlay_report(p)),
            report_mismatch("underlay_rates", out["underlay"], oracle.underlay_report(p)),
            optimum_mismatch("optimal_partition",
                             float(oracle.partition_utility(p, out["eta_star"])),
                             oracle.best_partition_utility(p)),
        )
    if kind == "rate_optimize":
        p = params_of(op)
        j = out["joint"]
        return _first(
            optimum_mismatch("optimal_access_factor", oracle.access_utility(p, out["beta_star"]),
                             oracle.best_access_utility(p)),
            abs_mismatch("joint_optimize_mu_eta.utility", j["utility"],
                         oracle.joint_utility(p, j["mu"], j["eta"]), UTILITY_ABS),
            optimum_mismatch("joint_optimize_mu_eta", j["utility"],
                             oracle.best_joint_utility(p, op["mu_grid"])),
        )
    if kind == "sample_link_powers":
        p = NetworkParams()
        want = oracle.power_moments(p)
        tol = oracle.sampled_moment_tolerance(p, out["draws"])
        return _first(*(
            rel_mismatch(f"mean_p_{k}", out[f"mean_p_{k}"], want[k], tol[k])
            for k in ("cellular", "potential_d2d", "d2d_mode")
        ))

    name = _out_name(op)
    if name not in out or name + ".manifest.json" not in out:
        return "CLI output or manifest missing"
    table = _csv(out[name])
    manifest = json.loads(out[name + ".manifest.json"])
    if kind.startswith("validate_"):
        mode = kind[len("validate_"):]
        p = NetworkParams()
        which = {"uplink_hex": "cellular_overlay", "d2d_overlay": "d2d_overlay",
                 "d2d_underlay": "d2d_underlay"}[mode]
        exact = oracle.ccdf(p, table["threshold"], which)
        return _first(
            abs_mismatch("analytical_ccdf", table["analytical_ccdf"], exact, CCDF_ABS),
            abs_mismatch("empirical_ccdf", table["empirical_ccdf"], exact, VALIDATE_TOL[mode]),
        )

    p = params_of(op)
    if kind.startswith("analyze_"):
        mode = kind[len("analyze_"):]
        t = np.logspace(-2.0, 4.0, 60)
        want = oracle.overlay_report(p) if mode == "overlay" else oracle.underlay_report(p)
        return _first(
            abs_mismatch("threshold", table["threshold"], t, 1e-12 * 1e4),
            abs_mismatch("d2d_ccdf", table["d2d_ccdf"], oracle.ccdf(p, t, "d2d_" + mode), CCDF_ABS),
            abs_mismatch("cellular_ccdf", table["cellular_ccdf"], oracle.ccdf(p, t, "cellular_" + mode),
                         CCDF_ABS),
            report_mismatch("rates", manifest["rates"], want),
        )
    if kind.startswith("sweep_"):
        mode = kind[len("sweep_"):]
        for i, mu in enumerate(op["mu_grid"]):
            q = p.replace(mu=mu)
            want = oracle.overlay_report(q) if mode == "overlay" else oracle.underlay_report(q)
            got = {k: table[k][i] for k in ("r_c", "r_d", "t_c", "t_d", "t_d_hat", "utility")}
            cause = _first(abs_mismatch("value", table["value"][i], mu, 0.0),
                           report_mismatch(f"row {i}", got, want))
            if cause:
                return cause
        return None
    if kind == "optimize_overlay":
        eta = float(table["optimum"][0])
        achieved = float(oracle.partition_utility(p, eta))
        return _first(
            abs_mismatch("utility", table["utility"][0], achieved, UTILITY_ABS),
            optimum_mismatch("eta*", achieved, oracle.best_partition_utility(p)),
        )
    if kind == "optimize_underlay":
        beta = float(table["optimum"][0])
        achieved = oracle.access_utility(p, beta)
        return _first(
            abs_mismatch("utility", table["utility"][0], achieved, UTILITY_ABS),
            optimum_mismatch("beta*", achieved, oracle.best_access_utility(p)),
        )
    if kind == "optimize_joint":
        mu, eta = float(table["optimum"][0]), float(table["optimum"][1])
        achieved = oracle.joint_utility(p, mu, eta)
        return _first(
            abs_mismatch("utility", table["utility"][0], achieved, UTILITY_ABS),
            optimum_mismatch("(mu*, eta*)", achieved, oracle.best_joint_utility(p, op["mu_grid"])),
        )
    if kind == "feasibility":
        th_d = 10.0 ** (op["theta_d_db"] / 10.0)
        th_c = 10.0 ** (op["theta_c_db"] / 10.0)
        for i, mu in enumerate(op["mu_grid"]):
            bd, bc, ok = oracle.beta_bounds(p.replace(mu=mu), th_d, op["eps_d"], th_c, op["eps_c"])
            cause = _first(
                abs_mismatch(f"row {i} beta_max_d2d", table["beta_max_d2d"][i], bd, BETA_ABS),
                abs_mismatch(f"row {i} beta_max_cellular", table["beta_max_cellular"][i], bc, BETA_ABS),
                None if int(table["cellular_feasible"][i]) == int(ok) else f"row {i} cellular_feasible",
            )
            if cause:
                return cause
        return None
    if kind == "power":
        want = oracle.power_moments(p)
        return _first(
            rel_mismatch("avg_power_cellular", table["avg_power_cellular"][0], want["cellular"],
                         CLOSED_FORM_REL),
            rel_mismatch("avg_power_potential_d2d", table["avg_power_potential_d2d"][0],
                         want["potential_d2d"], CLOSED_FORM_REL),
            rel_mismatch("avg_power_d2d_mode", table["avg_power_d2d_mode"][0], want["d2d_mode"],
                         CLOSED_FORM_REL),
        )
    raise ValueError(f"no oracle for op kind {kind!r}")
