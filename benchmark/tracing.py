"""Per-layer measurement: spans around the package's public calls, and probes.

A traced run swaps every public function of every ``d2dshare`` module, in
every module namespace that holds it, for a wrapper that records a span
(name, start, end, parent, op id).  Nothing inside the package changes; the
wrappers live here and are removed when the traced phase ends.  Spans stay in
memory and are written out with the run record.

Where a workload never calls a layer, ``coverage_calls`` calls it once on the
workload's own parameters, so every workload reports every layer metric.
Micro-costs (a kernel call, one ``derive``, one RNG set-up) are timed
directly by ``probe_metrics`` with tracing off.
"""

from __future__ import annotations

import inspect
import math
import statistics
import time
from typing import Callable

import numpy as np

import d2dshare
from d2dshare import cli, model, montecarlo, overlay, power, specfun, underlay
from d2dshare.model import NetworkParams, default_sinr_thresholds
from d2dshare.montecarlo import SimConfig

LAYERS = {
    "specfun": specfun,
    "model": model,
    "power": power,
    "overlay": overlay,
    "underlay": underlay,
    "montecarlo": montecarlo,
    "cli": cli,
}

CLI_SUBCOMMANDS = ("analyze", "optimize", "feasibility", "power", "sweep", "validate")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("specfun.hyp2f1_kernel.ns_per_point", "ns"),
    ("specfun.hyp2f1_kernel.small_ns_per_point", "ns"),
    ("specfun.hyp2f1_kernel.mid_ns_per_point", "ns"),
    ("specfun.hyp2f1_kernel.big_ns_per_point", "ns"),
    ("specfun.integrate_semiinfinite.ms_per_rate", "ms"),
    ("specfun.integrate_semiinfinite.panels_per_rate", "count"),
    ("specfun.integrate_semiinfinite.failed", "count"),
    ("model.derive.us_per_call", "us"),
    ("power.actual_power_report.us_per_call", "us"),
    ("overlay.outofcell_exponent.us_per_point", "us"),
    ("overlay.outofcell_exponent.scalar_us", "us"),
    ("overlay.d2d_spectral_efficiency.ms", "ms"),
    ("overlay.cellular_spectral_efficiency.ms", "ms"),
    ("overlay.overlay_rates.ms", "ms"),
    ("overlay.optimal_partition.ms", "ms"),
    ("overlay.joint_optimize_mu_eta.ms", "ms"),
    ("overlay.cellular_sinr_ccdf.ms", "ms"),
    ("underlay.d2d_spectral_efficiency_underlay.ms", "ms"),
    ("underlay.cellular_spectral_efficiency_underlay.ms", "ms"),
    ("underlay.underlay_rates.ms", "ms"),
    ("underlay.optimal_access_factor.ms", "ms"),
    ("underlay.feasible_beta_curves.ms", "ms"),
    ("montecarlo.simulate_uplink_hex.us_per_trial", "us"),
    ("montecarlo.simulate_d2d.overlay_us_per_trial", "us"),
    ("montecarlo.simulate_d2d.underlay_us_per_trial", "us"),
    ("montecarlo.sample_link_powers.ns_per_draw", "ns"),
    ("montecarlo.samples_collected", "count"),
    ("montecarlo.rng_setup_us", "us"),
    ("montecarlo.trials_per_s", "1/s"),
    ("cli.parse_config.us", "us"),
] + [(f"cli.main.{sub}.ms", "ms") for sub in CLI_SUBCOMMANDS] + [
    ("cli.self_ms", "ms"),
    ("cli.bytes_written", "B"),
    ("trace_overhead_frac", "ratio"),
]


class Tracer:
    """Records spans as tuples (name, start, end, parent index, op id, attrs)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.op_id = None
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op_id, _attrs(name, args, result))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        """Swap every public package function for its wrapper, wherever it is bound."""
        wrappers = {}
        for layer, module in LAYERS.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn):
                    wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        for module in [d2dshare, *LAYERS.values()]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()


def _attrs(name: str, args: tuple, result) -> dict | None:
    if name == "cli.main" and args and args[0]:
        return {"sub": args[0][0]}
    if name.startswith("montecarlo.") and len(args) > 1 and isinstance(args[1], SimConfig):
        attrs = {"trials": args[1].trials, "scenario": args[1].scenario}
        if result is not None and hasattr(result, "samples_collected"):
            attrs["samples"] = result.samples_collected
        return attrs
    return None


# ---------------------------------------------------------------------------
# Calls that make every layer appear in every workload's traced run
# ---------------------------------------------------------------------------

def coverage_ops(p: NetworkParams) -> list[dict]:
    """One CLI job per subcommand on the workload's own parameter point."""
    grid = [100.0, 200.0, 300.0, 400.0]
    common = {"alpha": p.alpha, "snr_m_db": p.snr_m_db, "mu": p.mu}
    ops = [
        dict(common, kind="analyze_overlay"),
        dict(common, kind="optimize_overlay"),
        dict(common, kind="feasibility", mu_grid=grid, theta_d_db=0.0, eps_d=0.1, theta_c_db=0.0, eps_c=0.5),
        dict(common, kind="power"),
        dict(common, kind="sweep_overlay", mu_grid=grid),
        dict(kind="validate_d2d_overlay", sim_seed=20231, trials=2000),
    ]
    for i, op in enumerate(ops):
        op["id"] = 90000 + i
    return ops


def coverage_calls(p: NetworkParams) -> None:
    """Direct library calls on ``p`` for every layer function with a ``.ms`` metric."""
    grid = np.linspace(50.0, 800.0, 16)
    overlay.cellular_sinr_ccdf(p)
    overlay.overlay_rates(p)
    overlay.optimal_partition(p)
    overlay.joint_optimize_mu_eta(p, grid)
    underlay.underlay_rates(p)
    underlay.optimal_access_factor(p)
    underlay.feasible_beta_curves(p, grid, 1.0, 0.1, 1.0, 0.5)
    montecarlo.simulate_uplink_hex(p, SimConfig(trials=500, seed=20231, scenario="uplink_hex"))
    montecarlo.simulate_d2d(p, SimConfig(trials=2000, seed=20231, scenario="d2d_overlay"))
    montecarlo.simulate_d2d(p, SimConfig(trials=2000, seed=20231, scenario="d2d_underlay"))
    montecarlo.sample_link_powers(p, SimConfig(trials=1_000_000, seed=20231, scenario="link_length_sampling"))


# ---------------------------------------------------------------------------
# Metrics from spans
# ---------------------------------------------------------------------------

def span_metrics(spans: list, bytes_per_job: float) -> dict[str, float]:
    """Layer metrics from the traced run's spans; ``bytes_per_job`` is the mean CLI output size."""
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[0], []).append(s)

    def median_ms(name, keep=lambda s: True):
        durs = [(s[2] - s[1]) * 1e3 for s in by_name.get(name, []) if keep(s)]
        return statistics.median(durs) if durs else math.nan

    out = {}
    for name in (
        "overlay.d2d_spectral_efficiency", "overlay.cellular_spectral_efficiency",
        "overlay.overlay_rates", "overlay.optimal_partition", "overlay.joint_optimize_mu_eta",
        "overlay.cellular_sinr_ccdf", "underlay.d2d_spectral_efficiency_underlay",
        "underlay.cellular_spectral_efficiency_underlay", "underlay.underlay_rates",
        "underlay.optimal_access_factor", "underlay.feasible_beta_curves",
    ):
        out[f"{name}.ms"] = median_ms(name)

    def per_unit(name, unit_key, scale, keep=lambda s: True):
        sel = [s for s in by_name.get(name, []) if keep(s) and s[5]]
        units = sum(s[5][unit_key] for s in sel)
        return sum(s[2] - s[1] for s in sel) * scale / units if units else math.nan

    out["montecarlo.simulate_uplink_hex.us_per_trial"] = per_unit("montecarlo.simulate_uplink_hex", "trials", 1e6)
    for scen in ("overlay", "underlay"):
        out[f"montecarlo.simulate_d2d.{scen}_us_per_trial"] = per_unit(
            "montecarlo.simulate_d2d", "trials", 1e6, lambda s, c=f"d2d_{scen}": s[5]["scenario"] == c)
    out["montecarlo.sample_link_powers.ns_per_draw"] = per_unit("montecarlo.sample_link_powers", "trials", 1e9)
    sims = [s for n in ("montecarlo.simulate_uplink_hex", "montecarlo.simulate_d2d")
            for s in by_name.get(n, []) if s[5]]
    out["montecarlo.samples_collected"] = float(sum(s[5].get("samples", 0) for s in sims))
    sim_time = sum(s[2] - s[1] for s in sims)
    out["montecarlo.trials_per_s"] = sum(s[5]["trials"] for s in sims) / sim_time if sim_time else math.nan

    out["cli.parse_config.us"] = median_ms("cli.parse_config") * 1e3
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.main.{sub}.ms"] = median_ms("cli.main", lambda s, c=sub: s[5] and s[5]["sub"] == c)
    # self time: a main span minus the part of it its direct children cover
    child_time: dict[int, float] = {}
    for s in spans:
        if s[3] is not None:
            child_time[s[3]] = child_time.get(s[3], 0.0) + (s[2] - s[1])
    selfs = [((s[2] - s[1]) - child_time.get(i, 0.0)) * 1e3 for i, s in enumerate(spans) if s[0] == "cli.main"]
    out["cli.self_ms"] = statistics.median(selfs) if selfs else math.nan
    out["cli.bytes_written"] = float(bytes_per_job)
    return out


# ---------------------------------------------------------------------------
# Direct probes, tracing off
# ---------------------------------------------------------------------------

def _per_call(fn: Callable[[], object], calls: int) -> float:
    """Median over five batches of the mean seconds per call."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def probe_metrics(points: list[NetworkParams]) -> dict[str, float]:
    """Kernel and micro-call costs on the workload's parameter points."""
    t = default_sinr_thresholds()
    u = np.logspace(0.0, 6.0, 64)
    branch_ns = {"": [], "small_": [], "mid_": [], "big_": []}
    for p in points:
        b = 2.0 / p.alpha
        z = (t[:, None] * u[None, :] ** (-p.alpha / 2.0)).ravel()
        parts = {"": z, "small_": z[z < 0.35], "mid_": z[(z >= 0.35) & (z < 2.5)], "big_": z[z >= 2.5]}
        for key, zz in parts.items():
            if zz.size:
                branch_ns[key].append(_per_call(lambda zz=zz: specfun.hyp2f1_kernel(b, zz), 20) * 1e9 / zz.size)
    out = {f"specfun.hyp2f1_kernel.{k}ns_per_point": statistics.median(v) for k, v in branch_ns.items()}

    rate_ms, panels, failed = [], 0, 0
    for p in points:
        calls = [0]

        def integrand(x, n0=p.n0, alpha=p.alpha):
            calls[0] += 1
            return np.exp(-n0 * x - overlay.outofcell_exponent(x, alpha)) / (1.0 + x)

        t0 = time.perf_counter()
        try:
            specfun.integrate_semiinfinite(integrand)
        except specfun.ConvergenceError:
            failed += 1
        rate_ms.append((time.perf_counter() - t0) * 1e3)
        panels += calls[0]
    out["specfun.integrate_semiinfinite.ms_per_rate"] = statistics.median(rate_ms)
    out["specfun.integrate_semiinfinite.panels_per_rate"] = panels / len(points)
    out["specfun.integrate_semiinfinite.failed"] = float(failed)

    p = points[0]
    q = p if p.mu > 0.0 else p.replace(mu=200.0)
    out["model.derive.us_per_call"] = _per_call(lambda: model.derive(p), 500) * 1e6
    out["power.actual_power_report.us_per_call"] = _per_call(lambda: power.actual_power_report(q), 500) * 1e6
    out["overlay.outofcell_exponent.us_per_point"] = statistics.median(
        _per_call(lambda a=pt.alpha: overlay.outofcell_exponent(t, a), 10) * 1e6 / t.size for pt in points)
    out["overlay.outofcell_exponent.scalar_us"] = statistics.median(
        _per_call(lambda a=pt.alpha: overlay.outofcell_exponent(1.0, a), 50) * 1e6 for pt in points)

    def rng_setup(seed=20231, trial=[0]):
        trial[0] += 1
        key = np.array([seed, trial[0]], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    out["montecarlo.rng_setup_us"] = _per_call(rng_setup, 1000) * 1e6
    return out
