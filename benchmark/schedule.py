"""Seeded, stratified op schedules for the three benchmark workloads.

Every op is a plain JSON-able dict, a pure function of (workload, seed, op
index).  The seed only moves values inside fixed strata: the sequence of op
kinds, the (job type, alpha band) cells and the stratum each value is drawn
from are the same for every seed, so two seeds give the same mix of
operations and differ only in the numbers inside each cell.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("rate_sweep", "oneshot_cli", "mc_validate")

# rate_sweep: blocks hold (alpha, SNR) fixed and sweep MU_POINTS mode thresholds.
# alpha < 3 is left out: one multi-second ConvergenceError per block would swamp
# the sweep, and that failure is counted by oneshot_cli.
RATE_ALPHA = (3.0, 5.0)
RATE_SNR_DB = (-10.0, 40.0)
RATE_MU = (25.0, 1000.0)
RATE_STRATA = 4
MU_POINTS = 16

# oneshot_cli: every round holds each (job type, alpha band) cell exactly once.
JOB_TYPES = (
    "analyze_overlay",
    "analyze_underlay",
    "optimize_overlay",
    "optimize_underlay",
    "optimize_joint",
    "feasibility",
    "power",
    "sweep_overlay",
    "sweep_underlay",
)
ALPHA_BANDS = ((2.0, 3.0), (3.0, 4.0), (4.0, 5.0), (5.0, 6.0))
ROUND = len(JOB_TYPES) * len(ALPHA_BANDS)
CLI_SNR_DB = (-10.0, 40.0)
CLI_MU = (50.0, 600.0)

# mc_validate: one op is one validate job or one link-power sampling call.
MC_KINDS = ("validate_uplink_hex", "validate_d2d_overlay", "validate_d2d_underlay", "sample_link_powers")
MC_TRIALS = 10_000
MC_DRAWS = 10_000_000

# Length of the schedule prefix whose digest identifies a run's inputs.
DIGEST_OPS = 512


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _in_cell(lo: float, hi: float, cell: int, cells: int, rng: random.Random) -> float:
    """A draw from the middle fifth of cell ``cell`` of ``cells`` equal cells of [lo, hi].

    Keeping to the middle of each cell keeps its cost and outcome steady from
    seed to seed, so run-to-run spread measures the program, not the draw.
    """
    width = (hi - lo) / cells
    return lo + width * (cell + 0.4 + 0.2 * rng.random())


def _rate_block(seed: int, block: int) -> list[dict]:
    rng = _rng("rate_sweep", seed, block)
    # Latin-square order: any RATE_STRATA consecutive blocks cover every alpha
    # stratum and every SNR stratum; RATE_STRATA^2 blocks cover every cell.
    a_cell = block % RATE_STRATA
    s_cell = (block + block // RATE_STRATA) % RATE_STRATA
    alpha = _in_cell(*RATE_ALPHA, a_cell, RATE_STRATA, rng)
    snr = _in_cell(*RATE_SNR_DB, s_cell, RATE_STRATA, rng)
    mus = [_in_cell(*RATE_MU, j, MU_POINTS, rng) for j in range(MU_POINTS)]
    base = {"block": block, "alpha": alpha, "snr_m_db": snr}
    ops = [dict(base, kind="rate_point", mu=m) for m in mus]
    ops.append(dict(base, kind="rate_optimize", mu=mus[MU_POINTS // 2], mu_grid=mus))
    return ops


def _oneshot_job(seed: int, index: int) -> dict:
    rng = _rng("oneshot_cli", seed, index)
    pos = index % ROUND
    j = pos % len(JOB_TYPES)
    band = (pos // len(JOB_TYPES) + j) % len(ALPHA_BANDS)
    kind = JOB_TYPES[j]
    # Each band, and each other parameter's range, is split into one cell per
    # job type.  Which cell a job draws from depends only on (job type, band),
    # with a different rotation per parameter, so every round spans each range
    # evenly and every seed uses the same cells.  Every round draws from the
    # same cells: the share of failed ops, which the small-alpha cells set, and
    # the peak memory then do not depend on how many rounds a run fits in.
    n = len(JOB_TYPES)

    def cell(lo, hi, step_j, step_b):
        return _in_cell(lo, hi, (step_j * j + step_b * band) % n, n, rng)

    job = {
        "kind": kind,
        "band": band,
        "alpha": cell(*ALPHA_BANDS[band], 1, 0),
        "snr_m_db": cell(*CLI_SNR_DB, 2, 1),
        "mu": cell(*CLI_MU, 4, 1),
        "q": cell(0.05, 0.9, 5, 3),
        "eta": cell(0.05, 0.9, 7, 1),
        "beta": cell(0.05, 1.0, 8, 2),
    }
    if kind == "feasibility":
        job.update(
            theta_d_db=cell(-5.0, 5.0, 1, 1),
            eps_d=cell(0.05, 0.3, 1, 2),
            theta_c_db=cell(-5.0, 5.0, 1, 3),
            eps_c=cell(0.2, 0.8, 1, 1),
        )
    grid_points = {"feasibility": 8, "optimize_joint": 8, "sweep_overlay": 4, "sweep_underlay": 4}
    if kind in grid_points:
        k = grid_points[kind]
        job["mu_grid"] = [_in_cell(*CLI_MU, i, k, rng) for i in range(k)]
    return job


def _mc_op(seed: int, index: int) -> dict:
    digest = hashlib.sha256(f"mc_validate:{seed}:{index}".encode()).digest()
    kind = MC_KINDS[index % len(MC_KINDS)]
    size = {"draws": MC_DRAWS} if kind == "sample_link_powers" else {"trials": MC_TRIALS}
    return {"kind": kind, "sim_seed": int.from_bytes(digest[:4], "big"), **size}


# Ops per period: the shortest stretch of a schedule holding its full op mix
# (rate_sweep: every (alpha, SNR) cell once; oneshot_cli: every (job type,
# band) cell once; mc_validate: every op kind once).  A run measures whole
# periods, so every run sees the same mix.  rate_sweep's period spans the whole
# cell grid, not just every stratum: an op's cost and its transient memory
# depend on the (alpha, SNR) cell, and the low-alpha, high-SNR cell alone sets
# the workload's peak memory.
PERIOD = {"rate_sweep": RATE_STRATA**2 * (MU_POINTS + 1), "oneshot_cli": ROUND, "mc_validate": len(MC_KINDS)}


class Schedule:
    """The unbounded op sequence of one (workload, seed), generated lazily."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
        self.workload = workload
        self.seed = seed
        self.period = PERIOD[workload]
        self._ops: list[dict] = []

    def _extend(self) -> None:
        n = len(self._ops)
        if self.workload == "rate_sweep":
            new = _rate_block(self.seed, n // (MU_POINTS + 1))
        elif self.workload == "oneshot_cli":
            new = [_oneshot_job(self.seed, n)]
        else:
            new = [_mc_op(self.seed, n)]
        for op in new:
            op["id"] = len(self._ops)
            self._ops.append(op)

    def op(self, index: int) -> dict:
        while len(self._ops) <= index:
            self._extend()
        return self._ops[index]

    def prefix(self, n: int) -> list[dict]:
        return [self.op(i) for i in range(n)]


def ops_digest(ops: list[dict]) -> str:
    """SHA-256 of the canonical JSON of a list of ops."""
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()


def op_mix(ops: list[dict]) -> list[tuple]:
    """The seed-independent shape of a schedule: kind and stratum of each op."""
    return [(op["kind"], op.get("band"), op.get("block")) for op in ops]
