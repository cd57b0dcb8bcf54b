"""Self-tests of the benchmark itself (not part of the package's test suite).

Run from the repository root with ``python3 -m pytest benchmark/test_benchmark.py -q``.
"""

import collections
import dataclasses
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import ops  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import schedule  # noqa: E402
from d2dshare import NetworkParams, overlay, power, underlay  # noqa: E402
from d2dshare.specfun import ConvergenceError  # noqa: E402


def test_oracle_matches_package_at_defaults():
    p = NetworkParams()
    o = oracle.Oracle()
    t = np.logspace(-2.0, 4.0, 60)
    assert abs(oracle.jout(1.0, 3.5) / overlay.outofcell_exponent(1.0, 3.5) - 1.0) < 1e-9
    assert oracle.abs_mismatch("cell", overlay.cellular_sinr_ccdf(p, t).values,
                               o.ccdf(p, t, "cellular_overlay"), oracle.CCDF_ABS) is None
    assert oracle.abs_mismatch("d2d", underlay.d2d_sinr_ccdf_underlay(p, t).values,
                               o.ccdf(p, t, "d2d_underlay"), oracle.CCDF_ABS) is None
    assert oracle.report_mismatch("ov", dataclasses.asdict(overlay.overlay_rates(p)),
                                  o.overlay_report(p)) is None
    assert oracle.report_mismatch("un", dataclasses.asdict(underlay.underlay_rates(p)),
                                  o.underlay_report(p)) is None
    eta = overlay.optimal_partition(p)
    assert oracle.optimum_mismatch("eta", float(o.partition_utility(p, eta)),
                                   o.best_partition_utility(p)) is None
    moments = o.power_moments(p)
    assert moments["cellular"] == pytest.approx(power.avg_power_cellular(p), rel=1e-12)
    assert moments["d2d_mode"] == pytest.approx(power.avg_power_d2d_mode(p), rel=1e-9)


def test_oracle_flags_a_ccdf_off_by_twice_its_tolerance():
    p = NetworkParams()
    t = np.logspace(-2.0, 4.0, 60)
    exact = oracle.Oracle.ccdf(p, t, "cellular_overlay")
    off = exact.copy()
    off[17] += 2 * oracle.CCDF_ABS
    assert oracle.abs_mismatch("cell", exact, exact, oracle.CCDF_ABS) is None
    assert oracle.abs_mismatch("cell", off, exact, oracle.CCDF_ABS) is not None


def test_kernel_probe_times_the_kernel_in_its_own_interpreter():
    with run.KernelProbe() as probe:
        samples = [probe.sample() for _ in range(3)]
        assert probe.proc.pid != os.getpid()
    assert all(0.0 < s < 1.0 for s in samples)
    assert probe.proc.returncode == 0


def test_tail_index_is_highest_percentile_with_ten_beyond():
    for n in range(1, 2001):
        p, idx = run.tail_index(n)
        if n <= 10:
            assert (p, idx) == (100, n - 1)
            continue
        assert n - 1 - idx >= 10
        next_rank = -(-(p + 1) * n // 100)  # nearest rank of the next whole percentile
        assert n - next_rank < 10


def test_tail_index_examples():
    assert run.tail_index(11) == (9, 0)
    assert run.tail_index(100) == (90, 89)
    assert run.tail_index(150) == (93, 139)


def _op(kind="rate_point"):
    return {"id": 0, "kind": kind, "alpha": 2.2, "snr_m_db": 10.0, "mu": 200.0}


def test_convergence_error_counts_as_attempted_and_failed():
    def boom():
        raise ConvergenceError("quadrature exhausted 2000 subdivisions")

    good = ops.run_op(_op(), lambda: {"x": 1.0})
    bad = ops.run_op(_op(), boom)
    assert bad.failed and "ConvergenceError" in bad.error
    values, detail = run.end_to_end([good, bad], [1.0], [run.KERNEL_REF_S], [0.1], 50.0)
    assert detail["ops_attempted"] == 2 and detail["ops_failed"] == 1
    assert values["ops_ok_frac"] == 0.5 and values["ops_per_s"] == 2.0


def test_cli_exit_code_three_counts_as_attempted_and_failed():
    rec = ops.run_op(_op("analyze_overlay"), lambda: ops.cli_call(["analyze"], main=lambda argv: 3))
    assert rec.failed and rec.error.startswith("CliFailure: exit 3")
    _, detail = run.end_to_end([rec], [1.0], [run.KERNEL_REF_S], [0.1], 50.0)
    assert (detail["ops_attempted"], detail["ops_failed"]) == (1, 1)


def test_latency_percentiles_are_medians_over_periods():
    recs = [ops.run_op(_op(), lambda: {"x": 1.0}) for _ in range(6)]
    for rec, lat in zip(recs, (0.1, 0.2, 0.3, 0.5, 0.6, 0.7)):
        rec.latency_s = lat
    ref = run.KERNEL_REF_S
    values, detail = run.end_to_end(recs, [1.0, 2.0], [ref], [0.1], 50.0)
    assert values["op_p50_ms"] == pytest.approx(400.0)   # median of the periods' 200 and 600
    assert values["op_tail_ms"] == pytest.approx(500.0)  # median of the periods' maxima 300 and 700
    assert values["ops_per_s"] == pytest.approx(2.25)    # median of 3/1.0 and 3/2.0
    assert len(detail["periods"]) == 2
    # the same work on a host twice as slow, kernel included, reads the same
    for rec in recs:
        rec.latency_s *= 2.0
    slow, _ = run.end_to_end(recs, [2.0, 4.0], [2 * ref], [0.2], 50.0)
    assert slow == pytest.approx(values)


def test_non_finite_output_is_a_failure():
    assert ops.run_op(_op(), lambda: {"r": float("nan")}).failed


@pytest.mark.parametrize("workload", schedule.WORKLOADS)
def test_two_seeds_give_identical_op_mixes(workload):
    a = schedule.Schedule(workload, 1).prefix(3 * schedule.ROUND)
    b = schedule.Schedule(workload, 2).prefix(3 * schedule.ROUND)
    assert schedule.op_mix(a) == schedule.op_mix(b)
    assert schedule.ops_digest(a) != schedule.ops_digest(b)
    again = schedule.Schedule(workload, 1).prefix(3 * schedule.ROUND)
    assert schedule.ops_digest(a) == schedule.ops_digest(again)


def test_every_oneshot_round_fills_each_job_band_cell_once():
    jobs = schedule.Schedule("oneshot_cli", 7).prefix(4 * schedule.ROUND)
    for r in range(4):
        cells = collections.Counter((j["kind"], j["band"]) for j in jobs[r * schedule.ROUND:(r + 1) * schedule.ROUND])
        assert len(cells) == schedule.ROUND and set(cells.values()) == {1}
    for j in jobs:
        lo, hi = schedule.ALPHA_BANDS[j["band"]]
        assert lo < j["alpha"] <= hi and j["q"] <= 0.9
    # every round draws each job's alpha from the same cell of its band
    for a, b in zip(jobs, jobs[schedule.ROUND:]):
        lo, hi = schedule.ALPHA_BANDS[a["band"]]
        width = (hi - lo) / len(schedule.JOB_TYPES)
        assert (a["kind"], a["band"]) == (b["kind"], b["band"])
        assert (a["alpha"] - lo) // width == (b["alpha"] - lo) // width


def test_rate_sweep_blocks_stay_in_their_strata():
    ops_ = schedule.Schedule("rate_sweep", 3).prefix(16 * (schedule.MU_POINTS + 1))
    cells = {(int((op["alpha"] - 3.0) // 0.5), int((op["snr_m_db"] + 10.0) // 12.5))
             for op in ops_ if op["kind"] == "rate_optimize"}
    assert len(cells) == 16
