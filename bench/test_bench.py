"""Tests of the benchmark itself: every output check counts a known-bad
result as failed, the tracer's arithmetic holds, and short runs print
every metric.  Run from the repository root:

    python3 -m pytest bench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

HEADER = ("schema_version,bins,alphaSquared,phi2,efficiency,darkClickProb,"
          "eveFraction,seed,clicks,doubleClicks,siftedLength,siftedRate,"
          "errors,qber")


def _op(kind):
    return next(op for op in workloads.make_ops("sessions", 7, 1)
                if op.kind == kind)


def _session_csv(op, sifted, errors, qber):
    p = op.params
    row = (1, p["bins"], repr(p["alpha2"]), "0.0", repr(p["efficiency"]),
           repr(p["dark_click_prob"]), repr(p["eve_fraction"]), p["seed"],
           sifted, 0, sifted, repr(sifted / p["bins"]), errors, repr(qber))
    return HEADER + "\n" + ",".join(str(v) for v in row) + "\n"


def _honest_csv(op, shift=0.0):
    p = op.params
    d = p["dark_click_prob"]
    q1 = 1.0 - math.exp(-p["efficiency"] * p["alpha2"]) * (1.0 - d)
    rate = q1 * (1.0 - d) + (1.0 - q1) * d + shift
    return _session_csv(op, round(rate * p["bins"]), 0, 0.0)


def _attacked_csv(qber_shift=0.0):
    op = _op("attacked")
    sifted = 300000
    qber = 0.5 * math.exp(-op.params["alpha2"]) + qber_shift
    return op, _session_csv(op, sifted, round(qber * sifted), qber)


def _certify_json(shift=0.0):
    return json.dumps({"passed": True,
                       "e2e3_comm_norm_reduced": workloads.COMM_SILENT_C3 + shift,
                       "e2e3_comm_norm_marginal": workloads.COMM_MARGINAL_C3})


def _eb_op():
    return workloads.make_ops("eb_witness", 7, 1)[0]


def _eb_text(op):
    return (f"keyBins = {op.params['key_bins']}\nalphaSquared = 0.2\n"
            f"analyticDistance = 0.0\nempiricalDistance = 0.001\n"
            f"trials = {op.params['trials']}\nsigma = 0.0007\n")


WITNESS_TEXT = "== non-commuting family\nwitness found:\n"


def test_good_results_pass():
    honest = _op("honest")
    assert workloads.check(honest, [(0, _honest_csv(honest))]) is None
    attacked, csv = _attacked_csv()
    assert workloads.check(attacked, [(0, csv)]) is None
    certify = workloads.make_ops("certify", 7, 1)[0]
    assert workloads.check(certify, [(0, _certify_json())]) is None
    eb = _eb_op()
    assert workloads.check(eb, [(0, _eb_text(eb)), (0, WITNESS_TEXT)]) is None


def test_off_law_qber_fails():
    op, csv = _attacked_csv(qber_shift=0.02)
    assert "intercept-resend law" in workloads.check(op, [(0, csv)])


def test_off_rate_session_fails():
    op = _op("honest")
    assert "single-click rate" in workloads.check(
        op, [(0, _honest_csv(op, shift=0.01))])


def test_perturbed_commutator_constant_fails():
    op = workloads.make_ops("certify", 7, 1)[0]
    reason = workloads.check(op, [(0, _certify_json(shift=1e-6))])
    assert "e2e3_comm_norm_reduced" in reason


@pytest.mark.parametrize("status", [1, 2, None])
def test_nonzero_exit_status_fails(status):
    op = _eb_op()
    assert "exited with status" in workloads.check(
        op, [(0, _eb_text(op)), (status, WITNESS_TEXT)])
    certify = workloads.make_ops("certify", 7, 1)[0]
    assert "exited with status" in workloads.check(
        certify, [(status, _certify_json())])


def test_unparseable_output_fails():
    assert "unparseable" in workloads.check(_op("honest"), [(0, "garbage")])


def test_inputs_repeat_for_a_seed_and_rounds_keep_their_mix():
    for name in workloads.WORKLOADS:
        assert workloads.make_ops(name, 5, 3) == workloads.make_ops(name, 5, 3)
    kinds = [op.kind for op in workloads.make_ops("sessions", 5, 2)]
    assert kinds[:16].count("attacked") == kinds[16:].count("attacked") == 4


def test_tail_percentile_rests_on_ten_operations():
    assert run.tail([1.0] * 9) is None
    p, _, beyond = run.tail([float(i) for i in range(100)])
    assert (p, beyond) == (90.0, 10)
    p, value, beyond = run.tail([float(i) for i in range(30)])
    assert (p, value, beyond) == (50.0, 14.0, 15)


def test_identity_mismatch_is_reported():
    a = [{"digest": "x"}, {"digest": "y"}]
    assert run.identity_mismatches(a, a) == []
    assert run.identity_mismatches(a, [{"digest": "x"}, {"digest": "z"}]) == [1]


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans = [["cli.main", 0.0, 10.0, None, 0],
                    ["protocol.run_session", 1.0, 9.0, 0, 0],
                    ["protocol.detect", 2.0, 4.0, 1, 0],
                    ["protocol.detect", 5.0, 6.0, 1, 0],
                    ["cli.main", 10.0, 14.0, None, 1]]
    tracer.counts[0]["protocol.bins"] = 100
    tracer.counts[0]["protocol.sifted_bins"] = 25
    tracer.counts[1]["protocol.bins"] = 100
    m = tracer.layer_metrics(n_ops=2, first_round=1, import_s=0.5)
    assert m["cli.self_s"] == pytest.approx((2.0 + 4.0) / 2)
    assert m["protocol.session_self_s"] == pytest.approx(5.0 / 2)
    assert m["protocol.detect_s"] == pytest.approx(3.0 / 2)
    assert m["protocol.bins"] == 100          # first round only
    assert m["protocol.sift_ratio"] == 0.25
    assert m["witness.screen_ratio"] == 0.0   # no base, no ratio


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(spans.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {name: unit for name, unit, _ in run.END_TO_END}
    named = {ln.split()[0]: ln.split()[2] for ln in lines[1:-2]}
    expected = {name: unit for name, unit, _ in run.END_TO_END}
    expected["fail_frac"] = "ratio"
    if workload in run.TAIL_WORKLOADS:
        expected["op_s_tail"] = "s"
    if workload == "sessions":
        expected["bins_per_s"] = "bins/s"
    assert named == expected


def test_traced_run_reports_every_layer_metric_with_identical_outputs():
    proc = _bench("--workload", "sessions", "--seed", "3", "--seconds", "1",
                  "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m for m, _, _ in spans.LAYER_METRICS]
    assert result["metrics"]["protocol.bins"]["value"] == 16 * 10 ** 6


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "sessions", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
