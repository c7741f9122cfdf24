"""Command-line surface: dispatch, exit codes, report formats."""

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dpsqkd import cli, witness
from dpsqkd.cli import main
from dpsqkd.optics import DEFAULT_MAX_STATE_ENTRIES
from fock_oracle import dense_e2_e3


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_simulate_csv_row(capsys):
    code, out, _ = run(["simulate", "--alpha2", "0.2", "--bins", "100000",
                        "--seed", "7"], capsys)
    assert code == 0
    header, row = out.strip().split("\n")
    cols = dict(zip(header.split(","), row.split(",")))
    assert cols["schema_version"] == "1"
    assert abs(float(cols["siftedRate"]) - 0.18127) < 0.011
    assert cols["qber"] == "0.0"


def test_simulate_bins_zero(capsys):
    code, out, _ = run(["simulate", "--bins", "0"], capsys)
    assert code == 0
    assert out.strip().split("\n")[1].split(",")[1] == "0"


def test_simulate_byte_identical_reruns(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["simulate", "--alpha2", "0.2", "--bins", "20000", "--seed", "5",
            "--eve-fraction", "0.3", "--dark-click-prob", "0.001"]
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_repeat_distinct_seeds(capsys):
    code, out, _ = run(["simulate", "--bins", "5000", "--seed", "3",
                        "--repeat", "3"], capsys)
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 3
    seeds = [r.split(",")[7] for r in rows]
    assert seeds == ["3", "4", "5"]
    assert len(set(rows)) == 3


#: prints the child's own peak resident set, so that no earlier child of
#: the test run counts towards it
_PEAK_RSS_SCRIPT = """
import resource, sys
from dpsqkd.cli import main
status = main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
sys.exit(status)
"""


def test_simulate_repeat_holds_one_session_at_a_time():
    # each row is written as its session ends, so 40 sessions of 10^6 bins
    # peak within 8 MB of one; holding every session until printing, with
    # its disclosed-bin array, grew the peak by about 45 MB
    root = Path(__file__).resolve().parents[1]
    path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    peak_kb = []
    for k in (1, 40):
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS_SCRIPT, "simulate", "--bins",
             "1000000", "--seed", "1", "--repeat", str(k)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.splitlines()) == 1 + k
        peak_kb.append(int(proc.stderr.splitlines()[-1]))
    assert peak_kb[1] - peak_kb[0] < 8 * 1024, peak_kb


def test_simulate_config_file_and_override(tmp_path, capsys):
    cfgfile = tmp_path / "s.cfg"
    cfgfile.write_text("N = 1000\nalphaSquared = 0.2\nseed = 9\n")
    code, out, _ = run(["simulate", "--config", str(cfgfile),
                        "--alpha2", "0.5"], capsys)
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[1] == "1000" and row[2] == "0.5" and row[7] == "9"


def test_simulate_refuses_sessions_above_the_bound(tmp_path, capsys):
    # N + 1 pulses one above the bound, from the flag and from a file
    cfgfile = tmp_path / "big.cfg"
    cfgfile.write_text(f"N = {DEFAULT_MAX_STATE_ENTRIES}\n")
    for argv in (["--bins", str(DEFAULT_MAX_STATE_ENTRIES)],
                 ["--config", str(cfgfile)]):
        code, out, err = run(["simulate", *argv], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert f"exceeds the bound {DEFAULT_MAX_STATE_ENTRIES}" in err


def test_simulate_malformed_config_names_field(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("N = 100\nwibble = 1\n")
    code, _, err = run(["simulate", "--config", str(cfgfile)], capsys)
    assert code == 2
    assert "wibble" in err
    # a key set twice names both lines, in place of the last one winning
    cfgfile.write_text("N = 5\nalphaSquared = 0.2\n\nN = 6\n")
    code, out, err = run(["simulate", "--config", str(cfgfile)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'N'" in err and ":4:" in err and "line 1" in err


def test_simulate_requires_bins(capsys):
    code, _, err = run(["simulate"], capsys)
    assert code == 2
    assert "N" in err


def test_simulate_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DPSQKD_SEED", "31")
    code, out, _ = run(["simulate", "--bins", "100"], capsys)
    assert code == 0
    assert out.strip().split("\n")[1].split(",")[7] == "31"


def test_simulate_text_format(capsys):
    code, out, _ = run(["simulate", "--bins", "1000", "--seed", "2",
                        "--format", "text"], capsys)
    assert code == 0
    assert "siftedRate" in out


def test_verify_povm_cutoff_too_small(capsys):
    code, _, err = run(["verify-povm", "--cutoff", "1"], capsys)
    assert code == 2
    assert "cutoff too small" in err


def test_verify_povm_full_run_json(capsys):
    code, out, _ = run(["verify-povm", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["e2e3_comm_norm"] >= payload["nonzero_floor"]
    assert payload["g_comm_max"] <= payload["g_zero_tol"]


def test_verify_povm_cutoffs_4_to_6(capsys):
    marginal = []
    for cutoff in (3, 4, 5, 6):
        code, out, _ = run(["verify-povm", "--cutoff", str(cutoff),
                            "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        E2, E3 = dense_e2_e3(cutoff)
        oracle = np.linalg.norm(E2 @ E3 - E3 @ E2)
        assert abs(payload["e2e3_comm_norm_reduced"] - oracle) <= 1e-9
        marginal.append(payload["e2e3_comm_norm_marginal"])
    assert all(a < b for a, b in zip(marginal, marginal[1:]))


def test_verify_povm_cutoff_above_sector_bound(capsys):
    t0 = time.perf_counter()
    code, out, err = run(["verify-povm", "--cutoff", "40"], capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert "sector 40 block of 1221759 states" in err
    assert "bound 300000000" in err and "Traceback" not in err


# full verify-povm stdout recorded while the report still wrote its verdict
# and its check lines by hand; --cutoff N -> stdout (exit 0 for both)
PINNED_VERIFY_POVM = {
    "3":
        "keyBins = 2, cutoff = 3 (reduction exact over photon-number sectors 0..9)\n"
        "detection dim = 256, wire dim = 84 (conjugated checks on wire sectors 0..3)\n"
        "max ||[G_i, G_j]||_F           = 0.000e+00   (zero threshold 1e-12)\n"
        "max |G^2 - G|                  = 0.000e+00\n"
        "max |G_i G_j| (i != j)         = 0.000e+00\n"
        "|sum G - I|                    = 0.000e+00\n"
        "max ||[U*G_iU, U*G_jU]||_F     = 1.230e-16   (zero threshold 1e-10)\n"
        "||[E2, E3]||_F closed form     = 0.154605219372170\n"
        "||[E2, E3]||_F silent boundary = 0.154605219372170   (floor 0.1546)\n"
        "||[E2, E3]||_F complete POVM   = 0.193111115979740   (floor 0.1546)\n"
        "|E2 closed - reduced|          = 2.220e-16   (threshold 1e-09)\n"
        "|E3 closed - reduced|          = 2.220e-16\n"
        "|sum E - I|                    = 3.109e-15   (threshold 1e-09)\n"
        "min eigenvalue over E_j        = -9.713e-17   (PSD threshold -1e-10)\n"
        "verdict: PASS\n",
    "4":
        "keyBins = 2, cutoff = 4 (reduction exact over photon-number sectors 0..12)\n"
        "detection dim = 625, wire dim = 210 (conjugated checks on wire sectors 0..4)\n"
        "max ||[G_i, G_j]||_F           = 0.000e+00   (zero threshold 1e-12)\n"
        "max |G^2 - G|                  = 0.000e+00\n"
        "max |G_i G_j| (i != j)         = 0.000e+00\n"
        "|sum G - I|                    = 0.000e+00\n"
        "max ||[U*G_iU, U*G_jU]||_F     = 2.192e-16   (zero threshold 1e-10)\n"
        "||[E2, E3]||_F closed form     = 0.154605603393748\n"
        "||[E2, E3]||_F silent boundary = 0.154605603393748   (floor 0.1546)\n"
        "||[E2, E3]||_F complete POVM   = 0.194350838602880   (floor 0.1546)\n"
        "|E2 closed - reduced|          = 2.220e-16   (threshold 1e-09)\n"
        "|E3 closed - reduced|          = 2.220e-16\n"
        "|sum E - I|                    = 4.219e-15   (threshold 1e-09)\n"
        "min eigenvalue over E_j        = -9.713e-17   (PSD threshold -1e-10)\n"
        "verdict: PASS\n",
}


@pytest.mark.parametrize("cutoff", sorted(PINNED_VERIFY_POVM))
def test_verify_povm_pinned_bytes(cutoff, capsys):
    code, out, _ = run(["verify-povm", "--cutoff", cutoff], capsys)
    assert code == 0
    assert out == PINNED_VERIFY_POVM[cutoff]


def test_verify_povm_pinned_json(capsys):
    # recorded with the text pins above
    code, out, _ = run(["verify-povm", "--cutoff", "3", "--json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "a652582a5d5e33037211e2df3dde44fe7155f77559d726401fd944bb37b86451"


# sha256 of verify-povm --cutoff N --json, recorded before each sector's
# rows were grouped by click pattern once
PINNED_VERIFY_POVM_JSON = {
    "4": "3a36afda13ced3789e7097a9fab6151e85875b00f78afc5f59221b1c3c408f6c",
    "5": "1f217b9530531e68c3eb3b454242e43c11c72a4fb6e9840e4f28004c7424cc39",
    "6": "79c9f72936a9000b73bc5bcc314ddf1fd7a1148c57d7dd9dfee14c32dfa3fef8",
}


@pytest.mark.parametrize("cutoff", sorted(PINNED_VERIFY_POVM_JSON))
def test_verify_povm_pinned_json_cutoffs_4_to_6(cutoff, capsys):
    code, out, _ = run(["verify-povm", "--cutoff", cutoff, "--json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        PINNED_VERIFY_POVM_JSON[cutoff]


def call(argv, capsys):
    """(status, stdout, stderr) of one `main` call, a usage error's
    SystemExit included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _reads_as_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


#: verify-povm arguments it must refuse: cutoffs outside 3..15 (the ones
#: inside run for up to a minute), values int() does not read, and options
#: verify-povm does not have
BAD_VERIFY_POVM_ARGV = st.one_of(
    st.tuples(st.just("--cutoff"),
              st.one_of(st.integers(max_value=2), st.integers(min_value=16),
                        st.floats()).map(str)),
    st.tuples(st.just("--cutoff"),
              st.text().filter(lambda t: not _reads_as_int(t))),
    st.tuples(st.sampled_from(["--bins", "--bins=2", "--bins=3", "--seed",
                               "--key-bins", "--format", "-b", "-x"]),
              st.sampled_from(["2", "3", "x"]),
              st.sampled_from([[], ["--cutoff", "3"]])).map(
        lambda t: (t[0], t[1], *t[2])),
)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=BAD_VERIFY_POVM_ARGV, json_flag=st.booleans())
def test_verify_povm_refuses_bad_argv_in_one_line(argv, json_flag, capsys):
    # one `error:` line from the work's refusal, or argparse's usage line
    # and its error; never a traceback, never a report
    code, out, err = call(["verify-povm", *argv,
                           *(["--json"] if json_flag else [])], capsys)
    assert code == 2 and out == "" and "Traceback" not in err
    if err.startswith("usage: dps-qkd"):
        assert ": error: " in err.splitlines()[-1]
    else:
        assert err.startswith("error: ") and err.count("\n") == 1


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys,
                                                   monkeypatch):
    # the parser that the first call builds gives every later call, errors
    # included, the status and bytes that a parser of its own gives
    calls = [["simulate", "--bins", "1000", "--seed", "3"],
             ["verify-povm"],
             ["eb-compare", "--key-bins", "3", "--trials", "1000",
              "--seed", "1"],
             ["witness-demo", "--resolution", "coarse"],
             ["verify-povm", "--cutoff", "three"],
             ["verify-povm", "--output", str(tmp_path / "missing" / "x")],
             ["verify-povm"]]
    shared = [call(argv, capsys) for argv in calls]
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(call(argv, capsys))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 2, 2, 0]
    assert "invalid int value: 'three'" in shared[4][2]
    assert shared[5][2].startswith("error: cannot write --output")
    assert shared[6] == shared[1]


def test_eb_compare_exit_codes(capsys):
    code, out, _ = run(["eb-compare", "--key-bins", "3", "--alpha2", "0.2"],
                       capsys)
    assert code == 0
    assert "analyticDistance" in out
    code2, _, _ = run(["eb-compare", "--eb-delay-defect", "0.4"], capsys)
    assert code2 == 1


def test_eb_compare_trials_column(capsys):
    code, out, _ = run(["eb-compare", "--trials", "5000", "--seed", "1"],
                       capsys)
    assert code == 0
    assert "empiricalDistance" in out and "sigma" in out


def test_witness_demo_default(capsys):
    code, out, _ = run(["witness-demo"], capsys)
    assert code == 0
    assert "witness found" in out
    assert "none at this resolution" in out   # the commuting family part


def test_witness_demo_separable_target(capsys):
    code, out, _ = run(["witness-demo", "--target", "separable"], capsys)
    assert code == 0
    assert out.count("none at this resolution") == 2


def test_witness_demo_coarse(capsys):
    code, out, _ = run(["witness-demo", "--resolution", "coarse"], capsys)
    assert code == 0


def test_witness_demo_separable_target_fails_on_any_found_witness(
        capsys, monkeypatch):
    # a certified witness negative on I/4 contradicts its own certificate,
    # so the conjugate-bases family reporting one fails the demo as well
    fam = witness.bb84_effect_family()
    bell_hit = witness.witness_search(fam, fam, witness.bell_state_density())
    assert bell_hit.found

    def search(alice, bob, target, resolution):
        if witness.commutation_table(alice).max() > 0.0:
            return bell_hit
        return witness.witness_search(alice, bob, target,
                                      resolution=resolution)

    monkeypatch.setattr("dpsqkd.cli.witness_search", search)
    code, out, _ = run(["witness-demo", "--target", "separable"], capsys)
    assert code == 1
    assert out.count("witness found") == 1
    assert out.count("none at this resolution") == 1


# stdout bytes recorded before the sessions and the EB check shared one
# click kernel; a moved RNG draw changes them
PINNED_SIMULATE = {
    ("--alpha2", "0.2", "--bins", "50000", "--seed", "17",
     "--eve-fraction", "0.2", "--dark-click-prob", "0.0001"):
        "1,50000,0.2,0.0,1.0,0.0001,0.2,17,8996,0,8996,0.17992,1573,"
        "0.17485549132947978\n",
    ("--alpha2", "0.5", "--bins", "200000", "--seed", "3",
     "--eve-fraction", "1.0", "--efficiency", "0.9", "--phi2", "0.7",
     "--repeat", "3"):
        "1,200000,0.5,0.7,0.9,0.0,1.0,3,72419,0,72419,0.362095,22172,"
        "0.30616274734530996\n"
        "1,200000,0.5,0.7,0.9,0.0,1.0,4,72718,0,72718,0.36359,21924,"
        "0.3014934404136527\n"
        "1,200000,0.5,0.7,0.9,0.0,1.0,5,72118,0,72118,0.36059,22009,"
        "0.3051803987908705\n",
    # honest sessions recorded while every pulse train was complex128: two
    # on real trains (phi2 = 0), one on the complex route (phi2 = 0.7)
    ("--eve-fraction", "0", "--alpha2", "0.1", "--efficiency", "0.9",
     "--dark-click-prob", "0.0001", "--bins", "200000", "--seed", "5"):
        "1,200000,0.1,0.0,0.9,0.0001,0.0,5,17102,1,17102,0.08551,13,"
        "0.0007601450122792655\n",
    ("--eve-fraction", "0", "--alpha2", "0.5", "--bins", "200000",
     "--seed", "6"):
        "1,200000,0.5,0.0,1.0,0.0,0.0,6,78818,0,78818,0.39409,0,0.0\n",
    ("--eve-fraction", "0", "--phi2", "0.7", "--alpha2", "0.2",
     "--bins", "200000", "--seed", "7"):
        "1,200000,0.2,0.7,1.0,0.0,0.0,7,36075,0,36075,0.180375,0,0.0\n",
}

# recorded while every session stage ran over whole arrays: a short last
# chunk with partial tapping, dark clicks and Alice's 100004 bits leaving a
# buffered 32-bit half-word; and a session of the benchmark's size
PINNED_SIMULATE_WHOLE_ARRAY = {
    ("--bins", "100003", "--alpha2", "0.5", "--eve-fraction", "0.3",
     "--dark-click-prob", "0.01", "--seed", "11"):
        "1,100003,0.5,0.0,1.0,0.01,0.3,11,40190,410,40190,"
        "0.40188794336169914,9976,0.24822095048519532\n",
    ("--bins", "1000000", "--alpha2", "0.2", "--efficiency", "0.9",
     "--dark-click-prob", "0.0001", "--seed", "13"):
        "1,1000000,0.2,0.0,0.9,0.0001,0.0,13,164915,18,164915,0.164915,90,"
        "0.0005457356820180092\n",
}

# recorded while sessions still propagated and detected every key bin, before
# they read their click probabilities from a table of pulse pairs: a train of
# signed zeros (alphaSquared 0), and the warning path with a complex table,
# Eve's three-symbol alphabet and a short last chunk
PINNED_SIMULATE_PER_BIN = {
    ("--alpha2", "0", "--bins", "100003", "--dark-click-prob", "0.05",
     "--eve-fraction", "0.4", "--seed", "9"):
        "1,100003,0.0,0.0,1.0,0.05,0.4,9,9631,251,9631,0.0963071107866764,"
        "4839,0.502440037379296\n",
    ("--alpha2", "0", "--bins", "1000", "--seed", "9"):
        "1,1000,0.0,0.0,1.0,0.0,0.0,9,0,0,0,0.0,0,\n",
    ("--alpha2", "1.5", "--eve-fraction", "0.5", "--phi2", "0.3",
     "--dark-click-prob", "0.01", "--bins", "100003"):
        "1,100003,1.5,0.3,1.0,0.01,0.5,0,77221,785,77221,0.7721868343949682,"
        "21204,0.2745885186672019\n",
}


@pytest.mark.parametrize("argv", sorted(PINNED_SIMULATE)
                         + sorted(PINNED_SIMULATE_WHOLE_ARRAY)
                         + sorted(PINNED_SIMULATE_PER_BIN))
def test_simulate_pinned_bytes(argv, capsys):
    code, out, _ = run(["simulate", *argv], capsys)
    assert code == 0
    header = ",".join(("schema_version", "bins", "alphaSquared", "phi2",
                       "efficiency", "darkClickProb", "eveFraction", "seed",
                       "clicks", "doubleClicks", "siftedLength", "siftedRate",
                       "errors", "qber"))
    assert out == header + "\n" + {**PINNED_SIMULATE,
                                    **PINNED_SIMULATE_WHOLE_ARRAY,
                                    **PINNED_SIMULATE_PER_BIN}[argv]


def test_eb_compare_pinned_monte_carlo_lines(capsys):
    code, out, _ = run(["eb-compare", "--key-bins", "4", "--alpha2", "0.2",
                        "--trials", "100000", "--seed", "5"], capsys)
    assert code == 0
    assert out.splitlines()[3:] == [
        "empiricalDistance = 0.008909999999999996",
        "trials = 100000",
        "sigma = 0.00223606797749979  (bounded-differences scale)"]


# full eb-compare stdout recorded while each Monte Carlo trial still
# propagated its own pulse train; (argv, exit status) -> stdout.  phi2 is
# compensated on the output paths, which ideal bucket detectors cannot
# see, so the phi2 0.7 run prints the key-bins 3 run's bytes
_SIGMA_20K = "sigma = 0.005  (bounded-differences scale)\n"
PINNED_EB_COMPARE = {
    (("--key-bins", "1", "--trials", "20000", "--seed", "11"), 0):
        "keyBins = 1\nalphaSquared = 0.19999999999999998\n"
        "analyticDistance = 7.66053886991358e-15\n"
        "empiricalDistance = 0.0030999999999999986\ntrials = 20000\n"
        + _SIGMA_20K,
    (("--key-bins", "3", "--trials", "20000", "--seed", "11"), 0):
        "keyBins = 3\nalphaSquared = 0.19999999999999998\n"
        "analyticDistance = 1.5379190976272383e-14\n"
        "empiricalDistance = 0.01440000000000003\ntrials = 20000\n"
        + _SIGMA_20K,
    (("--key-bins", "5", "--trials", "20000", "--seed", "11"), 0):
        "keyBins = 5\nalphaSquared = 0.19999999999999998\n"
        "analyticDistance = 1.7420418406410842e-14\n"
        "empiricalDistance = 0.033350000000000025\ntrials = 20000\n"
        + _SIGMA_20K,
    (("--phi2", "0.7", "--trials", "20000", "--seed", "11"), 0):
        "keyBins = 3\nalphaSquared = 0.19999999999999998\n"
        "analyticDistance = 1.5379190976272383e-14\n"
        "empiricalDistance = 0.01440000000000003\ntrials = 20000\n"
        + _SIGMA_20K,
    (("--alpha2", "0.5", "--trials", "20000", "--seed", "11"), 0):
        "keyBins = 3\nalphaSquared = 0.5000000000000001\n"
        "analyticDistance = 1.4176144286226489e-10\n"
        "empiricalDistance = 0.018999999999999996\ntrials = 20000\n"
        + _SIGMA_20K,
    (("--eb-delay-defect", "0.4", "--trials", "20000"), 1):
        "keyBins = 3\nalphaSquared = 0.19999999999999998\n"
        "analyticDistance = 0.0041171470190490625\n"
        "empiricalDistance = 0.01729999999999995\ntrials = 20000\n"
        + _SIGMA_20K,
}


# recorded while the Monte Carlo still drew every flow's (trials, N+1)
# arrays in one piece: 10^6 trials span many chunks of trial rows, and
# 200001 trials give an odd trials x (N+1) and a short last chunk
PINNED_EB_COMPARE_MULTI_CHUNK = {
    (("--key-bins", "4", "--alpha2", "0.2", "--trials", "1000000",
      "--seed", "7"), 0):
        "keyBins = 4\nalphaSquared = 0.19999999999999998\n"
        "analyticDistance = 1.713267114983319e-14\n"
        "empiricalDistance = 0.0025689999999999728\ntrials = 1000000\n"
        "sigma = 0.0007071067811865475  (bounded-differences scale)\n",
    (("--key-bins", "4", "--trials", "200001", "--seed", "3",
      "--eb-delay-defect", "0.4"), 1):
        "keyBins = 4\nalphaSquared = 0.19999999999999998\n"
        "analyticDistance = 0.0054857590398434694\n"
        "empiricalDistance = 0.010044949775251132\ntrials = 200001\n"
        "sigma = 0.0015811348772519376  (bounded-differences scale)\n",
}


@pytest.mark.parametrize("argv, status", sorted(PINNED_EB_COMPARE)
                         + list(PINNED_EB_COMPARE_MULTI_CHUNK))
def test_eb_compare_pinned_bytes(argv, status, capsys, monkeypatch):
    monkeypatch.delenv("DPSQKD_SEED", raising=False)
    code, out, _ = run(["eb-compare", *argv], capsys)
    assert code == status
    assert out == {**PINNED_EB_COMPARE,
                   **PINNED_EB_COMPARE_MULTI_CHUNK}[argv, status]


@pytest.mark.parametrize("argv, env_seed, needle", [
    (["--seed", "-1"], None, "seed"),
    ([], "-1", "seed"),
    (["--alpha2", "nan"], None, "alphaSquared"),
    (["--phi2", "nan"], None, "finite"),
    (["--repeat", "0"], None, "repeat"),
    (["--repeat", "-3"], None, "repeat"),
    ([], "abc", "DPSQKD_SEED"),
    ([], " ", "DPSQKD_SEED"),
    ([], "1.5", "DPSQKD_SEED"),
    ([], "-1", "DPSQKD_SEED"),
])
def test_simulate_bad_input_exits_2(argv, env_seed, needle, capsys,
                                    monkeypatch):
    if env_seed is not None:
        monkeypatch.setenv("DPSQKD_SEED", env_seed)
    code, out, err = run(["simulate", "--bins", "100", *argv], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err


#: each subcommand's work, which an unwritable --output must pre-empt
_CLI_WORK = ("run_session", "certify_noncommutativity", "compare_statistics",
             "witness_search")


@pytest.mark.parametrize("command", [["simulate", "--bins", "10"],
                                     ["verify-povm", "--cutoff", "15"],
                                     ["eb-compare"], ["witness-demo"]])
@pytest.mark.parametrize("target, needle", [
    ("missing/x.csv", "No such file or directory"),
    (".", "Is a directory")])
def test_unwritable_output_exits_2_before_the_work(command, target, needle,
                                                   tmp_path, capsys,
                                                   monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the work started")

    for name in _CLI_WORK:
        monkeypatch.setattr(f"dpsqkd.cli.{name}", no_work)
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run([*command, "--output", str(tmp_path / target)],
                         capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--output" in err and needle in err
    assert sorted(tmp_path.rglob("*")) == before


def test_output_probe_leaves_no_file_on_bad_input(tmp_path, capsys):
    # the probe's file goes again when the input is then refused
    target = tmp_path / "report.txt"
    code, _, err = run(["verify-povm", "--cutoff", "2", "--output",
                        str(target)], capsys)
    assert code == 2 and err.startswith("error: ")
    assert not target.exists()
    target.write_text("kept\n")
    code, _, _ = run(["eb-compare", "--trials", "-5", "--output",
                      str(target)], capsys)
    assert code == 2 and target.read_text() == "kept\n"


@pytest.mark.parametrize("command", [["simulate", "--bins", "10"],
                                     ["verify-povm"], ["eb-compare"],
                                     ["witness-demo", "--resolution",
                                      "coarse"]])
def test_output_error_after_the_work_exits_2(command, capsys, monkeypatch):
    # main turns an error after the work, too, into one line and status 2
    def full_disk(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("dpsqkd.cli._emit", full_disk)
    code, out, err = run(command, capsys)
    assert code == 2 and out == ""
    assert err == "error: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("argv, needle", [
    (["--alpha2", "-1"], "alphaSquared"),
    (["--alpha2", "nan"], "alphaSquared"),
    (["--phi2", "nan"], "finite"),
    (["--trials", "-5"], "trials"),
    (["--key-bins", "12", "--trials", "0"], "exceeds"),
    (["--key-bins", "3", "--trials", "100000000"], "exceeds"),
    (["--cutoff", "1000000000"], "exceeds"),
    (["--eb-delay-defect", "nan"], "finite"),
    # truncation artefacts: the cutoff leaves out enough of the Poisson
    # tail to fail the 1e-8 gate with no physical difference
    (["--key-bins", "2", "--alpha2", "1"], "cutoff 12 is the smallest"),
    (["--key-bins", "2", "--cutoff", "3"], "cutoff 7 is the smallest"),
    (["--alpha2", "1e300"], "no cutoff within the size bound"),
    (["--cutoff", "0"], "cutoff must be >= 1"),
    (["--cutoff", "-3"], "cutoff must be >= 1"),
    (["--alpha2", "0", "--cutoff", "0"], "cutoff must be >= 1"),
])
def test_eb_compare_bad_input_exits_2(argv, needle, capsys, monkeypatch):
    monkeypatch.delenv("DPSQKD_SEED", raising=False)
    t0 = time.perf_counter()
    code, out, err = run(["eb-compare", *argv], capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err


@pytest.mark.parametrize("env_seed", ["abc", " ", "1.5", "-1"])
def test_eb_compare_bad_env_seed_exits_2(env_seed, capsys, monkeypatch):
    monkeypatch.setenv("DPSQKD_SEED", env_seed)
    code, out, err = run(["eb-compare"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "DPSQKD_SEED" in err


# full witness-demo stdout recorded while the search still ran one scalar
# separable-minimum estimate per candidate, and accepted on that estimate;
# argv -> stdout (exit 0 for all)
_COMMUTING_DEFAULT = (
    "== commuting projective family\n"
    "completeness defect = 0.000e+00\n"
    "max pairwise commutator norm = 0.000000\n"
    "search: resolution=default values=(1.0, -1.0, 0.5, -0.5) max_terms=3 "
    "tried=368\n"
    "witness: none at this resolution\n\n")
_NONCOMMUTING_HEAD = (
    "== non-commuting (conjugate bases) family\n"
    "completeness defect = 0.000e+00\n"
    "max pairwise commutator norm = 0.176777\n")
_FOUND_COEFFICIENTS = (
    "witness found:\n"
    "  coefficients =\n"
    "    -1.5000 +2.5000 +0.5000 +0.5000\n"
    "    +2.5000 -1.5000 +0.5000 +0.5000\n"
    "    +0.5000 +0.5000 -1.5000 +2.5000\n"
    "    +0.5000 +0.5000 +2.5000 -1.5000\n")
_BELL_TRACE = "  Tr(W rho_target) = -0.500000\n"
# the one line that changed on purpose: it printed the grid estimate
# (2.776e-17 default, -2.776e-17 coarse, 0.000e+00 fine) and now prints the
# bound the decomposition certificate proves, with its identity shift
_CERTIFIED_MIN = ("  separable min >= 0.000e+00 (certified: W = P + Q^TB, "
                  "P, Q >= 0; shift eps = 9.0e-11)\n")
PINNED_WITNESS_DEMO = {
    (): _COMMUTING_DEFAULT + _NONCOMMUTING_HEAD
        + "search: resolution=default values=(1.0, -1.0, 0.5, -0.5) "
          "max_terms=3 tried=506\n"
        + _FOUND_COEFFICIENTS
        + _CERTIFIED_MIN + _BELL_TRACE,
    ("--resolution", "coarse"):
        "== commuting projective family\n"
        "completeness defect = 0.000e+00\n"
        "max pairwise commutator norm = 0.000000\n"
        "search: resolution=coarse values=(1.0, -1.0) max_terms=2 tried=32\n"
        "witness: none at this resolution\n"
        "  warning: no witness at coarse resolution; this is not evidence "
        "of absence for non-commuting families\n\n"
        + _NONCOMMUTING_HEAD
        + "search: resolution=coarse values=(1.0, -1.0) max_terms=2 "
          "tried=138\n"
        + _FOUND_COEFFICIENTS
        + _CERTIFIED_MIN + _BELL_TRACE,
    ("--resolution", "fine"):
        "== commuting projective family\n"
        "completeness defect = 0.000e+00\n"
        "max pairwise commutator norm = 0.000000\n"
        "search: resolution=fine values=(1.0, -1.0, 0.5, -0.5, 0.25, -0.25) "
        "max_terms=3 tried=1104\n"
        "witness: none at this resolution\n\n"
        + _NONCOMMUTING_HEAD
        + "search: resolution=fine values=(1.0, -1.0, 0.5, -0.5, 0.25, "
          "-0.25) max_terms=3 tried=1106\n"
        + _FOUND_COEFFICIENTS
        + _CERTIFIED_MIN + _BELL_TRACE,
    ("--target", "separable"): _COMMUTING_DEFAULT + _NONCOMMUTING_HEAD
        + "search: resolution=default values=(1.0, -1.0, 0.5, -0.5) "
          "max_terms=3 tried=5988\n"
        "witness: none at this resolution\n",
}


@pytest.mark.parametrize("argv", sorted(PINNED_WITNESS_DEMO))
def test_witness_demo_pinned_bytes(argv, capsys):
    code, out, _ = run(["witness-demo", *argv], capsys)
    assert code == 0
    assert out == PINNED_WITNESS_DEMO[argv]


@pytest.mark.slow
def test_verify_povm_cutoff_12_time_and_memory():
    # the largest cutoff documented as a desk run: a pass, under 20 s and
    # under 1 GB peak resident memory for the child process
    root = Path(__file__).resolve().parents[1]
    path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "dpsqkd", "verify-povm",
                           "--cutoff", "12", "--json"], env=env,
                          capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True
    assert elapsed < 20.0, f"{elapsed:.1f} s"
    assert peak_kb < 1024 ** 2, f"{peak_kb / 1024:.0f} MB"
