"""Benchmark workloads: seeded inputs and the output check of every operation.

An operation is one ``dpsqkd.cli.main(argv)`` call, or for ``eb_witness`` the
pair ``eb-compare`` + ``witness-demo``.  Operations come in rounds that
cover a fixed mix of parameters; runs execute whole rounds only, so every
run of a workload sees the same mix whatever its length and seed.  The
seed sets the order within each round and the seeds the CLI receives.

Nothing here imports dpsqkd: inputs are plain argv lists drawn with the
stdlib generator, and checks read only what the CLI printed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

WORKLOADS = ("sessions", "certify", "eb_witness")

SESSION_BINS = 10 ** 6
HONEST_ALPHA2 = (0.1, 0.2, 0.5)
HONEST_EFFICIENCY = (0.9, 1.0)
HONEST_DARK = (0.0, 1e-4)
EB_KEY_BINS = (3, 4)
EB_ALPHA2 = (0.1, 0.2, 0.5)
EB_TRIALS = 10 ** 6

#: frozen values of ||[E2, E3]||_F at cutoff 3 (silent-boundary and
#: complete-POVM reductions), from the package's pre-build dense oracles
COMM_SILENT_C3 = 0.154605219372170
COMM_MARGINAL_C3 = 0.193111115979741
COMM_TOL = 1e-9

#: statistical checks accept results within this many standard deviations
SIGMAS = 5.0

#: rounds prepared for one run; a run stops early if it ever uses them all
MAX_ROUNDS = 500


@dataclass(frozen=True)
class Op:
    """One operation: its kind, the CLI calls it makes, and what the check
    needs to know about the inputs."""

    kind: str
    calls: tuple
    params: dict


def round_length(workload: str) -> int:
    """Operations per round."""
    return {"sessions": 16, "certify": 1, "eb_witness": 6}[workload]


def make_ops(workload: str, seed: int, n_rounds: int) -> list:
    """The first `n_rounds` rounds of `workload`'s operations for `seed`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    ops = []
    for _ in range(n_rounds):
        if workload == "sessions":
            ops += _session_round(rng)
        elif workload == "certify":
            ops.append(Op("certify", (("verify-povm", "--cutoff", "3",
                                       "--json"),), {}))
        else:
            ops += _eb_witness_round(rng)
    return ops


def _session_round(rng: random.Random) -> list:
    """Twelve honest sessions, one per (mu, eta, dark-click) combination,
    and four attacked ones, one at each mu plus a seeded fourth, in seeded
    order.  Dark clicks cost extra draws, so a fixed mix keeps the median
    from depending on how many sessions drew them."""
    params = [{"alpha2": mu, "efficiency": eta, "dark_click_prob": d,
               "eve_fraction": 0.0}
              for mu in HONEST_ALPHA2 for eta in HONEST_EFFICIENCY
              for d in HONEST_DARK]
    params += [{"alpha2": mu, "efficiency": 1.0, "dark_click_prob": 0.0,
                "eve_fraction": 1.0}
               for mu in HONEST_ALPHA2 + (rng.choice(HONEST_ALPHA2),)]
    rng.shuffle(params)
    ops = []
    for p in params:
        p["bins"] = SESSION_BINS
        p["seed"] = rng.randrange(2 ** 31)
        argv = ("simulate", "--bins", str(p["bins"]),
                "--alpha2", repr(p["alpha2"]),
                "--efficiency", repr(p["efficiency"]),
                "--dark-click-prob", repr(p["dark_click_prob"]),
                "--eve-fraction", repr(p["eve_fraction"]),
                "--seed", str(p["seed"]))
        kind = "attacked" if p["eve_fraction"] else "honest"
        ops.append(Op(kind, (argv,), p))
    return ops


def _eb_witness_round(rng: random.Random) -> list:
    """One operation per (K, A) combination, in seeded order."""
    combos = [(k, a) for k in EB_KEY_BINS for a in EB_ALPHA2]
    rng.shuffle(combos)
    ops = []
    for key_bins, alpha2 in combos:
        p = {"key_bins": key_bins, "alpha2": alpha2, "trials": EB_TRIALS,
             "seed": rng.randrange(2 ** 31)}
        eb = ("eb-compare", "--key-bins", str(key_bins),
              "--alpha2", repr(alpha2), "--trials", str(EB_TRIALS),
              "--seed", str(p["seed"]))
        ops.append(Op("eb_witness", (eb, ("witness-demo",)), p))
    return ops


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is right, else the reason


def check(op: Op, results) -> str | None:
    """Check the ``(exit_status, stdout)`` of each of `op`'s calls."""
    for (status, _), argv in zip(results, op.calls):
        if status != 0:
            return f"{argv[0]} exited with status {status}"
    try:
        if op.kind in ("honest", "attacked"):
            return _check_session(op, results[0][1])
        if op.kind == "certify":
            return _check_certify(results[0][1])
        return _check_eb_witness(op, results[0][1], results[1][1])
    except (ValueError, KeyError, IndexError, TypeError,
            ZeroDivisionError) as exc:
        return f"unparseable output: {exc!r}"


def _check_session(op: Op, out: str) -> str | None:
    lines = out.strip().splitlines()
    if len(lines) != 2:
        raise ValueError(f"expected header and one row, got {len(lines)} lines")
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    p = op.params
    echoed = {"bins": int(row["bins"]), "alpha2": float(row["alphaSquared"]),
              "efficiency": float(row["efficiency"]),
              "dark_click_prob": float(row["darkClickProb"]),
              "eve_fraction": float(row["eveFraction"]),
              "seed": int(row["seed"])}
    for key, value in echoed.items():
        if value != p[key]:
            return f"row echoes {key}={value}, requested {p[key]}"
    n, sifted = p["bins"], int(row["siftedLength"])
    if op.kind == "attacked":
        # full intercept-resend with ideal detectors: QBER = e^{-mu} / 2
        expect = 0.5 * math.exp(-p["alpha2"])
        qber = float(row["qber"])
        sigma = math.sqrt(expect * (1.0 - expect) / sifted)
        if abs(qber - expect) > SIGMAS * sigma:
            return (f"qber {qber:.6f} off the intercept-resend law "
                    f"{expect:.6f} by more than {SIGMAS:g} sigma ({sigma:.2e})")
        return None
    d = p["dark_click_prob"]
    q1 = 1.0 - math.exp(-p["efficiency"] * p["alpha2"]) * (1.0 - d)
    expect = q1 * (1.0 - d) + (1.0 - q1) * d
    rate = sifted / n
    sigma = math.sqrt(expect * (1.0 - expect) / n)
    if abs(rate - expect) > SIGMAS * sigma:
        return (f"sifted rate {rate:.6f} off the single-click rate "
                f"{expect:.6f} by more than {SIGMAS:g} sigma ({sigma:.2e})")
    if d == 0.0 and int(row["errors"]) != 0:
        return f"{row['errors']} errors without dark clicks"
    return None


def _check_certify(out: str) -> str | None:
    report = json.loads(out)
    if report["passed"] is not True:
        return "certification did not pass"
    for key, frozen in (("e2e3_comm_norm_reduced", COMM_SILENT_C3),
                        ("e2e3_comm_norm_marginal", COMM_MARGINAL_C3)):
        if abs(report[key] - frozen) > COMM_TOL:
            return f"{key} = {report[key]!r}, frozen {frozen!r}"
    return None


def _check_eb_witness(op: Op, eb_out: str, witness_out: str) -> str | None:
    # the exit statuses already carry the analytic TV gate and the witness
    # found / not-found predictions; here the report must echo its inputs
    for line in (f"keyBins = {op.params['key_bins']}",
                 f"trials = {op.params['trials']}"):
        if line not in eb_out.splitlines():
            return f"eb-compare report lacks {line!r}"
    if "witness found:" not in witness_out:
        return "witness-demo reports no witness"
    return None
