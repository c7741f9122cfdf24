"""Command-line front end.

One executable, four subcommands: ``simulate`` (Monte Carlo sessions),
``verify-povm`` (the commutation certification), ``eb-compare``
(statistical equivalence of the two preparations) and ``witness-demo``
(the appendix-theorem demonstrations).  Exit status encodes the outcome:
0 = success / certified, 1 = a certified claim failed, 2 = bad usage or
config.  The master seed comes from ``--seed`` or the DPSQKD_SEED
environment variable; every subcommand is deterministic under a fixed
(config, seed).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from .entangled import ANALYTIC_DISTANCE_GATE, compare_statistics
from .optics import InterferometerConfig
from .povm import certify_noncommutativity
from .protocol import SessionConfig, SessionStats, load_session_config, run_session
from .witness import (bb84_effect_family, bell_state_density,
                      commutation_table, family_completeness_defect,
                      qubit_projective_effects, witness_search)

import numpy as np

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_BAD_INPUT = 2


def _env_seed():
    raw = os.environ.get("DPSQKD_SEED")
    return int(raw) if raw else None


def _emit(text: str, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def cmd_simulate(args) -> int:
    try:
        base = load_session_config(args.config) if args.config else \
            SessionConfig(n_bins=0)
        overrides = {}
        if args.bins is not None:
            overrides["n_bins"] = args.bins
        elif not args.config:
            raise ValueError("missing required parameter: N (--bins)")
        for attr in ("alpha2", "phi2", "efficiency", "dark_click_prob",
                     "eve_fraction"):
            if getattr(args, attr) is not None:
                overrides[attr] = getattr(args, attr)
        seed = args.seed if args.seed is not None else _env_seed()
        if seed is not None:
            overrides["seed"] = seed
        config = dataclasses.replace(base, **overrides)
        if args.repeat < 1:
            raise ValueError(f"--repeat must be >= 1, got {args.repeat}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    rows = [run_session(dataclasses.replace(config, seed=config.seed + k))
            for k in range(args.repeat)]
    if args.format == "csv":
        out = "\n".join([SessionStats.csv_header()] + [s.csv_row() for s in rows])
    else:
        out = "\n\n".join(s.to_text() for s in rows)
    _emit(out, args.output)
    return EXIT_OK


def cmd_verify_povm(args) -> int:
    if args.cutoff < 3:
        print(f"error: cutoff too small: need cutoff >= 3, got {args.cutoff}",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        report = certify_noncommutativity(args.cutoff, n_bins=args.bins)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.json:
        import json
        payload = dataclasses.asdict(report)
        payload["conjugated_pairs"] = [
            {"pattern_i": str(pi), "pattern_j": str(pj), "norm": v}
            for pi, pj, v in report.conjugated_pairs]
        payload["passed"] = report.passed
        _emit(json.dumps(payload, indent=2), args.output)
    elif args.format == "csv":
        _emit(report.to_csv(), args.output)
    else:
        _emit(report.to_text(), args.output)
    return EXIT_OK if report.passed else EXIT_FAILED_CHECK


def cmd_eb_compare(args) -> int:
    try:
        seed = args.seed if args.seed is not None else (_env_seed() or 0)
        if not 0.0 <= args.alpha2 < math.inf:
            raise ValueError(f"alphaSquared must be finite and >= 0, "
                             f"got {args.alpha2}")
        config = InterferometerConfig.compensated(phi2=args.phi2)
        report = compare_statistics(args.key_bins, args.alpha2 ** 0.5,
                                    trials=args.trials, cutoff=args.cutoff,
                                    seed=seed, config=config,
                                    eb_delay_defect=args.eb_delay_defect)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    _emit(report.to_text(), args.output)
    return EXIT_OK if report.analytic_distance <= ANALYTIC_DISTANCE_GATE \
        else EXIT_FAILED_CHECK


def cmd_witness_demo(args) -> int:
    target = np.eye(4, dtype=complex) / 4.0 if args.target == "separable" \
        else bell_state_density()
    lines = []
    ok = True

    commuting = qubit_projective_effects()
    bb84 = bb84_effect_family()
    for name, family, expect_found in (
            ("commuting projective family", commuting, False),
            ("non-commuting (conjugate bases) family", bb84,
             args.target == "bell")):
        result = witness_search(family, family, target,
                                resolution=args.resolution)
        lines.append(f"== {name}")
        lines.append(f"completeness defect = "
                     f"{family_completeness_defect(family):.3e}")
        lines.append(f"max pairwise commutator norm = "
                     f"{commutation_table(family).max():.6f}")
        lines.append(f"search: resolution={result.resolution} "
                     f"values={result.coefficient_values} "
                     f"max_terms={result.max_terms} "
                     f"tried={result.candidates_tried}")
        if result.found:
            c = result.candidate
            lines.append("witness found:")
            lines.append("  coefficients =")
            for row in c.coefficients:
                lines.append("    " + " ".join(f"{v:+.4f}" for v in row))
            lines.append(f"  separable min >= {c.separable_min:.3e} (certified: "
                         f"W = P + Q^TB, P, Q >= 0; shift eps = {c.shift:.1e})")
            lines.append(f"  Tr(W rho_target) = {c.target_expectation:.6f}")
        else:
            lines.append("witness: none at this resolution")
            if result.warning:
                lines.append(f"  warning: {result.warning}")
        if expect_found and not result.found:
            if args.resolution == "coarse":
                lines.append("  (expected at default resolution; coarse "
                             "search is allowed to miss it)")
            else:
                ok = False
        if not expect_found and result.found and name.startswith("commuting"):
            ok = False  # would contradict the positivity theorem
        lines.append("")
    _emit("\n".join(lines).rstrip(), args.output)
    return EXIT_OK if ok else EXIT_FAILED_CHECK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dps-qkd",
        description="Differential-phase-shift QKD simulation and "
                    "measurement-structure certification")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run Monte Carlo sessions")
    sim.add_argument("--config", help="session config file (key = value lines)")
    sim.add_argument("--bins", type=int, help="number of key bins N")
    sim.add_argument("--alpha2", type=float, help="mean photon number per pulse")
    sim.add_argument("--phi2", type=float, help="second beam-splitter phase")
    sim.add_argument("--efficiency", type=float, help="detector efficiency")
    sim.add_argument("--dark-click-prob", type=float,
                     help="dark click probability per bin per detector")
    sim.add_argument("--eve-fraction", type=float,
                     help="intercept-resend tap probability per pulse")
    sim.add_argument("--seed", type=int, help="master seed (or DPSQKD_SEED)")
    sim.add_argument("--repeat", type=int, default=1,
                     help="run k sessions with seeds seed..seed+k-1")
    sim.add_argument("--format", choices=("csv", "text"), default="csv")
    sim.add_argument("--output", help="write the report here instead of stdout")
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser("verify-povm",
                         help="certify the commutation structure of Bob's effects")
    ver.add_argument("--cutoff", type=int, default=3)
    ver.add_argument("--bins", type=int, default=2, help="key bins N")
    ver.add_argument("--json", action="store_true", help="structured output")
    ver.add_argument("--format", choices=("text", "csv"), default="text")
    ver.add_argument("--output")
    ver.set_defaults(func=cmd_verify_povm)

    ebc = sub.add_parser("eb-compare",
                         help="compare P&M and EB click statistics")
    ebc.add_argument("--key-bins", type=int, default=3)
    ebc.add_argument("--alpha2", type=float, default=0.2)
    ebc.add_argument("--phi2", type=float, default=0.0)
    ebc.add_argument("--trials", type=int, default=0,
                     help="add an empirical Monte Carlo distance")
    ebc.add_argument("--cutoff", type=int, default=10)
    ebc.add_argument("--seed", type=int)
    ebc.add_argument("--eb-delay-defect", type=float, default=0.0,
                     help="test hook: inject an uncompensated delay phase "
                          "into the EB flow (breaks the equivalence on "
                          "purpose)")
    ebc.add_argument("--output")
    ebc.set_defaults(func=cmd_eb_compare)

    wit = sub.add_parser("witness-demo",
                         help="appendix-theorem demonstrations")
    wit.add_argument("--resolution", choices=("default", "coarse", "fine"),
                     default="default")
    wit.add_argument("--target", choices=("bell", "separable"), default="bell")
    wit.add_argument("--output")
    wit.set_defaults(func=cmd_witness_demo)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
