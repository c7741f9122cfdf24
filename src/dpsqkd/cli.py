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
import contextlib
import dataclasses
import itertools
import math
import os
import sys

from .entangled import compare_statistics
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
    """The seed in DPSQKD_SEED, None when it is unset or empty; ValueError
    naming the variable for anything but a non-negative integer."""
    raw = os.environ.get("DPSQKD_SEED")
    if not raw:
        return None
    if not raw.strip().isdecimal():
        raise ValueError(f"DPSQKD_SEED must be a non-negative integer seed, "
                         f"got {raw!r}")
    return int(raw)


def _emit(parts, path, sep="\n"):
    """Write `parts`, joined by `sep`, and a newline to `path` or stdout,
    each part as soon as it is made."""
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        for k, part in enumerate(parts):
            fh.write(sep + part if k else part)
        fh.write("\n")


def cmd_simulate(args) -> int:
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

    # each session is rendered and written as it ends, and none is held
    sessions = (run_session(dataclasses.replace(config, seed=config.seed + k))
                for k in range(args.repeat))
    if args.format == "csv":
        rows = map(SessionStats.csv_row, sessions)
        _emit(itertools.chain([SessionStats.csv_header()], rows), args.output)
    else:
        _emit(map(SessionStats.to_text, sessions), args.output, sep="\n\n")
    return EXIT_OK


def cmd_verify_povm(args) -> int:
    report = certify_noncommutativity(args.cutoff)
    _emit([report.to_json() if args.json else report.to_text()], args.output)
    return EXIT_OK if report.passed else EXIT_FAILED_CHECK


def cmd_eb_compare(args) -> int:
    seed = args.seed if args.seed is not None else (_env_seed() or 0)
    if not 0.0 <= args.alpha2 < math.inf:
        raise ValueError(f"alphaSquared must be finite and >= 0, "
                         f"got {args.alpha2}")
    config = InterferometerConfig.compensated(phi2=args.phi2)
    report = compare_statistics(args.key_bins, args.alpha2 ** 0.5,
                                trials=args.trials, cutoff=args.cutoff,
                                seed=seed, config=config,
                                eb_delay_defect=args.eb_delay_defect)
    _emit([report.to_text()], args.output)
    return EXIT_OK if report.passed else EXIT_FAILED_CHECK


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
        if expect_found and not result.found and args.resolution == "coarse":
            lines.append("  (expected at default resolution; coarse "
                         "search is allowed to miss it)")
        elif result.found != expect_found:
            # a witness found contradicts the positivity theorem (commuting
            # family) or its own certificate (negative on the separable I/4)
            ok = False
        lines.append("")
    _emit(["\n".join(lines).rstrip()], args.output)
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
    ver.add_argument("--json", action="store_true", help="structured output")
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


#: the parser, built by the first `main` call of a process; parsing leaves
#: it unchanged, so one serves every call
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    if args.output:        # probed before any work, which may take minutes
        existed = os.path.lexists(args.output)
        try:
            open(args.output, "a").close()      # appends nothing
        except OSError as exc:
            print(f"error: cannot write --output {args.output}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
        if not existed:                         # the probe made it
            os.remove(args.output)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
