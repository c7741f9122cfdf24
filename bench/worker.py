"""One workload process of the benchmark; ``run.py`` starts it.

Usage: ``python3 bench/worker.py MODE WORKLOAD SEED SECONDS T0`` with MODE
one of ``setup`` (import and generate inputs, then stop), ``plain`` (the
untraced timed loop) or ``traced`` (the same loop with every layer
wrapped).  T0 is the parent's ``time.monotonic()`` just before it started
this process; the monotonic clock is system-wide, so ``now - T0`` at the
end of set-up is the set-up time of a fresh interpreter.  The last line
printed is a JSON object.

The loop is closed with one client: an operation starts when the previous
one has been checked, and new rounds start until SECONDS have passed.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _call(main, argv):
    """``(exit status, stdout)`` of one CLI call; an exception is a failed
    call with status None."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            status = main(list(argv))
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:     # the operation failed; the run goes on
        print(f"operation raised {exc!r}", file=sys.stderr)
        status = None
    return status, buf.getvalue()


def main(argv) -> int:
    mode, workload, seed, seconds, t0 = argv
    seed, seconds, t0 = int(seed), float(seconds), float(t0)

    t_import = time.perf_counter()
    import dpsqkd.cli
    import_s = time.perf_counter() - t_import
    import workloads
    ops = workloads.make_ops(workload, seed, workloads.MAX_ROUNDS)
    setup_s = time.monotonic() - t0

    import hashlib
    import json
    import resource
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if Path(dpsqkd.cli.__file__).resolve().parent != ROOT / "src" / "dpsqkd":
        print(f"dpsqkd imported from {dpsqkd.cli.__file__}, not {ROOT}/src",
              file=sys.stderr)
        return 1

    tracer = None
    cli_main = dpsqkd.cli.main
    if mode == "traced":
        import spans
        tracer = spans.Tracer()
        tracer.instrument()
        untraced_main = cli_main

        def cli_main(argv):
            return tracer.call(spans.OP_SPAN, untraced_main, (argv,), {})

    per_round = workloads.round_length(workload)
    records = []
    bins = 0
    start = time.perf_counter()
    deadline = start + seconds
    for i, op in enumerate(ops):
        if i % per_round == 0 and i and time.perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.op = i
        results = []
        op_s = 0.0
        for call in op.calls:
            t = time.perf_counter()
            results.append(_call(cli_main, call))
            op_s += time.perf_counter() - t
        if tracer is not None:
            tracer.run_probes()
        reason = workloads.check(op, results)
        digest = hashlib.sha256()
        for status, out in results:
            digest.update(f"{status}\n{out}".encode())
        records.append({"op_s": op_s, "failure": reason,
                        "digest": digest.hexdigest()})
        bins += op.params.get("bins", 0)
    loop_s = time.perf_counter() - start

    result = {"setup_s": setup_s, "ops": records,
              "loop_s": loop_s, "bins": bins,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "environment": _environment()}
    if tracer is not None:
        tracer.restore()
        result["layers"] = tracer.layer_metrics(len(records), per_round,
                                                import_s)
    print(json.dumps(result))
    return 0


def _environment() -> dict:
    """Library versions and the BLAS thread count of this process."""
    import platform
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": _blas_threads(numpy)}


def _blas_threads(numpy):
    """Thread count of the OpenBLAS bundled with numpy, or None."""
    import ctypes
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
