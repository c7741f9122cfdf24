"""Span tracer for the benchmark's traced run.

Each wrapped entry point is replaced at the module attribute its caller
looks up (``dpsqkd.protocol.detect``, which both ``run_session`` and
``intercept_resend`` call; ``dpsqkd.fock.commutator_norm``, which ``povm``
calls), records one span per call -- name, start, end, parent, operation
id -- and keeps it in memory until the run ends.  Wrappers pass arguments
and results through untouched, so a traced run prints the same bytes as
an untraced one.  An entry point that a later version of the package no
longer has is skipped and its metric reads 0.

A span's self time is its duration minus the time its child spans cover;
calls are nested on one thread, so that is the sum of the children's
durations.  Time metrics are per-operation means over the whole traced
run; counts cover the run's first round, which every run completes, so
they repeat exactly for a fixed seed.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

#: every per-layer metric, in report order: (name, unit, better)
LAYER_METRICS = (
    ("cli.self_s", "s", "lower"),
    ("import.dpsqkd_s", "s", "lower"),
    ("protocol.prepare_s", "s", "lower"),
    ("protocol.intercept_self_s", "s", "lower"),
    ("optics.propagate_analytic_s", "s", "lower"),
    ("protocol.detect_s", "s", "lower"),
    ("protocol.extract_s", "s", "lower"),
    ("protocol.sift_s", "s", "lower"),
    ("protocol.session_self_s", "s", "lower"),
    ("protocol.bins", "count", "higher"),
    ("protocol.sifted_bins", "count", "higher"),
    ("protocol.sift_ratio", "ratio", "higher"),
    ("protocol.double_clicks", "count", "lower"),
    ("protocol.pulses_tapped", "count", "higher"),
    ("protocol.eve_known_bins", "count", "higher"),
    ("protocol.eve_known_ratio", "ratio", "higher"),
    ("optics.fock_unitary_s", "s", "lower"),
    ("optics.evolve_batch_s", "s", "lower"),
    ("optics.evolve_states", "count", "lower"),
    ("optics.evolve_bytes", "bytes", "lower"),
    ("povm.projector_effects_s", "s", "lower"),
    ("povm.conjugated_commutator_s", "s", "lower"),
    ("povm.closed_forms_s", "s", "lower"),
    ("povm.certify_self_s", "s", "lower"),
    ("fock.commutator_norm_s", "s", "lower"),
    ("fock.coherent_amplitudes_s", "s", "lower"),
    ("entangled.build_eb_state_s", "s", "lower"),
    ("entangled.analytic_s", "s", "lower"),
    ("entangled.mc_s", "s", "lower"),
    ("entangled.mc_trials", "count", "higher"),
    ("witness.search_self_s", "s", "lower"),
    ("witness.separable_min_s", "s", "lower"),
    ("witness.separable_min_calls", "count", "lower"),
    ("witness.candidates_tried", "count", "lower"),
    ("witness.candidates_screened", "count", "lower"),
    ("witness.screen_ratio", "ratio", "lower"),
    ("trace_overhead", "ratio", "lower"),
)

#: span name -> metric that sums its self time
SELF_TIME = {
    "cli.main": "cli.self_s",
    "protocol.prepare": "protocol.prepare_s",
    "protocol.intercept_resend": "protocol.intercept_self_s",
    "optics.propagate_analytic": "optics.propagate_analytic_s",
    "protocol.detect": "protocol.detect_s",
    "protocol.extract": "protocol.extract_s",
    "protocol.sift": "protocol.sift_s",
    "protocol.run_session": "protocol.session_self_s",
    "optics.fock_unitary": "optics.fock_unitary_s",
    "optics.evolve_batch": "optics.evolve_batch_s",
    "povm.projector_effects": "povm.projector_effects_s",
    "povm.conjugated_commutator": "povm.conjugated_commutator_s",
    "povm.closed_forms": "povm.closed_forms_s",
    "povm.certify": "povm.certify_self_s",
    "fock.commutator_norm": "fock.commutator_norm_s",
    "fock.coherent_amplitudes": "fock.coherent_amplitudes_s",
    "entangled.build_eb_state": "entangled.build_eb_state_s",
    "witness.search": "witness.search_self_s",
    "witness.separable_min": "witness.separable_min_s",
}

OP_SPAN = "cli.main"
ANALYTIC_SPAN = "entangled.analytic"


# counters read the objects the wrapped calls return


def _session_counts(tracer, fn, args, kwargs, stats):
    tracer.count("protocol.bins", stats.n_bins)
    tracer.count("protocol.sifted_bins", stats.sifted_length)
    tracer.count("protocol.double_clicks", stats.double_clicks)


def _eve_counts(tracer, fn, args, kwargs, result):
    transcript = result[1]
    tracer.count("protocol.pulses_tapped", int(transcript.intercepted.sum()))
    tracer.count("protocol.eve_known_bins", int(transcript.known_bins.size))


def _evolve_counts(tracer, fn, args, kwargs, out):
    batch = args[0] if args else kwargs["batch"]
    tracer.count("optics.evolve_states", batch.shape[0])
    # computed from array sizes, not measured traffic
    tracer.count("optics.evolve_bytes", batch.nbytes + out.nbytes)


def _eb_counts(tracer, fn, args, kwargs, report):
    tracer.count("entangled.mc_trials", report.trials)
    # the analytic part alone: the same call without trials, run after the
    # operation so that it stays out of the operation's time
    tracer.probes.append((fn, args, {**kwargs, "trials": 0}))


def _search_counts(tracer, fn, args, kwargs, result):
    tracer.count("witness.candidates_tried", result.candidates_tried)
    tracer.count("witness.candidates_screened", result.candidates_screened)


#: (attribute path, span name, counter) of every wrapped entry point.
#: ``_evolve_wire_batch`` is private but crosses modules: ``povm`` and
#: ``optics.fock_unitary`` both call it.
ENTRY_POINTS = (
    ("dpsqkd.cli.run_session", "protocol.run_session", _session_counts),
    ("dpsqkd.cli.certify_noncommutativity", "povm.certify", None),
    ("dpsqkd.cli.compare_statistics", "entangled.compare_statistics",
     _eb_counts),
    ("dpsqkd.cli.witness_search", "witness.search", _search_counts),
    ("dpsqkd.protocol.AliceRecord.random", "protocol.prepare", None),
    ("dpsqkd.protocol.prepare_pulse_train", "protocol.prepare", None),
    ("dpsqkd.protocol.intercept_resend", "protocol.intercept_resend",
     _eve_counts),
    ("dpsqkd.protocol.propagate_analytic", "optics.propagate_analytic", None),
    ("dpsqkd.protocol.detect", "protocol.detect", None),
    ("dpsqkd.protocol.extract_bob_bits", "protocol.extract", None),
    ("dpsqkd.protocol.sift", "protocol.sift", None),
    ("dpsqkd.povm.build_projector_effects", "povm.projector_effects", None),
    ("dpsqkd.povm.fock_unitary", "optics.fock_unitary", None),
    ("dpsqkd.povm.conjugated_commutator_norm", "povm.conjugated_commutator",
     None),
    ("dpsqkd.povm.build_e2_e3", "povm.closed_forms", None),
    ("dpsqkd.povm._evolve_wire_batch", "optics.evolve_batch", _evolve_counts),
    ("dpsqkd.optics._evolve_wire_batch", "optics.evolve_batch",
     _evolve_counts),
    ("dpsqkd.fock.commutator_norm", "fock.commutator_norm", None),
    ("dpsqkd.fock.coherent_amplitudes", "fock.coherent_amplitudes", None),
    ("dpsqkd.entangled.build_eb_state", "entangled.build_eb_state", None),
    ("dpsqkd.witness.min_separable_expectation", "witness.separable_min",
     None),
)


def _resolve(path: str):
    """``(owner, attribute)`` for ``dpsqkd.<module>.<attr>[.<attr>]``, or
    None if it is gone."""
    package, module, *attrs = path.split(".")
    try:
        owner = importlib.import_module(f"{package}.{module}")
    except ImportError:
        return None
    for name in attrs[:-1]:
        owner = getattr(owner, name, None)
    return (owner, attrs[-1]) if hasattr(owner, attrs[-1]) else None


class Tracer:
    """In-memory span recorder.  Set `op` to the current operation id
    before each operation."""

    def __init__(self):
        self.spans = []           # [name, start, end, parent index, op id]
        self.counts = defaultdict(lambda: defaultdict(int))
        self.probes = []
        self.op = None
        self._stack = []
        self._patches = []

    def call(self, name, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called `name`."""
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value):
        self.counts[self.op][name] += int(value)

    def wrap(self, path, name, counter=None):
        """Replace the attribute at `path` by a traced wrapper."""
        target = _resolve(path)
        if target is None:
            return
        owner, attr = target
        raw = inspect.getattr_static(owner, attr)
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            if counter is not None:
                try:
                    counter(tracer, fn, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass    # the returned object changed shape: no count
            return result

        setattr(owner, attr,
                staticmethod(traced) if isinstance(owner, type) else traced)
        self._patches.append((owner, attr, raw))

    def instrument(self):
        for path, name, counter in ENTRY_POINTS:
            self.wrap(path, name, counter)

    def restore(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def run_probes(self):
        """Run the analytic-only calls queued during the last operation."""
        probes, self.probes = self.probes, []
        for fn, args, kwargs in probes:
            self.call(ANALYTIC_SPAN, fn, args, kwargs)

    def layer_metrics(self, n_ops: int, first_round: int,
                      import_s: float) -> dict:
        """Per-layer metrics of a traced run of `n_ops` operations whose
        first round holds operation ids ``0 .. first_round - 1``."""
        n = len(self.spans)
        root = [None] * n
        child_s = [0.0] * n
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            root[i] = name if parent is None else root[parent]
            if parent is not None:
                child_s[parent] += end - start
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        first_calls = defaultdict(int)
        for i, (name, start, end, _, op) in enumerate(self.spans):
            total_s[name] += end - start
            if root[i] == OP_SPAN:
                self_s[name] += end - start - child_s[i]
            if op is not None and op < first_round:
                first_calls[name] += 1

        m = {metric: self_s[span] / n_ops for span, metric in SELF_TIME.items()}
        m["import.dpsqkd_s"] = import_s
        analytic = total_s[ANALYTIC_SPAN]
        m["entangled.analytic_s"] = analytic / n_ops
        m["entangled.mc_s"] = max(
            total_s["entangled.compare_statistics"] - analytic, 0.0) / n_ops

        counts = defaultdict(int)
        for op, per_op in self.counts.items():
            if op is not None and op < first_round:
                for key, value in per_op.items():
                    counts[key] += value
        for key in ("protocol.bins", "protocol.sifted_bins",
                    "protocol.double_clicks", "protocol.pulses_tapped",
                    "protocol.eve_known_bins", "optics.evolve_states",
                    "optics.evolve_bytes", "entangled.mc_trials",
                    "witness.candidates_tried", "witness.candidates_screened"):
            m[key] = counts[key]
        m["witness.separable_min_calls"] = first_calls["witness.separable_min"]
        for ratio, num, base in (
                ("protocol.sift_ratio", "protocol.sifted_bins", "protocol.bins"),
                ("protocol.eve_known_ratio", "protocol.eve_known_bins",
                 "protocol.pulses_tapped"),
                ("witness.screen_ratio", "witness.candidates_screened",
                 "witness.candidates_tried")):
            m[ratio] = m[num] / m[base] if m[base] else 0.0
        return m
