"""Fuzz of the library entry points, as the CLI's argv is fuzzed: every
call returns, or raises a one-line ValueError, within a second."""

import math
import time

import numpy as np
from hypothesis import given, settings, strategies as st

from dpsqkd.entangled import build_eb_state, compare_statistics
from dpsqkd.optics import InterferometerConfig, sector_lift
from dpsqkd.povm import (build_e2_e3, certify_noncommutativity,
                         reduced_effect_set)
from dpsqkd.protocol import SessionConfig, run_session
from dpsqkd.witness import bell_state_density, min_separable_expectation

#: values no count or probability may take: negatives, non-integral
#: floats, bools, nan and +-inf
BAD = st.one_of(st.integers(max_value=-1),
                st.floats(-1e6, 1e6).filter(lambda x: not x.is_integer()),
                st.booleans(), st.sampled_from([math.nan, math.inf, -math.inf]))


def count(valid, refused=None):
    """A cheap admitted count, one so large that a bound must refuse it,
    or a bad value: never a size that is admitted but large."""
    huge = [] if refused is None else [st.integers(min_value=refused)]
    return st.one_of(valid, *huge, BAD)


def unit(valid=st.floats(0.0, 1.0)):
    return st.one_of(valid, BAD)


def _session(**kwargs):
    return run_session(SessionConfig(**kwargs))


#: alpha of the EB calls: up to |alpha| 3, too large a size, or bad
ALPHAS = st.one_of(st.complex_numbers(max_magnitude=3.0),
                   st.floats(min_value=1e154), BAD)

#: witness operators of qubit pairs and qutrit pairs, one stacked, and
#: malformed ones: not finite, not hermitian, a shape of no pair
OPERATORS = st.sampled_from([
    np.eye(4), bell_state_density(), np.stack([np.eye(4)] * 3), np.eye(9),
    np.full((4, 4), math.nan), np.full((4, 4), math.inf),
    np.triu(np.ones((4, 4))), np.eye(3), np.ones(4)])


CALLS = st.one_of(
    st.tuples(st.just(sector_lift), st.fixed_dictionaries({
        "config": st.just(InterferometerConfig.compensated()),
        "bins": count(st.integers(1, 4), 10 ** 4),
        "n_max": count(st.integers(0, 6), 10 ** 9)})),
    st.tuples(st.just(reduced_effect_set), st.fixed_dictionaries({
        "n_bins": count(st.integers(1, 2), 10 ** 4),
        "cutoff": count(st.integers(0, 2), 10 ** 9),
        "boundary": st.sampled_from(["marginal", "vacuum"])})),
    st.tuples(st.just(build_eb_state), st.fixed_dictionaries({
        "n_key_bins": count(st.integers(0, 4)),
        "alpha": ALPHAS,
        "cutoff": count(st.integers(1, 100), 10 ** 9)})),
    st.tuples(st.just(compare_statistics), st.fixed_dictionaries({
        "n_key_bins": count(st.integers(1, 3), 10),
        "alpha": ALPHAS,
        "trials": count(st.integers(0, 1000), 2 * 10 ** 8),
        "cutoff": count(st.integers(1, 100), 2 * 10 ** 8),
        "seed": count(st.integers(0, 2 ** 32 - 1))})),
    st.tuples(st.just(build_e2_e3), st.fixed_dictionaries({
        "cutoff": count(st.integers(0, 15), 48)})),
    st.tuples(st.just(certify_noncommutativity), st.fixed_dictionaries({
        "cutoff": count(st.integers(0, 4), 16)})),
    st.tuples(st.just(min_separable_expectation), st.fixed_dictionaries({
        "W": OPERATORS,
        "dims": st.sampled_from([(2, 2), (3, 3), (2, 3), (5, 5), (0, 2)]),
        "grid_points": count(st.integers(0, 400)),
        "seed": count(st.integers(0, 2 ** 32 - 1))})),
    # alphaSquared above 1 warns by design
    st.tuples(st.just(_session), st.fixed_dictionaries({
        "n_bins": count(st.integers(0, 1000), 3 * 10 ** 8),
        "alpha2": unit(),
        "phi2": unit(st.floats(-10.0, 10.0)),
        "efficiency": unit(),
        "dark_click_prob": unit(),
        "eve_fraction": unit(),
        "seed": count(st.integers(0, 2 ** 32 - 1))})),
)


@settings(max_examples=400, deadline=None)
@given(call=CALLS)
def test_library_entry_points_return_or_refuse_in_one_line(call):
    fn, kwargs = call
    t0 = time.perf_counter()
    try:
        fn(**kwargs)
    except ValueError as e:
        assert "\n" not in str(e)
    assert time.perf_counter() - t0 < 1.0
