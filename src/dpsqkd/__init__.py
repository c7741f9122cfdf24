"""Differential-phase-shift QKD: simulation and measurement-structure
certification on truncated Fock spaces."""

from .fock import (FockOperator, FockVector, ModeRegistry, coherent_state,
                   commutator_norm, expectation, ladder_operator, tensor)
from .optics import (InterferometerConfig, PulseTrain, bs1_transform,
                     bs2_transform, propagate_analytic)
from .protocol import (AliceRecord, ClickRecord, DetectorModel, SessionConfig,
                       SessionStats, detect, extract_bob_bits,
                       intercept_resend, prepare_pulse_train, run_session,
                       sift)
from .entangled import (EbState, alice_measure, build_eb_state,
                        compare_statistics)
from .povm import (build_e2_e3, build_projector_effects,
                   certify_noncommutativity, reduced_effect_set, t_term,
                   t_term_numeric)
from .witness import (DiagonalWitness, WitnessCandidate,
                      diagonal_positivity_theorem_check,
                      min_separable_expectation, witness_search)

__version__ = "0.1.0"
