"""certbit: simulator and security analysis for certified bit commitment.

A commitment oracle that certifies classical reveals, a conjugate-basis
spin certification layer on top of it, the causal timing rules the
protocol needs, the attacks that break every finite variant, and the
Monte Carlo / exact analysis machinery that quantifies all of it.
"""

from .rng import RandomStream
from .quantum import (
    Basis,
    DensityMatrix,
    SpinLabel,
    StateVector,
    fidelity,
    measure,
    partial_trace,
    purify,
    schmidt_decompose,
    spin_state,
)
from .spacetime import Event, Schedule, Site, earliest_commitment_time, in_past_cone, validate_schedule
from .protocol import (
    DEFAULT_ENCODING,
    Declaration,
    IdealCommitmentOracle,
    ProtocolParams,
    ReductionScenario,
    SessionTranscript,
    Verdict,
    default_scenario,
    run_session,
)
from .adversary import (
    ClassicalFlip,
    Honest,
    ToyBCProtocol,
    entangled_commit,
    purification_attack,
    weak_oracle_degradation,
)
from .analysis import (
    SecurityReport,
    bob_information,
    cheat_sum,
    detection_probability_exact,
    detection_probability_mc,
    evaluate_relativistic,
    nogo_tradeoff_sweep,
    wilson_interval,
)

__version__ = "0.1.0"
