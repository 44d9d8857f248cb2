"""Exact-arithmetic bit-string sample spaces with p-adic state-space geometry.

Finite sample spaces of 2**N two-valued labels stand in for unit vectors of a
two-dimensional complex Hilbert space: rotations of the strings realize the
complex roots of unity, label fractions realize amplitude-squared values, and
all of it is gated by describability - a parameter belongs to the model only
when the relevant quantity is an exact dyadic rational.  On top sit p-adic /
Cantor-set geometry for the state space, multi-string entangled compositions,
granular four-component evolution, and experiment harnesses that decide the
admissibility of counterfactual settings by number theory.
"""

from .exactmath import (
    ExactAngle,
    NoAdmissibleAngle,
    NotOnInvariantSet,
    ObstructionVerdict,
    ResourceBound,
    cos_exact,
    is_describable,
    pythagorean_solutions,
    rational_sqrt,
    simultaneous_describability,
    sin_exact,
)
from .padic import (
    CantorInterval,
    PadicInt,
    cantor_iterates,
    cantor_map,
    cantor_numerators,
    euclid_padic_probe,
    interval_for,
    ord_p,
    padic_dist,
    padic_norm,
    similarity_dimension,
)
from .samplespace import (
    BitString,
    HilbertShadow,
    OrbitDescriptor,
    canonical_string,
    fraction,
    from_text,
    hilbert_shadow,
    negate,
    pair_shift,
    phase_string,
    quarter_turn,
    sample,
    sample_from_counts,
    to_text,
)
from .multiqubit import (
    MultiSample,
    TwoQubitParams,
    amplitude_table,
    bell_sample,
    bell_statistics,
    compose_pair,
    joint_counts,
    joint_frequencies,
    multi_sample,
    two_qubit_predict,
    two_qubit_sample,
)
from .dirac import (
    FormalOperatorMatrix,
    SpinorSample,
    dispersion_check,
    evolution_matrix,
    evolution_operator,
    full_evolve,
    gamma_pattern,
    rest_step,
    spinor,
)
from .experiments import (
    ChshConfig,
    chsh_run,
    mz_run,
    pbr_run,
    pbr_simultaneity,
    pbr_values,
)

__version__ = "0.1.0"
