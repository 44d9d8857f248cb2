"""Exact-arithmetic bit-string sample spaces with p-adic state-space geometry.

Finite sample spaces of 2**N two-valued labels stand in for unit vectors of a
two-dimensional complex Hilbert space: rotations of the strings realize the
complex roots of unity, label fractions realize amplitude-squared values, and
all of it is gated by describability - a parameter belongs to the model only
when the relevant quantity is an exact dyadic rational.  On top sit p-adic /
Cantor-set geometry for the state space, multi-string entangled compositions,
granular four-component evolution, and experiment harnesses that decide the
admissibility of counterfactual settings by number theory.

The names below are re-exported lazily (PEP 562): ``import invset`` loads no
submodule, and a name's module is imported the first time the name is read.
"""

import sys

__version__ = "0.1.0"

#: module -> the names it re-exports
_MODULES = {
    "exactmath": (
        "ExactAngle", "NoAdmissibleAngle", "NotOnInvariantSet", "ObstructionVerdict", "ResourceBound",
        "cos_exact", "is_describable", "pythagorean_solutions", "rational_sqrt",
        "simultaneous_describability", "sin_exact",
    ),
    "padic": (
        "CantorInterval", "PadicInt", "cantor_iterates", "cantor_map", "cantor_numerators",
        "euclid_padic_probe", "interval_for", "ord_p", "padic_dist", "padic_norm", "similarity_dimension",
    ),
    "samplespace": (
        "BitString", "HilbertShadow", "OrbitDescriptor", "canonical_string", "fraction", "from_text",
        "hilbert_shadow", "negate", "pair_shift", "phase_string", "quarter_turn", "sample",
        "sample_from_counts", "to_text",
    ),
    "multiqubit": (
        "MultiSample", "TwoQubitParams", "amplitude_table", "bell_sample", "bell_statistics",
        "compose_pair", "joint_counts", "joint_frequencies", "multi_sample", "two_qubit_predict",
        "two_qubit_sample",
    ),
    "dirac": (
        "FormalOperatorMatrix", "SpinorSample", "dispersion_check", "evolution_matrix",
        "evolution_operator", "full_evolve", "gamma_pattern", "rest_step", "spinor",
    ),
    "experiments": (
        "ChshConfig", "chsh_run", "mz_run", "pbr_run", "pbr_simultaneity", "pbr_values",
    ),
}
_EXPORTS = {name: f"{__name__}.{module}" for module, names in _MODULES.items() for name in names}  # name -> module
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # The name is read from its module every time and never bound here, so that
    # a wrapper put on the module attribute (bench/tracing.py) is seen, and gone once it is undone.
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    if module not in sys.modules:  # the first read of one of its names
        __import__(module)
    return getattr(sys.modules[module], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
