"""Composing aligned strings into multi-qubit sample spaces.

Entanglement is a conditional rule: the second row copies one source string
where the head label is the first regime and the other source elsewhere.
With sources built independent of the head, every joint frequency equals its
amplitude-squared prediction exactly.  Run:
python demos/03_entangled_strings_and_bell.py
"""

from fractions import Fraction

from invset import (
    ExactAngle,
    TwoQubitParams,
    bell_sample,
    bell_statistics,
    joint_frequencies,
    multi_sample,
    two_qubit_predict,
    two_qubit_sample,
)
from invset.multiqubit import amplitude_table, marginal, row_descriptor_status

N = 8
ZERO = ExactAngle(Fraction(0))
theta = {amp: ExactAngle(t) for amp, t in
         ((1, Fraction(0)), (Fraction(3, 4), Fraction(1, 6)),
          (Fraction(1, 2), Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 3)))}

params = TwoQubitParams(theta[Fraction(3, 4)], theta[Fraction(1, 2)], theta[Fraction(1, 4)],
                        ZERO, ZERO, ZERO)
ms = two_qubit_sample(params, N)
print(f"two-qubit composition at N={N} (amplitudes 3/4, 1/2, 1/4):")
print("  joint frequencies:", {f"{o:02b}": str(f) for o, f in joint_frequencies(ms).items()})
print("  predicted table:  ", [str(p) for p in two_qubit_predict(params, N).probs])
print("  row marginals:", str(marginal(ms, 0)), str(marginal(ms, 1)))
print("  composed row still a single-angle construction?", row_descriptor_status(ms)[1])

print("\nmaximally entangled construction: second source = negation of the first")
for t, label in ((theta[1], "0 deg"), (theta[Fraction(3, 4)], "60 deg"), (ExactAngle(Fraction(1, 2)), "180 deg")):
    agreement, correlation = bell_statistics(bell_sample(t, N))
    print(f"  orientation {label:>7}: agreement {str(agreement):>5},",
          f"correlation {str(correlation):>5}")
print("  correlation = cos(orientation), exactly, from counting labels")

print("\nthree qubits from the inductive rule, checked against the expander:")
tree = [theta[Fraction(1, 2)], theta[Fraction(3, 4)], theta[Fraction(1, 4)],
        theta[Fraction(1, 2)], theta[Fraction(1, 4)], theta[Fraction(3, 4)], theta[1]]
ms3 = multi_sample(N, tree)
freqs = joint_frequencies(ms3)
table = amplitude_table(tree, [ZERO] * 7, N)
for o in range(8):
    mark = "==" if freqs[o] == table[o][0] else "!="
    print(f"  outcome {o:03b}: counted {str(freqs[o]):>6} {mark} predicted {str(table[o][0]):>6}")
