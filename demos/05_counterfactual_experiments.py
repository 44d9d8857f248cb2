"""Counterfactual admissibility decides the no-go arguments.

Each of the four correlations in the CHSH quantity comes from its own
sub-ensemble at a describable relative angle; the counterfactual joint
settings needed to derive the inequality are excluded by number theory (a
describable cosine forces an irrational sine).  The same engine drives the
which-way/interference incompatibility and the two-observer preparation
obstruction.  Run: python demos/05_counterfactual_experiments.py
"""

from fractions import Fraction

import mpmath

from invset import ExactAngle, ChshConfig, chsh_run, mz_run, pbr_run
from invset.exactmath import NotOnInvariantSet
from invset.experiments import PAIR_NAMES


def angle(num, den=1):
    return ExactAngle(Fraction(num, den))


print("CHSH at the optimal settings, N = 20 bits of precision:")
report = chsh_run(ChshConfig(20, angle(0), angle(1, 4), angle(1, 8), angle(3, 8)))
for pair in PAIR_NAMES:
    sub = report.substitutions[pair]  # a pair's correlation is its substituted cosine
    print(f"  {pair}: requested {sub.requested_turns} turns,",
          f"substituted cosine {sub.cos_value} ->",
          f"correlation {sub.cos_value} ({float(sub.cos_value):+.6f})")
print(f"  S = {report.s_value} = {float(report.s_value):.6f}",
      f"(2*sqrt(2) = {float(2 * mpmath.sqrt(2)):.6f}) - the inequality bound 2 is violated")

print("\n  but no single ensemble realizes all four settings:")
row = report.admissibility["A2B1"]
for cf, cell in row.items():
    if cf != "A2B1":
        print(f"  counterfactual {cf} from actual A2B1: {cell['verdict']} ({cell['reason']})")

print("\nwhich-way vs interference: one phase cannot pass both gates")
phi = angle(5, 512)
ww = mz_run("which_way", phi, 10)
print(f"  which-way at phi = {phi}: P(D_b) = {ww.probabilities['D_b']}",
      f"- interference admissible for the same phi? {ww.amplitude_gate}")
try:
    mz_run("interference", phi, 10)
except NotOnInvariantSet as exc:
    print(f"  interference at the same phi: {exc}")
good = mz_run("interference", angle(1, 6), 10)
print(f"  interference at phi = 1/6 turns (exceptional cosine): P(D_c) = {good.probabilities['D_c']}")

print("\npreparation obstruction: matched vs mismatched choices")
rep = pbr_run(angle(1, 2), angle(1, 6), angle(1, 4), 8)
print(f"  X = {rep.x_value} (exact: {isinstance(rep.x_value, Fraction)}),",
      f"Z = {rep.z_value} (exact: {isinstance(rep.z_value, Fraction)})")
print(f"  simultaneity verdict: {rep.simultaneity}")
print("  cos(a-2b) and cos(b) are describable, so cos(a-b) cannot be:")
print("  the mismatched-preparation world is off the invariant set, and the")
print("  distinguishing outcome never has to fire where theory forbids it")
