"""Granular evolution of four-component spinor strings.

Time evolution is a diagonal pair-shift operator: components 1-2 advance,
3-4 retreat (two helices of opposite handedness - particles and
antiparticles).  Spatial operators permute components with quarter-turn
factors; their sign/permutation skeletons are the Dirac gamma matrices.
Run: python demos/04_granular_dirac_evolution.py
"""

from fractions import Fraction

from invset import (
    ExactAngle,
    dispersion_check,
    evolution_matrix,
    full_evolve,
    gamma_pattern,
    hilbert_shadow,
    phase_string,
    rest_step,
    spinor,
)
from invset.dirac import space_step_over_full_turn, time_step_over_full_turn

N = 6
half = 1 << (N - 1)
comps = tuple(phase_string(N, ExactAngle(Fraction(r, half)), f"s{i+1}")
              for i, r in enumerate((0, 4, 8, 12)))
psi = spinor(N, comps, mass=1)
print(f"rest-frame evolution at N={N}: time step = {time_step_over_full_turn(psi)} of a period")
print("component phases (turns) under successive steps:")
state = psi
for step in range(4):
    phases = [str(hilbert_shadow(c).phase_turns) for c in state.components]
    print(f"  step {step}: {phases}")
    state = rest_step(state, 1)
print(f"  after {half} steps the state returns exactly (period 2**(N-1))")
assert rest_step(psi, half).components == psi.components

def unit(z):
    return {1: "1", -1: "-1", 1j: "i", -1j: "-i", 0: "."}[z]


print("\nthe four evolution operators reduce to the gamma matrices:")
for axis in range(4):
    sk = evolution_matrix(axis, 1, N).skeleton(1)
    rows = ["[" + " ".join(f"{unit(x):>2}" for x in row) + "]" for row in sk]
    match = "matches" if sk == gamma_pattern(axis) else "differs from"
    print(f"  axis {axis}: {rows[0]} {match} the standard form")
    for r in rows[1:]:
        print(f"          {r}")

print("\ndispersion is exact arithmetic: omega^2 = |k|^2 + m^2")
for mass, k in ((1, (0, 0, 0)), (3, (4, 0, 0)), (1, (1, 0, 0))):
    r = dispersion_check(mass, k)
    omega = str(r.omega) if r.omega is not None else f"irrational (omega^2 = {r.omega_sq})"
    print(f"  m={mass}, k={k}: omega = {omega}")

print("\na moving particle advances all four operators at once:")
psi = spinor(N, comps, mass=3, wavevector=(4, 0, 0))
print(f"  omega = {psi.omega}, x-step = {space_step_over_full_turn(psi, 0)} of a period")
evolved = full_evolve(psi, 2, 1, 0, 0)
for i, c in enumerate(evolved.components):
    print(f"  component {i+1}: phase {hilbert_shadow(c).phase_turns} turns")
