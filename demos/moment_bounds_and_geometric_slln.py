"""How large can E[|Z|**p] be, given E[Z**p]?  And a geometric strong law.

For a law in a closed half plane (in the principal-argument sense) and
|p| <= 1 the answer is |E[Z**p]| / cos(p pi/2), tight at the two-point law
on {1, -1}.  Without half-plane support the divisor weakens to cos(p pi) and
only survives |p| < 1/2: past that, two unit atoms whose p-th powers are
antipodal drive E[Z**p] to zero while E[|Z|**p] stays 1.  The running
geometric mean of upper-half-plane draws converges to exp(E[log Z]).
"""

import numpy as np

from fracmean.bounds import (
    cancelling_pair_law,
    general_bound_check,
    geometric_slln_demo,
    half_plane_bound_check,
)
from fracmean.distributions import Poincare, ScaledT3, TwoPoint
from fracmean.moments import MCConfig

print("tight case: equal weights on {1, -1}")
law = TwoPoint(1.0, -1.0, 0.5)
for p in (0.25, 0.5, 0.75):
    rep = half_plane_bound_check(law, p)
    print(f"  p={p}: E|Z|^p = {rep.abs_moment:.6f}  |EZ^p| = {rep.moment_abs:.6f}  slack = {rep.slack:+.2e}")

print()
print("each law picks how E|Z|^p is taken: atoms, a node rule graded toward 0, or Monte Carlo")
rep = half_plane_bound_check(Poincare(1, 0, 1), 0.5)
print(f"  upper-half-plane law ({rep.meta['abs_method']}): E|Z|^0.5 = {rep.abs_moment:.10f}"
      f" <= bound {rep.bound:.10f}  (satisfied: {rep.satisfied})")
rep = half_plane_bound_check(ScaledT3(0, 1), 0.5, mc=MCConfig(samples=200_000, seed=8))
print(f"  symmetric real-line law ({rep.meta['abs_method']}), where the bound holds with equality:")
print(f"    E|Z|^0.5 = {rep.abs_moment:.5f}, bound {rep.bound:.5f} +- {rep.tolerance:.5f}  (satisfied: {rep.satisfied})")

print()
print("antipodal powers break everything once |p| > 1/2")
law = cancelling_pair_law(0.75)
print(f"  atoms {law.z1:.4f} and {law.z2:.4f}")
rep = half_plane_bound_check(law, 0.75, declare_support="lower")
print(f"  E[Z^p] modulus = {rep.moment_abs:.2e}, E|Z|^p = {rep.abs_moment:.1f}, bound = {rep.bound:.2e}")
print(f"  satisfied: {rep.satisfied}  (the law straddles the branch cut, so the")
print("  half-plane hypothesis fails in the principal-argument sense)")

print()
print("running geometric means of Poincare(2,1,1) draws -> -b/a + i D/a = -0.5 + 0.5i")
traj = geometric_slln_demo(Poincare(2.0, 1.0, 1.0), 100_000, seed=6)
for idx in np.linspace(0, len(traj.ns) - 1, 8).astype(int):
    n, v = traj.ns[idx], traj.values[idx]
    print(f"  n = {n:>6d}: {v:.5f}   |error| = {abs(v - traj.target):.5f}")
