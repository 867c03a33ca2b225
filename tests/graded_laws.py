"""Poincare laws for the tests of the graded node rule: the corners of
criterion 9's parameter box (a in [0.4, 2.5], b in [-0.7, 0.7],
c in [1.0, 3.1]) with a*c > b**2, and a law near the real axis (D/a = 0.04)."""

from fracmean.distributions import Poincare

GRADED_LAWS = [
    Poincare(0.4, -0.7, 3.1), Poincare(0.4, 0.7, 3.1), Poincare(2.5, -0.7, 1.0),
    Poincare(2.5, 0.7, 1.0), Poincare(2.5, -0.7, 3.1), Poincare(2.5, 0.7, 3.1),
    Poincare(2.5, 0.7, 0.2),
]
