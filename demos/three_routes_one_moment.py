"""One fractional moment, three independent computations.

E[(Z + alpha)**lam] is evaluated by closed form, by fractional-order
differentiation of the characteristic transform (one Riemann-Liouville
integral at every order: at Re(lam) > 0 of the transform weighted by
(Z + alpha)**k, k = ceil(Re lam), at the order lam - k in (-1, 0)), and by
plain Monte Carlo.  The quadrature agrees with the closed forms to
far better than the Monte Carlo noise floor, which is the point: the three
routes police one another.  Monte Carlo refuses a moment whose samples have
no finite variance (the t3 law at lambda = 1.5, where E|Z + i|^3 diverges),
since its standard error would then mean nothing.
"""

from fracmean import (
    Cauchy,
    MCConfig,
    Poincare,
    Route,
    RouteUnavailableError,
    ScaledT3,
    frac_moment,
    frac_moment_mc,
)

mc = MCConfig(samples=400_000, seed=1)

cases = [
    ("Cauchy(0,1), alpha=i", Cauchy(0.0, 1.0), 1j, [-0.25, -0.5, complex(-0.5, 0.3)]),
    ("t3(0,1), alpha=i", ScaledT3(0.0, 1.0), 1j, [-0.5, 0.5, 1.5]),
    ("Poincare(1,0,1)", Poincare(1.0, 0.0, 1.0), 0.0, [-1.0, -0.5, 0.5, 1.5]),
]

for title, model, alpha, lams in cases:
    print(title)
    print(f"  {'lambda':>12} {'closed':>24} {'quadrature':>24} {'|quad-closed|':>14} {'mc dev / se':>12}")
    for lam in lams:
        closed = frac_moment(model, alpha, lam, Route.CLOSED)
        quad = frac_moment(model, alpha, lam, Route.QUAD)
        gap = abs(quad.value - closed.value)
        try:
            sampled = frac_moment_mc(model, alpha, lam, mc)
            pull = f"{abs(sampled.value - closed.value) / sampled.uncertainty:12.2f}"
        except RouteUnavailableError:
            pull = f"{'refused':>12}"
        print(f"  {lam!s:>12} {closed.value!s:>24} {quad.value:24.12f} {gap:14.2e} {pull}")
    print()
