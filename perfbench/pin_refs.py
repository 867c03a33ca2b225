"""Recompute the pinned references of the fracderiv_sampled workload.

Each reference is a Monte Carlo power mean at 10^7 replications. Each
tolerance is 5 standard deviations of the FRAC_DERIV estimate at 20,000
frozen draws, measured over 16 seeds, plus 4 standard errors of the
reference. The table it prints replaces FRACDERIV_CELLS in workloads.py.

    python3 perfbench/pin_refs.py      # a few minutes on 2 CPUs
"""

import math
import os
import statistics

from run import load_library

REF_SEED = 20231201
REF_REPLICATIONS = 10_000_000
SPREAD_SEEDS = range(101, 117)


def main():
    os.environ["FRACMEAN_THREADS"] = "2"
    load_library()
    from fracmean import MCConfig, PowerMeanSpec, Route, power_mean_expectation
    import workloads

    for label, model, alpha, p, _ref, _tol in workloads.FRACDERIV_CELLS:
        spec = PowerMeanSpec(p=p, n=2, alpha=alpha)
        mc = MCConfig(samples=REF_REPLICATIONS, seed=REF_SEED)
        ref = power_mean_expectation(model, spec, Route.MONTE_CARLO, mc=mc)
        got = [
            workloads.fracderiv_call(model, alpha, p, workloads.FRACDERIV_DRAWS, seed)().value
            for seed in SPREAD_SEEDS
        ]
        spread = math.hypot(statistics.stdev(z.real for z in got), statistics.stdev(z.imag for z in got))
        worst = max(abs(z - ref.value) for z in got)
        tol = 5.0 * spread + 4.0 * ref.uncertainty
        print(f"# {label}: sd {spread:.3e}, worst {worst:.3e}, ref stderr {ref.uncertainty:.1e}")
        print(f"({label!r}, ..., {alpha!r}, {p!r}, {ref.value!r}, {tol:.2e}),")


if __name__ == "__main__":
    main()
