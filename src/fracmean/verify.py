"""The acceptance suite: one executable check per shipped guarantee.

Every criterion is a function of the suite seed alone, so repeated runs are
bit-reproducible; Monte Carlo checks derive all streams from that seed.  A
check that fails in a way that is analytically unavoidable (documented in
the project notes) is reported as an expected failure rather than silently
loosened: it still runs, its numbers are still published, and any *other*
failure stays a hard failure.
"""

import cmath
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bounds import cancelling_pair_law, geometric_slln_demo, half_plane_bound_check
from .characterize import (
    FixAlpha,
    Verdict,
    alpha_sequence_from_tag,
    blaschke_divergence_check,
    distinguish,
    lambda_sequence_from_tag,
    muntz_divergence_check,
)
from .distributions import Cauchy, Poincare, ScaledT3, TwoPoint
from .gammafn import gamma
from .moments import (
    MCConfig,
    PowerMeanSpec,
    Route,
    _pm_monte_carlo,
    closed_moment,
    continuity_scan,
    frac_moment_neg,
    frac_moment_pos,
    power_mean_expectation,
    t3_product_identity,
)
from .principal import power_bound_constant, principal_pow

__all__ = ["run_suite", "fingerprint", "CRITERIA", "CheckResult", "CriterionResult"]

CAUCHY = Cauchy(0.0, 1.0)
T3 = ScaledT3(0.0, 1.0)
POIN = Poincare(1.0, 0.0, 1.0)
SQRT_PI = 1.7724538509055159


def _plain(obj):
    """Coerce numpy scalars/arrays to plain JSON-friendly python values."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.complexfloating, complex)):
        return [float(obj.real), float(obj.imag)]
    return obj


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: dict = field(default_factory=dict)
    xfail_reason: str | None = None  # set only on pre-identified unavoidable failures
    timing: bool = False  # wall-clock checks are excluded from the fingerprint

    def __post_init__(self):
        self.passed = bool(self.passed)
        self.detail = _plain(self.detail)

    @property
    def hard_failure(self):
        return not self.passed and self.xfail_reason is None


@dataclass
class CriterionResult:
    cid: int
    name: str
    checks: list
    wall_ms: float = 0.0

    @property
    def passed(self):
        return not any(c.hard_failure for c in self.checks)

    @property
    def expected_failures(self):
        return [c for c in self.checks if not c.passed and c.xfail_reason]

    def status(self):
        if any(c.hard_failure for c in self.checks):
            return "FAIL"
        if self.expected_failures:
            return "XFAIL"
        return "PASS"

    def to_json(self):
        # wall-clock sub-check numbers stay out of the payload so repeated
        # runs differ only in the designated wall_ms field
        return {
            "criterion": self.cid,
            "name": self.name,
            "status": self.status(),
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "detail": {} if c.timing else c.detail,
                    **({"timing": True} if c.timing else {}),
                    **({"xfail_reason": c.xfail_reason} if c.xfail_reason else {}),
                }
                for c in self.checks
            ],
            "wall_ms": self.wall_ms,
        }


CRITERIA = []


def _criterion(cid, name):
    def deco(fn):
        CRITERIA.append((cid, name, fn))
        return fn

    return deco


def _c(z):
    return [float(z.real), float(z.imag)]


@_criterion(1, "Cauchy power-mean invariance (MC)")
def _cauchy_invariance(seed):
    checks = []
    mc = MCConfig(samples=100_000, seed=seed)
    ps = (-1.0, -0.5, -0.1)
    for n in (2, 5):
        start = time.perf_counter()
        group = _pm_monte_carlo(CAUCHY, [PowerMeanSpec(p=p, n=n, alpha=1j) for p in ps], mc)
        group_s = time.perf_counter() - start
        for p, est in zip(ps, group):
            dev = abs(est.value - 2j)
            checks.append(
                CheckResult(
                    f"p={p} n={n}: |estimate - 2i| <= 4 stderr",
                    dev <= 4.0 * est.uncertainty,
                    {"estimate": _c(est.value), "deviation": dev, "stderr": est.uncertainty},
                )
            )
            cap_ok = est.uncertainty <= 0.02
            xfail = None
            if not cap_ok and (p, n) == (-1.0, 2):
                # the replication variable has tail index 3/2 here, so its
                # variance is infinite and the sample stderr at 1e5
                # replications concentrates near 0.03-0.04; the 0.02 cap is
                # unattainable (see the project notes)
                xfail = "infinite replication variance at p=-1, n=2"
            checks.append(
                CheckResult(
                    f"p={p} n={n}: stderr <= 0.02",
                    cap_ok,
                    {"stderr": est.uncertainty},
                    xfail_reason=xfail,
                )
            )
            checks.append(
                CheckResult(
                    f"p={p} n={n}: runtime <= 30 s",
                    group_s <= 30.0,
                    {"seconds": round(group_s, 3)},
                    timing=True,
                )
            )
    return checks


@_criterion(2, "Poincare power-mean invariance (MC)")
def _poincare_invariance(seed):
    checks = []
    mc = MCConfig(samples=100_000, seed=seed)
    for params, target in (((1.0, 0.0, 1.0), 1j), ((2.0, 1.0, 1.0), complex(-0.5, 0.5))):
        model = Poincare(*params)
        ps = (-1.0, -0.5, 0.0, 0.5, 1.0)
        groups = {n: _pm_monte_carlo(model, [PowerMeanSpec(p=p, n=n) for p in ps], mc) for n in (2, 5)}
        for i, p in enumerate(ps):
            for n in (2, 5):
                est = groups[n][i]
                dev = abs(est.value - target)
                checks.append(
                    CheckResult(
                        f"(a,b,c)={params} p={p} n={n}: within 4 stderr of target",
                        dev <= 4.0 * est.uncertainty,
                        {"estimate": _c(est.value), "deviation": dev, "stderr": est.uncertainty},
                    )
                )
    return checks


@_criterion(3, "t3 power-mean non-constancy and degree")
def _t3_nonconstancy(seed):
    checks = []
    lo = power_mean_expectation(T3, PowerMeanSpec(p=-0.9, n=2, alpha=1j), Route.CLOSED)
    hi = power_mean_expectation(T3, PowerMeanSpec(p=-0.1, n=2, alpha=1j), Route.CLOSED)
    gap = abs(lo.value - hi.value)
    checks.append(
        CheckResult(
            "closed values at p=-0.9 and p=-0.1 differ",
            gap > 1e-12,
            {"gap": gap, "value_lo": _c(lo.value), "value_hi": _c(hi.value)},
        )
    )
    mc = MCConfig(samples=100_000, seed=seed)
    ests = _pm_monte_carlo(T3, [PowerMeanSpec(p=p, n=2, alpha=1j) for p in (-0.9, -0.1)], mc)
    for p, closed, est in zip((-0.9, -0.1), (lo, hi), ests):
        dev = abs(est.value - closed.value)
        checks.append(
            CheckResult(
                f"MC agrees with closed at p={p}",
                dev <= 4.0 * est.uncertainty,
                {"deviation": dev, "stderr": est.uncertainty},
            )
        )
    ps = np.round(np.arange(-0.9, -0.049, 0.1), 10)
    vals = np.array(
        [power_mean_expectation(T3, PowerMeanSpec(p=float(p), n=2, alpha=1j), Route.CLOSED).value for p in ps]
    )
    coeffs = np.polyfit(ps, vals, 1)
    residual = float(np.max(np.abs(np.polyval(coeffs, ps) - vals)))
    checks.append(CheckResult("affine in p (degree n-1 = 1), residual <= 1e-10", residual <= 1e-10, {"residual": residual}))
    lead_want = math.factorial(1) / (2 ** 2 * abs(2j) ** 1)
    lead_err = abs(abs(coeffs[0]) - lead_want)
    checks.append(
        CheckResult(
            "leading coefficient magnitude matches (n-1)!/(n^n |gamma+alpha|^(n-1))",
            lead_err <= 1e-8,
            {"magnitude": float(abs(coeffs[0])), "expected": lead_want},
        )
    )
    return checks


@_criterion(4, "route equivalence, negative order")
def _route_equiv_neg(seed):
    checks = []
    start = time.perf_counter()
    for lam in (-0.25, -0.5, -0.9, complex(-0.5, 0.3)):
        est = frac_moment_neg(CAUCHY, 1j, lam)
        want = principal_pow(2j, lam)
        rel = abs(est.value - want) / abs(want)
        checks.append(CheckResult(f"Cauchy lam={lam}: rel err <= 1e-6", rel <= 1e-6, {"rel_err": rel}))
    for lam in (-0.5, -1.0):
        est = frac_moment_neg(POIN, 0.0, lam)
        want = principal_pow(1j, lam)
        rel = abs(est.value - want) / abs(want)
        checks.append(CheckResult(f"Poincare lam={lam}: rel err <= 1e-6", rel <= 1e-6, {"rel_err": rel}))
    total_s = time.perf_counter() - start
    checks.append(
        CheckResult("runtime <= 5 s", total_s <= 5.0, {"seconds": round(total_s, 3)}, timing=True)
    )
    return checks


@_criterion(5, "route equivalence, positive order")
def _route_equiv_pos(seed):
    checks = []
    for lam in (0.5, 1.5):
        est = frac_moment_pos(POIN, 0.0, lam)
        want = principal_pow(1j, lam)
        rel = abs(est.value - want) / abs(want)
        checks.append(CheckResult(f"Poincare lam={lam}: rel err <= 1e-4", rel <= 1e-4, {"rel_err": rel}))
    return checks


@_criterion(6, "fractional-derivative route for power means")
def _frac_deriv_power_means(seed):
    checks = []
    for p in (-0.5, 0.5):
        est = power_mean_expectation(POIN, PowerMeanSpec(p=p, n=2), Route.FRAC_DERIV)
        rel = abs(est.value - 1j)
        checks.append(CheckResult(f"Poincare p={p} n=2: rel err <= 1e-4", rel <= 1e-4, {"rel_err": rel}))
    return checks


@_criterion(7, "Gamma and product-identity self-tests")
def _gamma_self_tests(seed):
    checks = []
    err = abs(gamma(0.5) - SQRT_PI)
    checks.append(CheckResult("|gamma(0.5) - sqrt(pi)| <= 1e-12", err <= 1e-12, {"err": err}))
    rng = np.random.default_rng(seed)
    worst_rec = 0.0
    worst_ref = 0.0
    done = 0
    while done < 300:
        z = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
        if abs(z.imag) < 0.1 and z.real < 0.6:
            continue
        worst_rec = max(worst_rec, abs(gamma(z + 1) - z * gamma(z)) / abs(gamma(z + 1)))
        if not (abs(z.imag) < 0.1 and abs(z.real - round(z.real)) < 0.1):
            refl = abs(gamma(z) * gamma(1 - z) - cmath.pi / cmath.sin(cmath.pi * z))
            worst_ref = max(worst_ref, refl / abs(cmath.pi / cmath.sin(cmath.pi * z)))
        done += 1
    checks.append(CheckResult("recurrence rel err <= 1e-10", worst_rec <= 1e-10, {"worst": worst_rec}))
    checks.append(CheckResult("reflection rel err <= 1e-10", worst_ref <= 1e-10, {"worst": worst_ref}))
    worst_id = 0.0
    for p in (-0.9, -0.5, -0.2, -0.05):
        for k in range(7):
            lhs, rhs = t3_product_identity(p, k)
            worst_id = max(worst_id, abs(lhs - rhs) / max(abs(rhs), 1.0))
    checks.append(CheckResult("product identity rel diff <= 1e-10 (k <= 6)", worst_id <= 1e-10, {"worst": worst_id}))
    return checks


@_criterion(8, "half-plane power bound (exact inequality)")
def _power_bound(seed):
    rng = np.random.default_rng(seed)
    count = 0
    violations = 0
    worst_margin = math.inf
    while count < 10_000:
        z = complex(rng.standard_cauchy(), rng.standard_cauchy())
        if z.imag == 0.0:
            continue
        lam = complex(rng.uniform(-3.0, -1e-6), rng.uniform(-2.0, 2.0))
        bound = power_bound_constant(lam) * abs(z.imag) ** lam.real
        val = abs(principal_pow(z, lam))
        if val > bound:
            violations += 1
        worst_margin = min(worst_margin, bound - val)
        count += 1
    return [
        CheckResult(
            "10^4 random (z, lam): |z**lam| <= C(lam)|Im z|^Re(lam)",
            violations == 0,
            {"violations": violations, "worst_margin": worst_margin},
        )
    ]


def _half_plane_laws(seed):
    """Criterion 9's random (law, p) pairs: Poincare at odd trials, two-point at even."""
    rng = np.random.default_rng(seed)
    for trial in range(1000):
        p = float(rng.uniform(-1.0, 1.0))
        if trial % 2:
            a, b, c = (float(rng.uniform(0.4, 2.5)), float(rng.uniform(-0.7, 0.7)), float(rng.uniform(0.4, 2.5)))
            yield Poincare(a, b, c + 0.6), p
        else:
            z1, z2 = (complex(rng.normal(), abs(rng.normal())) for _ in range(2))
            yield TwoPoint(z1, z2, float(rng.uniform(0.0, 1.0))), p


@_criterion(9, "absolute-moment comparison suite")
def _appendix_bounds(seed):
    checks = []
    law = TwoPoint(1.0, -1.0, 0.5)
    worst_slack = 0.0
    for p in np.round(np.arange(0.1, 0.95, 0.1), 10):
        rep = half_plane_bound_check(law, float(p))
        worst_slack = max(worst_slack, abs(rep.slack))
    checks.append(
        CheckResult("tight two-point law: |slack| <= 1e-14 on the p grid", worst_slack <= 1e-14, {"worst_slack": worst_slack})
    )
    failures = sum(not half_plane_bound_check(model, p).satisfied for model, p in _half_plane_laws(seed))
    checks.append(CheckResult("10^3 random half-plane laws satisfy the bound", failures == 0, {"failures": failures}))
    law = cancelling_pair_law(0.75)
    moment = closed_moment(law, 0.0, 0.75)
    abs_moment = float(np.sum(law.weights * np.abs(law.atoms) ** 0.75))
    checks.append(
        CheckResult(
            "antipodal-powers pair at p=0.75: E[Z^p] = 0 and E[|Z|^p] = 1",
            abs(moment) <= 5e-15 and abs(abs_moment - 1.0) <= 1e-14,
            {"moment_abs": abs(moment), "abs_moment": abs_moment},
        )
    )
    rep = half_plane_bound_check(law, 0.75, declare_support="lower")
    checks.append(
        CheckResult("the pair violates the bound outside its hypotheses", not rep.satisfied, {"bound": rep.bound})
    )
    return checks


@_criterion(10, "determining-set validators")
def _determining_sets(seed):
    checks = []
    cases = [
        ("alpha harmonic", blaschke_divergence_check(alpha_sequence_from_tag("harmonic")), Verdict.DIVERGENCE_INDICATED),
        ("alpha geometric", blaschke_divergence_check(alpha_sequence_from_tag("geometric")), Verdict.INCONCLUSIVE),
        ("alpha constant", blaschke_divergence_check(alpha_sequence_from_tag("constant")), Verdict.DIVERGENCE_INDICATED),
        ("lambda harmonic", muntz_divergence_check(lambda_sequence_from_tag("harmonic")), Verdict.DIVERGENCE_INDICATED),
        ("lambda geometric", muntz_divergence_check(lambda_sequence_from_tag("geometric")), Verdict.INCONCLUSIVE),
        ("lambda constant", muntz_divergence_check(lambda_sequence_from_tag("constant")), Verdict.DIVERGENCE_INDICATED),
    ]
    for name, report, want in cases:
        checks.append(
            CheckResult(
                f"{name} -> {want.value}",
                report.verdict is want,
                {"last_sum": float(report.partial_sums[-1]), "log_slope": report.log_slope},
            )
        )
    return checks


@_criterion(11, "distribution distinguisher")
def _distinguisher(seed):
    checks = []
    rep = distinguish(CAUCHY, T3, FixAlpha(1j, (-0.5,)), Route.CLOSED)
    want = 0.125 * math.sqrt(2.0)
    checks.append(
        CheckResult(
            "Cauchy vs t3 at alpha=i, lam=-0.5: max discrepancy = 0.125 sqrt(2)",
            abs(rep.max_discrepancy - want) <= 1e-8,
            {"max_discrepancy": rep.max_discrepancy, "expected": want},
        )
    )
    not_distinguished = 0
    for trial in range(100):
        # distinguish spends the seeds s and s + 1 on its one pair, so each
        # trial takes two seeds and no two trials share draws
        rep = distinguish(
            CAUCHY,
            Cauchy(0.0, 1.0),
            FixAlpha(1j, (-0.5,)),
            Route.MONTE_CARLO,
            mc=MCConfig(samples=20_000, seed=seed + 2 * trial),
        )
        if not rep.distinct:
            not_distinguished += 1
    checks.append(
        CheckResult(
            "same-law MC trials report 'not distinguished' in >= 95/100",
            not_distinguished >= 95,
            {"not_distinguished": not_distinguished},
        )
    )
    return checks


@_criterion(12, "continuity scan across p = 0")
def _continuity(seed):
    grid = np.round(np.arange(-0.9, 0.95, 0.1), 10)
    table = continuity_scan(POIN, 0.0, 2, grid, Route.MONTE_CARLO, mc=MCConfig(samples=100_000, seed=seed))
    errors = [row.error for row in table.rows if row.estimate is None]
    return [
        CheckResult("all grid points evaluated", not errors, {"errors": errors}),
        CheckResult(
            "max adjacent jump <= 4 x combined stderr",
            table.max_jump <= 4.0 * table.max_jump_uncertainty,
            {
                "max_jump": table.max_jump,
                "combined_stderr": table.max_jump_uncertainty,
                "pair": list(table.max_jump_pair) if table.max_jump_pair else None,
            },
        ),
    ]


@_criterion(13, "geometric-mean strong law")
def _slln(seed):
    finals = []
    hits = 0
    for i in range(10):
        traj = geometric_slln_demo(POIN, 100_000, seed=seed + i)
        err = traj.final_error()
        finals.append(err)
        if err <= 0.05:
            hits += 1
    return [
        CheckResult(
            "final geometric mean within 0.05 of i in >= 9/10 seeded runs",
            hits >= 9,
            {"hits": hits, "final_errors": finals},
        )
    ]


def run_suite(seed=7, ids=None, include_determinism=True):
    """Run the acceptance criteria; returns (results, all_passed).  ids, when
    given, must name known criteria and at least one of 1-13 (14 repeats them)."""
    selected = [crit for crit in CRITERIA if ids is None or crit[0] in ids]
    if ids is not None and (set(ids) - {cid for cid, _, _ in CRITERIA} - {14} or not selected):
        raise ValueError(f"criteria {sorted(ids)}: choose from 1-{len(CRITERIA)} and 14, at least one below 14")
    results = []
    for cid, name, fn in selected:
        start = time.perf_counter()
        checks = fn(seed)
        res = CriterionResult(cid, name, checks, wall_ms=1000.0 * (time.perf_counter() - start))
        results.append(res)
    if include_determinism and (ids is None or 14 in ids):
        start = time.perf_counter()
        first = fingerprint(results)
        second = fingerprint([CriterionResult(cid, name, fn(seed)) for cid, name, fn in selected])
        results.append(
            CriterionResult(
                14,
                "determinism of the full suite",
                [
                    CheckResult(
                        "two runs at one seed produce identical numerical output",
                        first == second,
                        {"fingerprint_bytes": len(first)},
                    )
                ],
                wall_ms=1000.0 * (time.perf_counter() - start),
            )
        )
    passed = all(r.passed for r in results)
    return results, passed


def fingerprint(results):
    """Canonical numeric payload of a suite run, wall-clock fields excluded."""
    import json

    payload = [
        {
            "criterion": r.cid,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": {} if c.timing else c.detail}
                for c in r.checks
            ],
        }
        for r in results
    ]
    return json.dumps(payload, sort_keys=True)


def format_lines(results):
    lines = []
    for r in results:
        status = r.status()
        lines.append(f"[{status:5s}] criterion {r.cid:2d}: {r.name}")
        for c in r.checks:
            if not c.passed:
                tag = "expected failure" if c.xfail_reason else "FAILED"
                lines.append(f"         - {tag}: {c.name} {c.detail}")
                if c.xfail_reason:
                    lines.append(f"           reason: {c.xfail_reason}")
    return lines
