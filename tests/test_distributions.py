"""Densities, half-line transforms, derivatives, samplers, and wire formats."""

import ast
import hashlib
import json
import math
import pathlib

import numpy as np
import pytest

import fracmean
from fracmean.distributions import (
    _hermite_rule,
    Cauchy,
    Empirical,
    MomentExistenceError,
    Poincare,
    ScaledT3,
    SupportError,
    TwoPoint,
    char_fn,
    char_fn_derivative,
    density,
    load_samples_csv,
    make_model,
    model_from_json,
    parse_complex,
    parse_params,
    sample,
    samples_to_csv,
    stream_generator,
)

CAUCHY = Cauchy(0.0, 1.0)
T3 = ScaledT3(0.0, 1.0)
POIN = Poincare(1.0, 0.0, 1.0)


def normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def t3_cdf(x, mu=0.0, sigma=1.0):
    # antiderivative of (2/pi)(1+u^2)^-2 is (arctan u + u/(1+u^2))/pi
    u = (x - mu) / sigma
    return 0.5 + (math.atan(u) + u / (1.0 + u * u)) / math.pi


def inverse_gaussian_cdf(y, mean, shape):
    if y <= 0:
        return 0.0
    r = math.sqrt(shape / y)
    return normal_cdf(r * (y / mean - 1.0)) + math.exp(2.0 * shape / mean) * normal_cdf(
        -r * (y / mean + 1.0)
    )


def ks_statistic(draws, cdf):
    xs = np.sort(draws)
    n = len(xs)
    cdf_vals = np.array([cdf(x) for x in xs])
    upper = np.max(np.arange(1, n + 1) / n - cdf_vals)
    lower = np.max(cdf_vals - np.arange(0, n) / n)
    return max(upper, lower)


# --- densities --------------------------------------------------------------


def test_density_values():
    assert abs(density(CAUCHY, 0.0) - 1.0 / math.pi) < 1e-15
    assert abs(density(T3, 0.0) - 2.0 / math.pi) < 1e-15
    # plugging (x, y) = (0, 1) into the upper-half-plane density with D = 1:
    # the normalizer D e^{2D}/pi meets exp(-(a+c)/y) = e^{-2}, leaving 1/pi
    assert abs(density(POIN, 1j) - 1.0 / math.pi) < 1e-15


def test_density_support_errors():
    with pytest.raises(SupportError):
        density(CAUCHY, 1j)
    with pytest.raises(SupportError):
        density(POIN, 1.0)
    with pytest.raises(SupportError):
        density(TwoPoint(1, -1, 0.5), 1.0)


def test_real_densities_normalize():
    for model, cdf in ((T3, t3_cdf),):
        xs = np.linspace(-2000.0, 2000.0, 400_001)
        vals = np.array([density(model, x) for x in xs[:: len(xs) // 101]])
        assert np.all(vals >= 0)
        assert abs(cdf(2000.0) - cdf(-2000.0) - 1.0) < 1e-9
    # Cauchy by its closed CDF
    assert abs((math.atan(2000.0) - math.atan(-2000.0)) / math.pi - 1.0) < 1e-3


def test_poincare_density_normalizes_by_2d_quadrature():
    # brute 2-d integration, independent of the sampler's factorization
    model = Poincare(1.3, -0.4, 0.9)
    s_grid = np.linspace(-9.0, 9.0, 241)  # y = e^s
    total = 0.0
    for s_val in s_grid:
        y = math.exp(s_val)
        center = -model.b / model.a
        width = 12.0 * math.sqrt(y / model.a) + 1.0
        xs = np.linspace(center - width, center + width, 1201)
        expo = -(model.a * (xs ** 2 + y * y) + 2.0 * model.b * xs + model.c) / y
        row = np.exp(expo).sum() * (xs[1] - xs[0])
        d_const = model.d_const
        total += row * d_const * math.exp(2.0 * d_const) / (math.pi * y * y) * y  # dy = y ds
    total *= s_grid[1] - s_grid[0]
    assert abs(total - 1.0) < 1e-6


# --- characteristic transforms ----------------------------------------------


def test_char_fn_values():
    for model in (CAUCHY, T3, POIN, TwoPoint(1, -1j, 0.3), Empirical((1j, 2j, 1 + 1j))):
        assert char_fn(model, 0.0) == 1.0
    assert abs(char_fn(POIN, 1.0) - math.exp(-1.0)) < 1e-15
    assert abs(char_fn(T3, 1.0) - 2.0 * math.exp(-1.0)) < 1e-15
    assert abs(char_fn(CAUCHY, 2.0) - math.exp(-2.0)) < 1e-15


def test_char_fn_modulus_bounds():
    ts = np.linspace(0.0, 20.0, 101)
    for model in (CAUCHY, T3, TwoPoint(0.3, -2.0, 0.5)):
        assert all(abs(char_fn(model, t)) <= 1.0 + 1e-12 for t in ts)
    d_over_a = POIN.d_const / POIN.a
    for t in ts:
        assert abs(abs(char_fn(POIN, t)) - math.exp(-d_over_a * t)) < 1e-12


def test_t3_char_fn_against_numerical_fourier():
    # the (1 + sigma t) e^{i mu t - sigma t} form is derived, not assumed:
    # check it against a brute Fourier integral of the density
    model = ScaledT3(0.7, 1.3)
    xs = np.linspace(-4000.0, 4000.0, 2_000_001)
    dens = 2.0 * model.sigma ** 3 / math.pi / ((xs - model.mu) ** 2 + model.sigma ** 2) ** 2
    dx = xs[1] - xs[0]
    for t in (0.3, 1.0):
        brute = np.sum(np.exp(1j * t * xs) * dens) * dx
        assert abs(brute - char_fn(model, t)) < 1e-8


def test_char_fn_derivative_order_zero_is_char_fn():
    for model in (CAUCHY, T3, POIN, TwoPoint(1, -1, 0.5)):
        for t in (0.0, 0.7, 2.0):
            assert abs(char_fn_derivative(model, 0, t) - char_fn(model, t)) < 1e-14


def test_char_fn_derivative_examples():
    got = char_fn_derivative(POIN, 1, 0.0)
    assert abs(got - 1.0) < 1e-15  # (-i) E[Z] = (-i)(i) = 1
    got = char_fn_derivative(TwoPoint(1, -1, 0.5), 2, 0.0)
    assert abs(got - (-1.0)) < 1e-15  # (-i)^2 E[Z^2] = -1


def test_char_fn_derivative_matches_finite_differences():
    h = 1e-5
    for model in (T3, POIN, TwoPoint(0.5, 2.0, 0.25)):
        for k in (1, 2):
            for t in (0.5, 1.5):
                got = char_fn_derivative(model, k, t)
                fd = -(
                    char_fn_derivative(model, k - 1, t + h)
                    - char_fn_derivative(model, k - 1, t - h)
                ) / (2.0 * h)
                assert abs(got - fd) < 1e-7 * max(1.0, abs(got))


def test_char_fn_derivative_sampler_cross_check():
    draws = sample(POIN, 99, 400_000)
    vals = -1j * draws
    mean = vals.mean()
    stderr = math.sqrt(vals.real.var(ddof=1) + vals.imag.var(ddof=1)) / math.sqrt(len(vals))
    closed = char_fn_derivative(POIN, 1, 0.0)
    assert abs(mean - closed) <= 4.0 * stderr


def test_moment_existence_rejections():
    with pytest.raises(MomentExistenceError):
        char_fn_derivative(CAUCHY, 1, 0.0)
    with pytest.raises(MomentExistenceError):
        char_fn_derivative(T3, 3, 0.0)


# --- samplers ----------------------------------------------------------------


def test_cauchy_sampler_median():
    n = 100_001
    draws = sample(CAUCHY, 7, n).real
    assert abs(np.median(draws)) <= 4.0 * (math.pi / 2.0) / math.sqrt(n)


def test_poincare_sampler_mean_and_support():
    n = 1_000_000
    draws = sample(POIN, 11, n)
    assert draws.imag.min() > 0.0
    mean = draws.mean()
    stderr = math.sqrt(draws.real.var(ddof=1) + draws.imag.var(ddof=1)) / math.sqrt(n)
    assert abs(mean - 1j) <= 4.0 * stderr


def test_t3_sampler_against_cdf():
    n = 100_000
    draws = sample(T3, 13, n).real
    assert abs(draws.mean()) < 0.05
    assert np.abs(draws).mean() < 2.0  # E|X| = 2 sigma / (sqrt(3) ... finite)
    stat = ks_statistic(draws, t3_cdf)
    assert stat <= 1.63 / math.sqrt(n)  # 1% level


def test_poincare_y_marginal_against_inverse_gaussian_cdf():
    model = Poincare(2.0, 1.0, 1.0)
    n = 100_000
    draws = sample(model, 17, n)
    d_const = model.d_const
    mean, shape = d_const / model.a, 2.0 * d_const ** 2 / model.a
    stat = ks_statistic(draws.imag, lambda y: inverse_gaussian_cdf(y, mean, shape))
    assert stat <= 1.63 / math.sqrt(n)


def test_empirical_char_fn_matches_closed_form():
    n = 1_000_000
    model = Poincare(1.0, 0.5, 2.0)
    draws = sample(model, 23, n)
    for t in (0.5, 1.0, 2.0):
        vals = np.exp(1j * t * draws)
        mean = vals.mean()
        stderr = math.sqrt(vals.real.var(ddof=1) + vals.imag.var(ddof=1)) / math.sqrt(n)
        assert abs(mean - char_fn(model, t)) <= 4.0 * stderr


def test_sampler_determinism_and_stream_split():
    a = sample(POIN, 5, 1000)
    b = sample(POIN, 5, 1000)
    c = sample(POIN, 5, 1000, stream=1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# SHA-256 of sample(law, 7, 10_000, stream=3).tobytes(), taken with numpy 2.4
# before the samplers computed in place; any change of stream or of
# floating-point operations shows here
SAMPLE_SHA256 = {
    Cauchy(0.5, 2.0): "fc987232a002d8f0c0786e004a25b50f48e1f6892cb5fb1d5750e6f4db3b169b",
    ScaledT3(-0.0, 1.5): "574dee2bd42634bdea294c1c60b610b86f4948f3b3038a53373dedd21c2907c1",
    Poincare(2.0, 1.0, 1.0): "408e68a2c0eea542b2dc1cf58792629bfee80dbddb2de1ca86a771febd0a3f83",
    Poincare(1.0, 0.0, 1.0): "6d4a17468c4888395114e5286797d0c28cc8a381b6f8172dd36e82557d0b0220",
}


@pytest.mark.skipif(not np.__version__.startswith("2.4."), reason="pins taken with numpy 2.4")
@pytest.mark.parametrize("law", list(SAMPLE_SHA256), ids=repr)
def test_sampler_bytes_pinned(law):
    draws = sample(law, 7, 10_000, stream=3)
    assert hashlib.sha256(draws.tobytes()).hexdigest() == SAMPLE_SHA256[law]


def _reference_draws(law, rng, n):
    """The sampler expressions as first written, with their temporaries."""
    if isinstance(law, Cauchy):
        return (law.mu + law.sigma * np.tan(math.pi * (rng.random(n) - 0.5))) + 0.0j
    if isinstance(law, ScaledT3):
        return (law.mu + law.sigma * rng.standard_t(3, size=n) / math.sqrt(3.0)) + 0.0j
    mean, shape = law.d_const / law.a, 2.0 * law.d_const ** 2 / law.a
    nu = rng.standard_normal(n)
    y = nu * nu
    x = mean + mean * mean * y / (2.0 * shape) - (mean / (2.0 * shape)) * np.sqrt(
        4.0 * mean * shape * y + (mean * y) ** 2
    )
    u = rng.random(n)
    y = np.where(u <= mean / (mean + x), x, mean * mean / x)
    x = -law.b / law.a + np.sqrt(y / (2.0 * law.a)) * rng.standard_normal(n)
    return x + 1j * y


@pytest.mark.parametrize(
    "law",
    [Cauchy(0.0, 1.0), Cauchy(-0.0, 3.0), ScaledT3(0.0, 1.0), ScaledT3(-2.5, 0.2),
     Poincare(1.0, 0.0, 1.0), Poincare(2.0, 1.0, 1.0), Poincare(0.5, -0.3, 3.0)],
    ids=repr,
)
def test_in_place_samplers_match_their_expressions(law):
    for seed, stream in ((0, 0), (7, 5), (123_456_789, 2)):
        got = sample(law, seed, 5000, stream=stream)
        want = _reference_draws(law, stream_generator(seed, stream), 5000)
        assert got.tobytes() == want.tobytes()


def test_poincare_nodes_share_a_read_only_hermite_table():
    points, weights = _hermite_rule(48)
    assert _hermite_rule(48)[0] is points
    with pytest.raises(ValueError):
        points[0] = 0.0
    xi, wx = np.polynomial.hermite.hermgauss(48)
    assert points.tobytes() == xi.tobytes()
    assert weights.tobytes() == (wx / math.sqrt(math.pi)).tobytes()
    # the same bits as a rule built from a fresh table
    law = Poincare(2.0, 1.0, 1.0)
    z, w = law.nodes(6)
    assert z.tobytes() == law.nodes(6)[0].tobytes() and w.tobytes() == law.nodes(6)[1].tobytes()
    assert abs(np.sum(w * z) - law.gamma_point) <= 1e-12


def test_two_point_and_empirical_samplers():
    tp = TwoPoint(1j, -1.0, 0.25)
    draws = sample(tp, 3, 40_000)
    frac = np.mean(draws == 1j)
    assert abs(frac - 0.25) < 0.01
    emp = Empirical((1 + 1j, 2.0, 3j))
    draws = sample(emp, 3, 999)
    assert set(np.unique(draws)) <= {1 + 1j, 2.0 + 0j, 3j}


def test_model_support_classes():
    assert CAUCHY.support == "real"
    assert POIN.support == "upper"
    assert TwoPoint(1.0, -2.0, 0.5).support == "real"
    assert TwoPoint(1j, 1.0, 0.5).support == "upper"
    assert TwoPoint(1j, -1j, 0.5).support == "complex"


def test_no_isinstance_dispatch_on_families():
    # each family's formulas live in its class; the routes call its methods
    families = {"Cauchy", "ScaledT3", "Poincare", "TwoPoint", "Empirical"}
    sites = []
    for path in sorted(pathlib.Path(fracmean.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                named = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])}
                if named & families:
                    sites.append(f"{path.name}:{node.lineno}")
    assert sites == []


# --- wire formats ------------------------------------------------------------


def test_parse_complex_grammar():
    assert parse_complex("0+1i") == 1j
    assert parse_complex("-0.5+0i") == -0.5
    assert parse_complex("2") == 2.0
    assert parse_complex("1i") == 1j
    assert parse_complex("1.5-2i") == complex(1.5, -2.0)
    for bad in ("", "1 + 2i", "abc", "i1"):
        with pytest.raises(ValueError):
            parse_complex(bad)


def test_parse_params_and_make_model():
    model = make_model("poincare", parse_params("a=1,b=0,c=1"))
    assert model == POIN
    model = make_model("cauchy", parse_params("mu=0,sigma=1"))
    assert model == CAUCHY
    model = make_model("twopoint", parse_params("z1=1+0i,z2=-1+0i,w=0.5"))
    assert model == TwoPoint(1.0, -1.0, 0.5)
    with pytest.raises(ValueError):
        make_model("poincare", parse_params("a=1,c=1,zzz=3"))
    with pytest.raises(ValueError):
        parse_params("a=1,b")


def test_model_json_round_trip():
    for model in (CAUCHY, T3, POIN, TwoPoint(1j, -1.0, 0.5), Empirical((1j, 2.0))):
        again = model_from_json(json.dumps(model.to_json()))
        assert again == model


def test_samples_csv_round_trip(tmp_path):
    path = tmp_path / "draws.csv"
    draws = sample(POIN, 29, 100)
    samples_to_csv(draws, path)
    header = path.read_text().splitlines()[0]
    assert header == "re,im"
    back = load_samples_csv(path)
    assert np.allclose(np.array(back), draws)
    emp = make_model("empirical", {"file": str(path)})
    assert isinstance(emp, Empirical)
    assert len(emp.samples) == 100
