"""Property tests: the rho -> -rho mirror of the Hamiltonian and the fast
rate, Fenchel-Young for the sampled Legendre transform, the Legendre round
trip back to the convex hull, and the config document round trip.  The examples are drawn by the derandomized profile
of conftest.py, so every run checks the same ones."""

from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from svasym import cli, measures, rates, simulate, verify
from svasym import hamiltonian as ham
from svasym.model import ModelParams, Regime, VolFnSpec

P_MIRROR = np.linspace(-1.5, 1.5, 13)
FIXTURES = {"ou": verify.fixture_ou, "cir": verify.fixture_cir}


# --- the rho -> -rho mirror ----------------------------------------------
# The tilt rho p sigma nu |y|^beta and the potential p^2 sigma^2 / 2 are the
# same at (-rho, -p) as at (rho, p), so Hbar0 at -rho is Hbar0 at rho
# reflected, and I2 at -rho and x is I2 at rho and 2 x0 - x.

@pytest.mark.parametrize("name", sorted(FIXTURES))
@settings(max_examples=4)
@given(rho=st.floats(0.1, 0.6))
def test_curve_at_minus_rho_is_the_reversed_curve(name, rho):
    base = FIXTURES[name]()
    plus = ham.build_curve(replace(base, rho=rho), P_MIRROR)
    minus = ham.build_curve(replace(base, rho=-rho), P_MIRROR)
    assert minus.values.tobytes() == plus.values[::-1].tobytes()
    assert minus.errors.tobytes() == plus.errors[::-1].tobytes()


@pytest.fixture(scope="module")
def mirrored_legendre():
    """name -> (x0, q limit, Legendre curve at rho = -0.5 and at 0.5), on a
    q set symmetric bit for bit."""
    out = {}
    for name, fixture in FIXTURES.items():
        curves = [ham.build_curve(replace(fixture(), rho=rho), P_MIRROR)
                  for rho in (-0.5, 0.5)]
        q_lim = 0.9 * min(float(np.max(np.abs(np.gradient(c.values, c.p_grid))))
                          for c in curves)
        half = np.linspace(0.0, q_lim, 201)[1:]
        q_set = np.concatenate([-half[::-1], [0.0], half])
        out[name] = (fixture().x0, q_lim,
                     *(ham.legendre(c, q_set) for c in curves))
    return out


@pytest.mark.parametrize("name", sorted(FIXTURES))
@settings(max_examples=40)
@given(u=st.floats(-1.0, 1.0))
def test_fast_rate_at_minus_rho_is_the_mirrored_rate(name, u, mirrored_legendre):
    x0, q_lim, leg_minus, leg_plus = mirrored_legendre[name]
    t = 1.0
    x = x0 + t * q_lim * u
    assert rates.rate_i2(x, x0, t, leg_minus) == pytest.approx(
        rates.rate_i2(2.0 * x0 - x, x0, t, leg_plus), rel=0.0, abs=1e-12)


# --- Fenchel-Young ----------------------------------------------------------

@settings(max_examples=60)
@given(a=st.floats(0.01, 2.0), b=st.floats(0.0, 0.5), c=st.floats(-1.0, 1.0),
       p_max=st.floats(0.5, 4.0), n_half=st.integers(2, 40),
       q_scale=st.floats(0.1, 2.0))
def test_legendre_satisfies_fenchel_young(a, b, c, p_max, n_half, q_scale):
    # H(p) = a p^2 + b p^4 + c p is convex; L(q) + H(p) >= p q holds for
    # every sampled p and every q, extrapolated ones included
    p = np.linspace(-p_max, p_max, 2 * n_half + 1)
    h = a * p * p + b * p ** 4 + c * p
    curve = ham.HamiltonianCurve(p_grid=p, values=h, errors=np.zeros_like(p))
    slope = 2.0 * a * p_max + 4.0 * b * p_max ** 3 + abs(c)
    q = np.linspace(-q_scale * slope, q_scale * slope, 51)
    leg = ham.legendre(curve, q)
    gap = leg.values[:, None] + h[None, :] - q[:, None] * p[None, :]
    scale = 1.0 + np.abs(q[:, None] * p[None, :]) + np.abs(h[None, :])
    assert np.all(gap >= -1e-12 * scale)


# --- the Legendre round trip ---------------------------------------------------
# legendre transforms the convex hull of the samples, so conjugating its table
# back onto the p grid gives the hull.  Each scan refines its argmax by a
# parabola, which overshoots a kink by at most spacing x slope jump / 8: the
# hull's slopes jump by at most max(diff(slopes)) at a p node, and the
# table's slopes, its maximizing p, by at most the p range at a q node.

@settings(max_examples=60)
@given(a=st.floats(0.01, 2.0), b=st.floats(0.0, 0.5), c=st.floats(-1.0, 1.0),
       p_max=st.floats(0.5, 4.0), n_half=st.integers(2, 40),
       dents=st.lists(st.tuples(st.integers(0, 80), st.floats(0.0, 1.0)),
                      max_size=4),
       n_q=st.integers(3, 400))
def test_legendre_round_trip_gives_the_hull(a, b, c, p_max, n_half, dents, n_q):
    p = np.linspace(-p_max, p_max, 2 * n_half + 1)
    h = a * p * p + b * p ** 4 + c * p
    for i, size in dents:  # concave dents, which the hull repairs
        h[i % p.size] += size * a * p_max ** 2
    curve = ham.HamiltonianCurve(p_grid=p, values=h, errors=np.zeros_like(p))
    hull = ham._convex_hull_values(p, h)
    slopes = np.diff(hull) / np.diff(p)
    q = np.linspace(slopes[0], slopes[-1], n_q)
    leg = ham.legendre(curve, q)
    back, _, _ = ham.conjugate(leg.q_grid, leg.values, p)
    bound = ((p[1] - p[0]) * np.max(np.diff(slopes))
             + (q[1] - q[0]) * (p[-1] - p[0])) / 8.0
    scale = 1.0 + np.max(np.abs(hull)) + p_max * np.max(np.abs(slopes))
    assert np.all(np.abs(back - hull) <= bound + 1e-12 * scale)


# --- config round trip --------------------------------------------------------

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
positive = st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)
sigmas = st.one_of(
    st.builds(VolFnSpec.constant, positive),
    st.builds(VolFnSpec.power_abs, positive,
              st.floats(0.0, 0.99), st.floats(0.0, 10.0)))
models = st.builds(ModelParams, m=finite, nu=positive,
                   beta=st.sampled_from([0.0, 0.5, 0.75]),
                   rho=st.floats(-0.99, 0.99), r=st.floats(0.0, 1.0),
                   sigma=sigmas, y0=finite, x0=finite)
counts = st.integers(3, 10 ** 6)
configs = st.builds(
    cli.RunConfig, model=models, regime=st.sampled_from(list(Regime)),
    t=positive, eps=st.floats(1e-3, 1.0), tilt_p=finite, horizon=positive,
    x_target=finite, strike=positive,
    eps_sequence=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=5).map(tuple),
    mc=st.builds(simulate.McConfig, paths=st.integers(1, 10 ** 8),
                 steps_per_unit_time=st.integers(1, 10 ** 4),
                 seed=st.integers(0, 2 ** 64 - 1)),
    grid=st.builds(measures.GridSpec, n=counts,
                   y_lo=st.one_of(st.none(), finite),
                   y_hi=st.one_of(st.none(), finite)),
    p_grid_max=positive, p_grid_count=counts, x_grid_min=finite,
    x_grid_max=finite, x_grid_count=counts, logk_min=finite, logk_max=finite,
    logk_count=counts)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("round_trip") / "run.cfg")


@settings(max_examples=100)
@given(cfg=configs)
def test_config_document_round_trips(cfg, config_path):
    cli.write_config(cfg, config_path)
    assert cli.load_config(config_path) == cfg
