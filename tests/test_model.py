"""Model coefficients, thresholds, and the persistence root solver.

Expected values marked "oracle" were derived independently in
tools/derive_oracles.py (mpmath, 50 digits) before the implementation existed.
"""

import math
import tempfile
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sislab.model import (
    ExtinctionCase,
    ModelParams,
    PreconditionError,
    diffusion_original,
    drift_original,
    extinction_case,
    f_max_sigma,
    log_coeffs,
    persistence_alpha_bound,
    persistence_lambda,
    regime_report,
    reproduction_numbers,
)
from sislab.cli import main

# parameter sets used throughout (convergence ex. 1, extinction ex., persistence ex.)
P_CONV1 = ModelParams(N=10, beta=0.5, sigma=0.2, mu_plus_gamma=4.0, I0=1.0)
P_EXT = ModelParams(N=100, beta=0.42, sigma=0.9, mu_plus_gamma=10.0, I0=90.0)
P_PERS = ModelParams(N=100, beta=0.6, sigma=0.01, mu_plus_gamma=40.0, I0=10.0)

# oracle: beta^2/(2 sigma^2) - (mu+gamma) = -4451/450
F_MAX_EXT = -9.891111111111111
# oracle: mpmath root of beta*N - mu - gamma - beta*lam - sigma^2/2 (N-lam)^2
LAMBDA_PERS = 32.958789676530359
# oracle: h^-theta * log(sigma^2 N / (sigma^2 N - beta + sqrt(beta^2 - 2 sigma^2(mu+gamma))))
ALPHA_BOUND_PERS = 17.758595241601707


class TestModelParams:
    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            ModelParams(N=10, beta=0.0, sigma=0.2, mu_plus_gamma=4.0, I0=1.0)
        with pytest.raises(ValueError):
            ModelParams(N=10, beta=0.5, sigma=-0.1, mu_plus_gamma=4.0, I0=1.0)
        with pytest.raises(ValueError):
            ModelParams(N=0, beta=0.5, sigma=0.2, mu_plus_gamma=4.0, I0=1.0)

    def test_rejects_initial_value_outside_domain(self):
        for bad in (0.0, 10.0, -1.0, 11.0):
            with pytest.raises(ValueError):
                ModelParams(N=10, beta=0.5, sigma=0.2, mu_plus_gamma=4.0, I0=bad)

    @pytest.mark.parametrize("N, sigma", [(1e155, 1.0), (100.0, 1e200), (math.inf, 1.0)])
    def test_rejects_constants_float64_cannot_hold(self, N, sigma):
        # sigma^2 N^2 overflows at N = 1e155 and sigma^2 at sigma = 1e200, where
        # ** would raise OverflowError
        with pytest.raises(ValueError, match="overflows float64"):
            ModelParams(N=N, beta=0.6, sigma=sigma, mu_plus_gamma=40.0, I0=10.0)

    def test_accepts_large_finite_constants(self):
        # sigma^2 N^2 = 1e300 still fits, and reproduction_numbers stays finite
        p = ModelParams(N=1e150, beta=0.6, sigma=1.0, mu_plus_gamma=40.0, I0=10.0)
        assert all(map(math.isfinite, reproduction_numbers(p)))


class TestOriginalCoefficients:
    def test_drift_absorbing_at_zero(self):
        assert drift_original(0.0, P_CONV1) == 0.0

    def test_drift_substitution(self):
        # oracle: 10*(5-4-5) = -40 and 1*(5-4-0.5) = 0.5
        assert drift_original(10.0, P_CONV1) == -40.0
        assert drift_original(1.0, P_CONV1) == 0.5

    def test_diffusion_boundary_zeros(self):
        assert diffusion_original(0.0, P_CONV1) == 0.0
        assert diffusion_original(10.0, P_CONV1) == 0.0

    def test_diffusion_substitution(self):
        # oracle: 0.2*1*9 = 1.8
        assert diffusion_original(1.0, P_CONV1) == pytest.approx(1.8, rel=1e-15)

    def test_vectorized(self):
        I = np.array([0.0, 1.0, 10.0])
        np.testing.assert_allclose(drift_original(I, P_CONV1), [0.0, 0.5, -40.0], rtol=1e-15)


class TestLogCoefficients:
    """log_coeffs returns (f, g, g g') of the log-transformed state."""

    def test_f_far_left_limit(self):
        # e^x underflows; f must settle at beta*N - mu - gamma - sigma^2 N^2 / 2 = -1
        assert log_coeffs(-800.0, P_CONV1)[0] == pytest.approx(-1.0, rel=1e-15)

    def test_f_at_zero(self):
        # oracle: -0.02 - 0.1 - 1 = -1.12
        assert log_coeffs(0.0, P_CONV1)[0] == pytest.approx(-1.12, rel=1e-15)

    def test_g_boundary_zero(self):
        # exp(log N) lands one ulp above N, so the zero is exact only in the
        # I coordinate (see diffusion_original); here it is zero to round-off
        assert abs(log_coeffs(math.log(10.0), P_CONV1)[1]) <= 1e-15

    def test_g_and_gg_prime_at_zero(self):
        # oracle: 0.2*(10-1) = 1.8, g' = -0.2 e^0 and -0.04*1*9 = -0.36
        _, gx, ggx = log_coeffs(0.0, P_CONV1)
        assert gx == pytest.approx(1.8, rel=1e-15)
        assert ggx / gx == pytest.approx(-0.2, rel=1e-15)
        assert ggx == pytest.approx(-0.36, rel=1e-15)

    def test_f_vanishes_at_log_lambda(self):
        # identity: the transformed-coordinate root sits at log(lambda)
        lam = persistence_lambda(P_PERS)
        assert abs(log_coeffs(math.log(lam), P_PERS)[0]) <= 1e-11

    def test_log_coeffs_matches_separate_functions(self):
        # Ito's formula on the original coefficients a(I), b(I) at I = e^x:
        # f = a/I - (b/I)^2 / 2, g = b/I, g g' = g * (-sigma I)
        x = np.linspace(-5.0, 2.0, 23)
        I = np.exp(x)
        a = drift_original(I, P_CONV1)
        b = diffusion_original(I, P_CONV1)
        fx, gx, ggx = log_coeffs(x, P_CONV1)
        np.testing.assert_allclose(fx, a / I - 0.5 * (b / I) ** 2, rtol=1e-13)
        np.testing.assert_allclose(gx, b / I, rtol=1e-13)
        np.testing.assert_allclose(ggx, -P_CONV1.sigma * b, rtol=1e-13)


class TestReproductionNumbers:
    def test_published_values(self):
        # R0^S values quoted for the four truncation parameter sets
        r0d, r0s = reproduction_numbers(
            ModelParams(N=100, beta=0.42, sigma=0.9, mu_plus_gamma=10.0, I0=10.0))
        assert r0s == pytest.approx(-400.8, rel=1e-12)
        assert r0d == pytest.approx(4.2, rel=1e-12)
        _, r0s = reproduction_numbers(P_PERS)
        assert r0s == pytest.approx(1.4875, rel=1e-12)
        _, r0s = reproduction_numbers(
            ModelParams(N=100, beta=0.6, sigma=0.1, mu_plus_gamma=40.0, I0=10.0))
        assert r0s == pytest.approx(0.25, rel=1e-12)

    def test_convergence_example_is_subcritical(self):
        _, r0s = reproduction_numbers(P_CONV1)
        assert r0s == pytest.approx(0.75, rel=1e-12)


class TestExtinctionThreshold:
    def test_case_small_sigma(self):
        # sigma^2 = 0.04 <= beta/N = 0.05; oracle: 5 - 4 - 2 = -1
        assert extinction_case(P_CONV1) is ExtinctionCase.SMALL_SIGMA
        assert f_max_sigma(P_CONV1) == pytest.approx(-1.0, rel=1e-14)

    def test_case_large_sigma(self):
        # sigma^2 = 0.81 > max(0.0042, 0.00882); oracle: 0.1764/1.62 - 10
        assert extinction_case(P_EXT) is ExtinctionCase.LARGE_SIGMA
        assert f_max_sigma(P_EXT) == pytest.approx(F_MAX_EXT, rel=1e-14)

    def test_supercritical_params_rejected(self):
        with pytest.raises(PreconditionError, match="R0"):
            f_max_sigma(P_PERS)  # R0^S = 1.4875

    def test_sigma_gap_reported(self):
        # beta/N = 0.05 < sigma^2 = 0.09 <= beta^2/(2(mu+gamma)) = 0.125, R0^S = 0.5
        p = ModelParams(N=10, beta=0.5, sigma=0.3, mu_plus_gamma=1.0, I0=1.0)
        assert extinction_case(p) is ExtinctionCase.NEITHER
        with pytest.raises(PreconditionError, match="no extinction case"):
            f_max_sigma(p)

    def test_bound_dominates_f_on_grid(self):
        # f(x) <= f_max^sigma wherever a case applies, sampled over (-20, log N)
        rng = np.random.default_rng(91)
        for p in (P_CONV1, P_EXT):
            fmax = f_max_sigma(p)
            x = rng.uniform(-20.0, math.log(p.N), size=10_000)
            assert np.all(log_coeffs(x, p)[0] <= fmax + 1e-12)


class TestPersistenceLambda:
    def test_published_root(self):
        lam = persistence_lambda(P_PERS)
        assert lam == pytest.approx(LAMBDA_PERS, abs=1e-9)
        assert abs(lam - 32.9588) < 1e-3  # 4-decimal value quoted with the example

    def test_residual_bound(self):
        lam = persistence_lambda(P_PERS)
        resid = (P_PERS.beta * P_PERS.N - P_PERS.mu_plus_gamma - P_PERS.beta * lam
                 - 0.5 * P_PERS.sigma**2 * (P_PERS.N - lam) ** 2)
        assert abs(resid) <= 1e-12

    def test_degenerate_noise_limit(self):
        # oracle: sigma -> 0 root is (beta*N - mu - gamma)/beta = 100/3
        p = ModelParams(N=100, beta=0.6, sigma=1e-8, mu_plus_gamma=40.0, I0=10.0)
        assert persistence_lambda(p) == pytest.approx(100.0 / 3.0, abs=1e-8)

    def test_subcritical_rejected(self):
        with pytest.raises(PreconditionError):
            persistence_lambda(P_CONV1)

    def test_root_in_domain_random_params(self):
        rng = np.random.default_rng(17)
        found = 0
        while found < 50:
            N = rng.uniform(5.0, 500.0)
            beta = rng.uniform(0.05, 2.0)
            mug = rng.uniform(0.05, 2.0) * beta * N  # keep R0^D near 1/x
            if mug <= 0:
                continue
            sigma = rng.uniform(1e-4, 0.5) / N
            p = ModelParams(N=N, beta=beta, sigma=sigma, mu_plus_gamma=mug, I0=N / 2)
            _, r0s = reproduction_numbers(p)
            if r0s <= 1.0:
                continue
            lam = persistence_lambda(p)
            assert 0.0 < lam < N
            found += 1


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


class TestClosedFormAccuracy:
    """persistence_lambda and persistence_alpha_bound against the textbook
    root (sigma^2 N - beta + sqrt(beta^2 - 2 sigma^2 (mu+gamma))) / sigma^2,
    evaluated in mpmath at 50 digits on the exact float inputs."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(N=log_uniform(2.0, 1e4), beta=log_uniform(1e-3, 10.0),
           sigma=log_uniform(1e-4, 10.0), mug=log_uniform(1e-2, 100.0))
    # a bisection to a residual of 1e-12 left lambda 1.4e-8 off here
    @example(N=3.58, beta=0.0116, sigma=0.00647, mug=0.0412)
    def test_relative_error_within_1e_12(self, N, beta, sigma, mug):
        p = ModelParams(N=N, beta=beta, sigma=sigma, mu_plus_gamma=mug, I0=N / 2)
        assume(reproduction_numbers(p)[1] > 1.0)
        with mpmath.workdps(50):
            n, b, s2, m = (mpmath.mpf(N), mpmath.mpf(beta), mpmath.mpf(sigma) ** 2,
                           mpmath.mpf(mug))
            lam = (s2 * n - b + mpmath.sqrt(b * b - 2 * s2 * m)) / s2
            bound = 16 * mpmath.log(n / lam)  # h = 1/4, theta = 2
            assert abs(persistence_lambda(p) / lam - 1) <= 1e-12
            assert abs(persistence_alpha_bound(p, h=0.25, theta=2.0) / bound - 1) <= 1e-12


# R0^S computes as 1.0000000000000002 and c0 as 0.0 here, with beta within an
# ulp of sigma^2 N; the square root of the radicand -1.08e-19 made
# `sis-lab dynamics` exit 1
AT_THRESHOLD = ModelParams(N=7.905563492230587, beta=0.026095940340185128,
                           sigma=0.05745397220061691,
                           mu_plus_gamma=0.10315155662439748, I0=1.0)


@st.composite
def threshold_sets(draw):
    """Models within a few ulps of the computed threshold R0^S = 1: mu + gamma
    is beta N - sigma^2 N^2 / 2 in floats, moved by -4 .. 4 ulps, and beta is
    sigma^2 N, where the persistence root's linear coefficient vanishes, or
    0.55 .. 4 times it."""
    n = draw(log_uniform(1.5, 1e4))
    sigma = draw(log_uniform(1e-3, 1.0)) / math.sqrt(n)
    s2 = sigma * sigma
    beta = s2 * n * draw(st.one_of(st.just(1.0), st.floats(0.55, 4.0)))
    mug = beta * n - 0.5 * s2 * n * n
    ulps = draw(st.integers(-4, 4))
    for _ in range(abs(ulps)):
        mug = math.nextafter(mug, math.copysign(math.inf, ulps))
    return ModelParams(N=n, beta=beta, sigma=sigma, mu_plus_gamma=mug, I0=n / 2)


class TestRegimeThreshold:
    """The regime decision and lambda agree in floating point at R0^S = 1."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(threshold_sets())
    @example(AT_THRESHOLD)
    def test_lambda_in_domain_and_bound_positive(self, p):
        lam = regime_report(p).persistence_lambda
        if lam is None:
            with pytest.raises(PreconditionError):
                persistence_alpha_bound(p, h=0.25, theta=2.0)
            return
        assert 0.0 < lam < p.N
        assert lam == persistence_lambda(p)
        for h in (2.0**-10, 0.25, 4.0):
            bound = persistence_alpha_bound(p, h=h, theta=2.0)
            assert math.isfinite(bound) and bound > 0.0

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(threshold_sets())
    @example(AT_THRESHOLD)
    def test_dynamics_exits_0_or_4(self, p):
        text = (f"[model]\nN = {p.N!r}\nbeta = {p.beta!r}\nsigma = {p.sigma!r}\n"
                f"mu_plus_gamma = {p.mu_plus_gamma!r}\nI0 = {p.I0!r}\n\n"
                "[scheme]\nh = 2^-2\nalpha = 0.1\ntheta = 2\n\n"
                "[run]\nt_final = 1\nn_paths = 2\nbase_seed = 7\n\n"
                "[dynamics]\nstep_sizes = 2^-2\nn_seeds = 2\n")
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "exp.cfg"
            cfg.write_text(text)
            assert main(["dynamics", "--config", str(cfg), "--out", tmp]) in (0, 4)

    def test_set_at_threshold_is_in_neither_regime(self):
        assert reproduction_numbers(AT_THRESHOLD)[1] > 1.0
        rep = regime_report(AT_THRESHOLD)
        assert rep.persistence_lambda is None and rep.f_max_sigma is None


# c0 computes as -3.55e-15 here, and the small-sigma rate the parent formed
# apart from c0, as 0.5 sigma**2 N**2, as 0.0
SMALL_SIGMA_AT_THRESHOLD = ModelParams(N=16.34270566918096, beta=2.925937231512081,
                                       sigma=0.40292296476267075,
                                       mu_plus_gamma=26.13759686626658, I0=1.0)
# LARGE_SIGMA, with beta^2 / (2 sigma^2) - (mu + gamma) computed as 0.0
LARGE_SIGMA_AT_BOUND = ModelParams(N=3235.385810186429, beta=0.013132642725535769,
                                   sigma=0.014835900944702692,
                                   mu_plus_gamma=0.39178374489907764, I0=1.0)


@st.composite
def large_sigma_bound_sets(draw):
    """Models with sigma^2 within a few ulps of beta^2 / (2 (mu + gamma)), where
    the LARGE_SIGMA rate beta^2 / (2 sigma^2) - (mu + gamma) is 0: sigma is the
    root of that bound, as extinction_case computes it, moved by -2 .. 4 ulps,
    and beta N is 1.1 .. 100 times 2 (mu + gamma), so that the bound lies above
    beta / N and c0 < 0."""
    n = draw(log_uniform(1.5, 1e4))
    mug = draw(log_uniform(1e-2, 100.0))
    beta = 2.0 * mug / n * draw(log_uniform(1.1, 100.0))
    bound = beta**2 / (2.0 * mug)
    ulps = draw(st.integers(-2, 4))
    for _ in range(abs(ulps)):
        bound = math.nextafter(bound, math.copysign(math.inf, ulps))
    return ModelParams(N=n, beta=beta, sigma=math.sqrt(bound), mu_plus_gamma=mug,
                       I0=n / 2)


def _returned_rate(p):
    """f_max_sigma(p), or None where it raises; regime_report agrees either way."""
    try:
        rate = f_max_sigma(p)
    except PreconditionError:
        rate = None
    assert regime_report(p).f_max_sigma == rate
    return rate


class TestExtinctionRate:
    """f_max_sigma never returns a decay rate at or above 0."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(threshold_sets())
    @example(SMALL_SIGMA_AT_THRESHOLD)
    def test_rate_below_zero_at_threshold(self, p):
        rate = _returned_rate(p)
        if rate is None:
            return
        assert rate < 0.0
        if extinction_case(p) is ExtinctionCase.SMALL_SIGMA:
            # f's limit at -inf, c0, bit for bit
            assert rate.hex() == float(log_coeffs(-np.inf, p)[0]).hex()

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(large_sigma_bound_sets())
    @example(LARGE_SIGMA_AT_BOUND)
    def test_rate_below_zero_at_large_sigma_bound(self, p):
        rate = _returned_rate(p)
        assert rate is None or rate < 0.0


class TestPersistenceAlphaBound:
    def test_substitution_oracle(self):
        b = persistence_alpha_bound(P_PERS, h=0.25, theta=2.0)
        assert b == pytest.approx(ALPHA_BOUND_PERS, rel=1e-12)

    def test_equals_log_ratio_of_population_to_lambda(self):
        # the bound is h^-theta * log(N / lambda), formed through N - lambda
        lam = persistence_lambda(P_PERS)
        b = persistence_alpha_bound(P_PERS, h=0.25, theta=2.0)
        assert b == pytest.approx(16.0 * math.log(P_PERS.N / lam), rel=1e-9)

    def test_paper_alpha_is_admissible(self):
        assert 0.1 < persistence_alpha_bound(P_PERS, h=0.25, theta=2.0)

    def test_positive_over_random_supercritical_draws(self):
        rng = np.random.default_rng(3)
        found = 0
        while found < 100:
            N = rng.uniform(5.0, 200.0)
            beta = rng.uniform(0.05, 2.0)
            mug = rng.uniform(0.1, 5.0)
            sigma = rng.uniform(1e-5, 1.0) / N
            try:
                p = ModelParams(N=N, beta=beta, sigma=sigma, mu_plus_gamma=mug, I0=N / 2)
            except ValueError:
                continue
            _, r0s = reproduction_numbers(p)
            if r0s <= 1.0:
                continue
            # radicand identity: beta^2 - 2 sigma^2 (mu+gamma) >= (beta - sigma^2 N)^2
            rad = beta**2 - 2 * sigma**2 * mug
            assert rad >= (beta - sigma**2 * N) ** 2 - 1e-12
            h = 2.0 ** -rng.integers(0, 6)
            assert persistence_alpha_bound(p, h=h, theta=2.0) > 0.0
            found += 1

    def test_subcritical_rejected(self):
        with pytest.raises(PreconditionError):
            persistence_alpha_bound(P_CONV1, h=0.25, theta=2.0)


class TestMonotonicitySplit:
    """Finite-difference sign checks of f on a grid over (-20, log N)."""

    def test_decreasing_when_sigma2N_below_beta(self):
        # P_CONV1: sigma^2 N = 0.4 <= beta = 0.5
        x = np.linspace(-20.0, math.log(10.0) - 1e-9, 2000)
        fx = log_coeffs(x, P_CONV1)[0]
        assert np.all(np.diff(fx) < 0.0)

    def test_single_peak_when_sigma2N_above_beta(self):
        p = ModelParams(N=100, beta=0.42, sigma=0.9, mu_plus_gamma=10.0, I0=10.0)
        x_star = math.log((p.sigma**2 * p.N - p.beta) / p.sigma**2)
        # the peak sits within 0.006 of log N, so the grid must be fine enough
        # to leave whole intervals on its right side
        x = np.linspace(-20.0, math.log(100.0) - 1e-9, 40001)
        fx = log_coeffs(x, p)[0]
        d = np.diff(fx)
        fully_left = x[1:] < x_star - 1e-6
        fully_right = x[:-1] > x_star + 1e-6
        assert fully_right.sum() > 0
        assert np.all(d[fully_left] > 0.0)
        assert np.all(d[fully_right] < 0.0)


class TestRegimeReport:
    def test_extinction_regime(self):
        rep = regime_report(P_EXT)
        assert rep.extinction_case is ExtinctionCase.LARGE_SIGMA
        assert rep.f_max_sigma == pytest.approx(F_MAX_EXT, rel=1e-14)
        assert rep.persistence_lambda is None
        assert rep.r0_stochastic < 1.0

    def test_persistence_regime(self):
        rep = regime_report(P_PERS)
        assert rep.f_max_sigma is None
        assert rep.persistence_lambda == pytest.approx(LAMBDA_PERS, abs=1e-9)

    def test_gap_regime(self):
        rep = regime_report(ModelParams(N=10, beta=0.5, sigma=0.3, mu_plus_gamma=1.0, I0=1.0))
        assert rep.extinction_case is ExtinctionCase.NEITHER
        assert rep.f_max_sigma is None
        assert rep.persistence_lambda is None
