"""Stochastic SIS epidemic model: coefficients and regime thresholds.

The infected count I follows

    dI = I (beta N - mu - gamma - beta I) dt + sigma I (N - I) dW

on the open interval (0, N). The integrator works on the transformed state
X = log I, whose drift f and diffusion g are polynomials in e^x; everything
here is expressed through that pair plus the thresholds that decide whether a
parameter set sits in the extinction or the persistence regime.
"""

from __future__ import annotations

import enum
import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExtinctionCase",
    "ModelParams",
    "PreconditionError",
    "RegimeReport",
    "diffusion_original",
    "drift_original",
    "extinction_case",
    "f_max_sigma",
    "log_coeffs",
    "persistence_alpha_bound",
    "persistence_lambda",
    "regime_report",
    "reproduction_numbers",
]


class PreconditionError(Exception):
    """A computation was asked for outside its parameter regime."""


@dataclass(frozen=True)
class ModelParams:
    """Model constants: population N, contact rate beta, noise intensity
    sigma, combined recovery/death rate mu + gamma, and initial infected I0."""

    N: float
    beta: float
    sigma: float
    mu_plus_gamma: float
    I0: float

    def __post_init__(self):
        if not self.N > 0:
            raise ValueError("N must be positive")
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if not self.mu_plus_gamma > 0:
            raise ValueError("mu_plus_gamma must be positive")
        if not 0.0 < self.I0 < self.N:
            raise ValueError("I0 must lie in (0, N)")
        derived = (*_log_constants(self), self.beta * self.beta,
                   *reproduction_numbers(self))
        if not all(map(math.isfinite, derived)):
            raise ValueError("a constant derived from N, beta, sigma and "
                             "mu_plus_gamma overflows float64")


class ExtinctionCase(enum.Enum):
    """Which sigma condition of the extinction theorem holds, if any."""

    SMALL_SIGMA = "small"    # sigma^2 <= beta / N
    LARGE_SIGMA = "large"    # sigma^2 > max(beta / N, beta^2 / (2 (mu + gamma)))
    NEITHER = "neither"


def drift_original(I, p):
    """Drift of the untransformed equation, I (beta N - mu - gamma - beta I)."""
    return I * (p.beta * p.N - p.mu_plus_gamma - p.beta * I)


def diffusion_original(I, p):
    """Diffusion of the untransformed equation, sigma I (N - I)."""
    return p.sigma * I * (p.N - I)


def log_coeffs(x, p):
    """Drift, diffusion, and Milstein correction of the log-transformed state.

    Returns (f(x), g(x), (g g')(x)) sharing a single exponential evaluation,
    which is what makes the stepping kernels cheap. Inputs go through
    ``np.asarray`` so scalars and batches follow the identical code path.
    """
    x = np.asarray(x, dtype=np.float64)
    ex = np.exp(x)
    a1, sigma, a2, c0, n, neg_s2 = _log_constants(p)
    fx = (a1 * ex + a2) * ex + c0
    gx = sigma * (n - ex)
    ggx = neg_s2 * ex * (n - ex)
    return fx, gx, ggx


def _log_constants(p):
    """(-sigma^2 / 2, sigma, sigma^2 N - beta, c0, N, -sigma^2), log_coeffs'
    constants. c0 = beta N - mu - gamma - sigma^2 N^2 / 2 = (mu + gamma)(R0^S - 1)
    decides the regime by its sign, so the thresholds read the c0 the kernels use."""
    s2 = p.sigma * p.sigma
    return (-0.5 * s2, p.sigma, s2 * p.N - p.beta,
            p.beta * p.N - p.mu_plus_gamma - 0.5 * s2 * p.N * p.N, p.N, -s2)


def reproduction_numbers(p):
    """(R0^D, R0^S), from float products: inf where ** raises OverflowError."""
    r0d = p.beta * p.N / p.mu_plus_gamma
    r0s = r0d - p.sigma * p.sigma * (p.N * p.N) / (2.0 * p.mu_plus_gamma)
    return r0d, r0s


def extinction_case(p):
    """Classify sigma against the two extinction conditions.

    The split is purely about sigma; whether extinction actually holds also
    needs R0^S < 1, which f_max_sigma enforces.
    """
    s2 = p.sigma**2
    if s2 <= p.beta / p.N:
        return ExtinctionCase.SMALL_SIGMA
    if s2 > max(p.beta / p.N, p.beta**2 / (2.0 * p.mu_plus_gamma)):
        return ExtinctionCase.LARGE_SIGMA
    return ExtinctionCase.NEITHER


def f_max_sigma(p):
    """Upper bound of f over (-inf, log N): the almost-sure decay rate of
    log I_t / t in the extinction regime, always below 0 when returned."""
    c0 = _log_constants(p)[3]
    if c0 >= 0.0:
        raise PreconditionError(f"R0^S = {reproduction_numbers(p)[1]:g} >= 1: "
                                "extinction bound requires R0^S < 1")
    case = extinction_case(p)
    if case is ExtinctionCase.SMALL_SIGMA:
        return c0
    # LARGE_SIGMA's rate is below 0, but rounds to 0 within an ulp of its bound
    rate = p.beta**2 / (2.0 * p.sigma**2) - p.mu_plus_gamma
    if case is ExtinctionCase.NEITHER or not rate < 0.0:
        raise PreconditionError(
            "no extinction case applies: sigma^2 is not above beta^2/(2(mu+gamma)) "
            f"by more than a rounding (rate {rate:g}), nor at most beta/N")
    return rate


def _persistence_roots(p):
    """lambda and N - lambda, each formed from c0 without cancellation; the
    radicand b^2 + 2 sigma^2 c0 is beta^2 - 2 sigma^2 (mu + gamma), here > 0."""
    _, _, a2, c0, _, neg_s2 = _log_constants(p)
    if not c0 > 0.0:
        raise PreconditionError(f"R0^S = {reproduction_numbers(p)[1]:g} <= 1: "
                                "persistence level requires R0^S > 1")
    s2, b = -neg_s2, -a2
    root = math.sqrt(b * b + 2.0 * s2 * c0)
    lam = 2.0 * c0 / (b + root) if b > 0.0 else (root - b) / s2
    return lam, 2.0 * p.mu_plus_gamma / (p.beta + root)


def persistence_lambda(p):
    """Root of beta N - mu - gamma - beta lam - sigma^2 (N - lam)^2 / 2 in (0, N).

    The residual is concave in lam, positive at 0 exactly when R0^S > 1, that
    is when c0 > 0, and -(mu + gamma) at N. With b = beta - sigma^2 N it reads
    c0 - b lam - sigma^2 lam^2 / 2, whose positive root 2 c0 / (b + sqrt(D))
    or (sqrt(D) - b) / sigma^2, D = b^2 + 2 sigma^2 c0, has no cancellation and
    falls to 0 as R0^S falls to 1. lam's condition number in N is N / lam, so
    near R0^S = 1 its relative error is about 1e-16 N / lam.
    """
    return _persistence_roots(p)[0]


def persistence_alpha_bound(p, h, theta):
    """Largest admissible truncation coefficient alpha for the persistence
    theorem at step size h and exponent theta: h^-theta log(N / lambda)."""
    # log1p((N - lambda) / lambda) keeps its digits at either end of (0, N)
    lam, gap = _persistence_roots(p)
    return h**-theta * math.log1p(gap / lam)


@dataclass(frozen=True)
class RegimeReport:
    """Summary of which long-run theorem (if either) covers a parameter set."""

    r0_deterministic: float
    r0_stochastic: float
    extinction_case: ExtinctionCase
    f_max_sigma: float | None
    persistence_lambda: float | None


def regime_report(p):
    r0d, r0s = reproduction_numbers(p)
    fmax = lam = None
    if _log_constants(p)[3] > 0.0:
        lam = persistence_lambda(p)
    else:
        with suppress(PreconditionError):  # c0 = 0, or no case gives a rate below 0
            fmax = f_max_sigma(p)
    return RegimeReport(r0_deterministic=r0d, r0_stochastic=r0s,
                        extinction_case=extinction_case(p), f_max_sigma=fmax,
                        persistence_lambda=lam)
