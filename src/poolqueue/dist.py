"""Posting-interval distributions and the Poisson-mixture kernel.

The interval between consecutive bulk postings is an i.i.d. draw from a
distribution A with mean ``a``.  Three families are supported: exponential,
deterministic (a point mass at ``a``) and Erlang with integer shape ``m``
(rate ``m/a``, so the mean is exactly ``a``).

Two quantities drive every downstream computation:

* ``lst`` -- the Laplace-Stieltjes transform ``E[exp(-theta * D)]``;
* ``psi`` -- the probability that exactly ``k`` events of a Poisson process
  with rate ``lam`` fall inside one interval,
  ``psi(k) = integral exp(-lam x) (lam x)^k / k! dA(x)``.

Closed forms exist for all three families (geometric, Poisson and negative
binomial mixtures respectively); adaptive quadrature of the defining integral
is kept as an independent cross-check oracle.

The exponential family needs numpy alone.  ``scipy.special`` is imported the
first time a deterministic or Erlang kernel (or an Erlang ``cdf``) is
evaluated, through :func:`scipy_module`, so a process that only meets
exponential postings never loads scipy.
"""

from __future__ import annotations

import functools
import importlib
import math
from dataclasses import dataclass

import numpy as np

EXPONENTIAL = "exponential"
DETERMINISTIC = "deterministic"
ERLANG = "erlang"

_KINDS = (EXPONENTIAL, DETERMINISTIC, ERLANG)


@functools.cache
def scipy_module(name: str):
    """``scipy.<name>``, imported on the first call and bound for the rest of
    the process; scipy takes several times longer to import than the rest of
    the package."""
    return importlib.import_module(f"scipy.{name}")


def whole_number(name: str, value, least: int) -> int:
    """``value`` as an ``int`` when it is a whole number >= ``least``;
    ValueError otherwise (also for booleans, non-numbers, NaN and
    infinities)."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or isinstance(value, bool) or n != value or n < least:
        what = "a positive integer" if least == 1 else f"an integer >= {least}"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return n


def positive_int(name: str, value) -> int:
    """``value`` as an ``int`` when it is a whole number >= 1."""
    return whole_number(name, value, 1)


@dataclass(frozen=True)
class PostingDistribution:
    """Distribution of the interval between consecutive postings.

    ``shape`` is only meaningful for the Erlang family; it defaults to 1, is
    checked to be a positive integer for every kind and is ignored by the
    other kinds.
    """

    kind: str
    mean: float
    shape: int = 1

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown distribution kind {self.kind!r}; expected one of {_KINDS}"
            )
        if not (math.isfinite(self.mean) and self.mean > 0):
            raise ValueError(f"mean must be positive and finite, got {self.mean}")
        object.__setattr__(self, "shape", positive_int("shape", self.shape))

    # -- basic functionals ------------------------------------------------

    def lst(self, theta: float) -> float:
        """Laplace-Stieltjes transform ``E[exp(-theta * D)]`` for theta >= 0."""
        if theta < 0:
            raise ValueError(f"theta must be non-negative, got {theta}")
        a = self.mean
        if self.kind == EXPONENTIAL:
            return 1.0 / (1.0 + a * theta)
        if self.kind == DETERMINISTIC:
            return math.exp(-a * theta)
        m = self.shape
        return (1.0 + a * theta / m) ** (-m)

    def cdf(self, x):
        """CDF of the interval length, vectorized over ``x``."""
        x = np.asarray(x, dtype=float)
        a = self.mean
        if self.kind == EXPONENTIAL:
            return np.where(x < 0, 0.0, -np.expm1(-x / a))
        if self.kind == DETERMINISTIC:
            return np.where(x >= a, 1.0, 0.0)
        return scipy_module("special").gammainc(self.shape, np.maximum(x, 0.0) / (a / self.shape))

    def variance(self) -> float:
        if self.kind == EXPONENTIAL:
            return self.mean**2
        if self.kind == DETERMINISTIC:
            return 0.0
        return self.mean**2 / self.shape

    # -- Poisson-mixture kernel -------------------------------------------

    def psi(self, lam: float, k) -> float | np.ndarray:
        """P{exactly k rate-``lam`` events during one interval}, closed form.

        Exponential intervals give a geometric law, deterministic a Poisson
        law and Erlang a negative binomial with parameters ``m`` and
        ``m / (m + lam * a)``.  Vectorized over ``k``.
        """
        if lam <= 0:
            raise ValueError(f"lam must be positive, got {lam}")
        la = lam * self.mean
        k = np.asarray(k)
        if np.any(k < 0):
            raise ValueError("k must be non-negative")
        if self.kind == EXPONENTIAL:
            p = 1.0 / (1.0 + la)
            out = p * np.exp(k * _log_ratio(la))
        elif self.kind == DETERMINISTIC:
            sp = scipy_module("special")
            out = np.exp(sp.xlogy(k, la) - sp.gammaln(k + 1) - la)
        else:
            # C(k+m-1, m-1) p^m (1-p)^k with p = 1 / (1 + x), x = la / m;
            # log(1 - p) = _log_ratio(x) keeps full accuracy where p is near 1.
            # Past 1e308 the binomial overflows, and its log comes from gammaln.
            sp = scipy_module("special")
            m = self.shape
            x = la / m
            log_c = np.log(sp.binom(k + m - 1, m - 1))
            log_c = np.where(np.isinf(log_c), sp.gammaln(k + m) - sp.gammaln(m) - sp.gammaln(k + 1), log_c)
            out = np.exp(log_c + k * _log_ratio(x) - m * math.log1p(x))
        return float(out) if out.ndim == 0 else out

    def psi_quadrature(self, lam: float, k: int) -> float:
        """Same kernel evaluated by adaptive quadrature of the defining
        integral; independent cross-check for :meth:`psi`.

        For the deterministic kind the mixing measure is a point mass, so the
        integral collapses to the integrand evaluated at the mass point.
        """
        if lam <= 0:
            raise ValueError(f"lam must be positive, got {lam}")
        if k < 0:
            raise ValueError("k must be non-negative")
        from scipy import integrate, stats  # oracle only; slow to import

        gammaln = scipy_module("special").gammaln
        a = self.mean

        def poisson_weight(x):
            with np.errstate(divide="ignore"):
                logw = -lam * x + k * np.log(lam * x) - gammaln(k + 1)
            return np.exp(logw) if x > 0 else (1.0 if k == 0 else 0.0)

        if self.kind == DETERMINISTIC:
            return poisson_weight(a)
        if self.kind == EXPONENTIAL:
            density = lambda x: math.exp(-x / a) / a
            upper = -a * math.log(1e-13)
        else:
            m = self.shape
            frozen = stats.gamma(m, scale=a / m)
            density = frozen.pdf
            upper = float(frozen.ppf(1.0 - 1e-14))
        # the integrand peaks near x = k / lam; hint that to the integrator
        peak = min(max(k / lam, 1e-6), upper * 0.999)
        value, _ = integrate.quad(
            lambda x: poisson_weight(x) * density(x),
            0.0,
            upper,
            epsabs=1e-12,
            epsrel=1e-12,
            limit=400,
            points=[peak, a],
        )
        return value

    def psi_row(self, lam: float, kmax: int) -> tuple[np.ndarray, float]:
        """Kernel values for k = 0..kmax plus the remaining tail mass."""
        if kmax < 0:
            raise ValueError(f"kmax must be non-negative, got {kmax}")
        row = np.asarray(self.psi(lam, np.arange(kmax + 1)), dtype=float)
        tail = max(1.0 - float(row.sum()), 0.0)
        return row, tail

    def psi_tails(self, lam: float, kmax: int) -> np.ndarray:
        """``P{N >= k}`` for k = 0..kmax, N kernel-distributed.

        Each entry comes from the family's closed-form survival function, not
        from ``1 - sum(psi)``, so it keeps full relative accuracy where the
        kernel is nearly a point mass at 0 (``lam * a`` far below 1).
        """
        if lam <= 0:
            raise ValueError(f"lam must be positive, got {lam}")
        if kmax < 0:
            raise ValueError(f"kmax must be non-negative, got {kmax}")
        la = lam * self.mean
        k = np.arange(1, kmax + 1)
        if self.kind == EXPONENTIAL:
            rest = np.exp(k * _log_ratio(la))
        elif self.kind == DETERMINISTIC:
            rest = scipy_module("special").pdtrc(k - 1, la)
        else:
            m = self.shape
            rest = scipy_module("special").betainc(k, m, la / (m + la))
        return np.concatenate(([1.0], rest))

    # -- sampling ----------------------------------------------------------

    def sample(self, rng: np.random.Generator, size=None):
        """Draw interval lengths using the caller-owned generator."""
        a = self.mean
        if self.kind == EXPONENTIAL:
            return rng.exponential(a, size)
        if self.kind == DETERMINISTIC:
            return a if size is None else np.full(size, a)
        return rng.gamma(self.shape, a / self.shape, size)


def _log_ratio(la: float) -> float:
    """``log(la / (1 + la))``, the log of the geometric kernel's ratio.

    Below ``la = 1`` it is taken as a difference of logs: ``log1p(-p)`` with
    ``p = 1 / (1 + la)`` loses relative accuracy there and reaches ``-inf``
    once ``p`` rounds to 1 (near ``la = 1e-16``)."""
    if la < 1.0:
        return math.log(la) - math.log1p(la)
    return math.log1p(-1.0 / (1.0 + la))


def parse_distribution(spec: dict) -> PostingDistribution:
    """Build a distribution from a tagged config record.

    Accepted forms: ``{"kind": "exponential", "mean": 1.3}`` and
    ``{"kind": "erlang", "mean": 1.3, "shape": 3}``.  Unknown keys are
    rejected by name.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"distribution spec must be a mapping, got {type(spec).__name__}")
    allowed = {"kind", "mean", "shape"}
    for key in spec:
        if key not in allowed:
            raise ValueError(f"unknown distribution key {key!r}")
    if "kind" not in spec or "mean" not in spec:
        raise ValueError("distribution spec requires 'kind' and 'mean'")
    return PostingDistribution(
        kind=str(spec["kind"]),
        mean=float(spec["mean"]),
        shape=spec.get("shape", 1),
    )
