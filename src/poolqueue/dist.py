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

The exponential kernel is a geometric law in closed form.  The deterministic
and Erlang kernels (Poisson and negative binomial) are built by their ratio
recurrence, run from the mode and normalized by the summed mass: every value
is non-negative, every tail ``P{N >= k}`` is a sum of such values, and each
carries only rounding per step of the recurrence.  Adaptive quadrature of the
defining integral is kept as an independent cross-check oracle.

Every kernel needs numpy alone.  ``scipy`` is imported through
:func:`scipy_module` the first time an Erlang ``cdf`` or the quadrature oracle
is evaluated (and, in :mod:`poolqueue.embedded`, by the truncate-and-
renormalize route), so a process on the default route never loads it.
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
_LN2 = math.log(2.0)


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
        """P{exactly k rate-``lam`` events during one interval}.

        Exponential intervals (and Erlang ones of shape 1) give a geometric
        law, in closed form.  Deterministic intervals give a Poisson law and
        Erlang intervals a negative binomial with parameters ``m`` and
        ``m / (m + lam * a)``; both come from the ratio recurrence of
        :func:`_mixture_window`.  Vectorized over ``k``; a ``k`` past the
        kernel's reach costs nothing (but see :func:`_mixture_window` for
        kernels too wide to hold).
        """
        la = self._offered(lam)
        k = np.asarray(k)
        if np.any(k < 0):
            raise ValueError("k must be non-negative")
        if self._geometric():
            p = 1.0 / (1.0 + la)
            out = p * np.exp(k * _log_ratio(la))
        else:
            lo, terms, _ = self._window(la, int(k.max(initial=0)))
            j = (k - lo).astype(np.intp)
            inside = (j >= 0) & (j < terms.size)
            out = np.zeros(k.shape)
            out[inside] = terms[j[inside]]
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
        """Kernel values for k = 0..kmax plus the remaining tail mass.

        For deterministic and Erlang postings the tail is the sum of the
        kernel's terms past ``kmax``, not ``1 - sum(row)``.
        """
        if kmax < 0:
            raise ValueError(f"kmax must be non-negative, got {kmax}")
        if self._geometric():
            row = np.asarray(self.psi(lam, np.arange(kmax + 1)), dtype=float)
            return row, max(1.0 - float(row.sum()), 0.0)
        return self._mixture_row(lam, kmax)

    def psi_tails(self, lam: float, kmax: int) -> np.ndarray:
        """``P{N >= k}`` for k = 0..kmax, N kernel-distributed.

        No entry is taken as ``1 - sum(psi)``, so each keeps full relative
        accuracy where the kernel is nearly a point mass at 0 (``lam * a``
        far below 1): exponential tails come from the geometric closed form,
        the others are sums of the kernel's non-negative terms
        (:func:`_tails_of`).
        """
        la = self._offered(lam)
        if kmax < 0:
            raise ValueError(f"kmax must be non-negative, got {kmax}")
        if not self._geometric():
            return _tails_of(*self._mixture_row(lam, kmax))
        k = np.arange(1, kmax + 1)
        return np.concatenate(([1.0], np.exp(k * _log_ratio(la))))

    def psi_and_tails(self, lam: float, kmax: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`psi_row`'s values and :meth:`psi_tails` for the same
        ``kmax``, from one evaluation of the kernel."""
        row, tail = self.psi_row(lam, kmax)
        if self._geometric():
            return row, self.psi_tails(lam, kmax)
        return row, _tails_of(row, tail)

    def _geometric(self) -> bool:
        """Exponential intervals, Erlang ones of shape 1 among them, give the
        geometric kernel, whose closed form is exact to rounding."""
        return self.kind == EXPONENTIAL or (self.kind == ERLANG and self.shape == 1)

    def _offered(self, lam: float) -> float:
        """``lam * a``, the mean number of events in one interval."""
        if lam <= 0:
            raise ValueError(f"lam must be positive, got {lam}")
        return lam * self.mean

    def _window(self, la: float, kmax: int) -> tuple[int, np.ndarray, float]:
        """:func:`_mixture_window` of the deterministic or Erlang kernel."""
        return _mixture_window(la, None if self.kind == DETERMINISTIC else self.shape, kmax)

    def _mixture_row(self, lam: float, kmax: int) -> tuple[np.ndarray, float]:
        """:meth:`psi_row` for the deterministic and Erlang kinds."""
        lo, terms, tail = self._window(self._offered(lam), kmax)
        if lo == 0 and terms.size == kmax + 1:
            return terms, tail
        row = np.zeros(kmax + 1)
        row[lo : lo + terms.size] = terms
        return row, tail

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


# The mixture window keeps every term above e**-_ZERO_LOG of the largest one
# (below the smallest double) and, past the terms a caller asks for, enough
# terms that the part of their tail left out is below e**-_TAIL_LOG of it.
_TAIL_LOG = 42.0
_ZERO_LOG = 788.0
_LEFT_SDS = 40.0  # the terms fall below e**-800 within 40 sds left of the mode
_ANCHOR_SLACK = 4096  # a window this much longer than 2 * (kmax + 1) is huge
_WINDOW_MAX = 1 << 24  # terms; a wider window raises rather than exhaust memory


def _steps(r: float, log_target: float) -> float:
    """Terms of a tail whose ratios stay at or below ``r`` until the sum of the
    rest is below ``exp(-log_target)`` of its first term."""
    if r <= 0.0:
        return 1.0
    if r >= 1.0:
        return math.inf
    return math.ceil((log_target - math.log1p(-r)) / -math.log(r))


def _mixture_window(la: float, m: int | None, kmax: int) -> tuple[int, np.ndarray, float]:
    """Poisson (``m`` None) or negative-binomial (shape ``m``) kernel with mean
    ``la``, as ``(lo, terms, tail)``: ``terms[i]`` is ``psi_{lo+i}``, every other
    ``psi_k`` with k <= kmax is 0 to double precision, and ``tail`` is
    ``P{N > kmax}``.

    The ratio ``psi_{k+1} / psi_k`` is ``la / (k+1)`` or ``q (k+m) / (k+1)``
    with ``q = la / (m + la)``.  The terms run by ``cumprod`` up and down from
    the value 1 at the mode, so none overflows and each carries only
    rounding per step, and are divided by their summed mass.  The window and
    that sum do not depend on ``kmax``, so rows for different ``kmax`` agree
    bit for bit; only terms past the sum's end are added to reach accurate
    small tails.

    Where every term up to ``kmax`` lies below the mode's window, they are
    exact zeros and the tail 1.  Where a negative binomial spreads so far
    that the window would be huge and ``P{N <= kmax}`` is at most 1/2, the row
    is instead anchored on ``psi_0 = (1 + la/m)^-m`` and its tail is one minus
    its sum.  Memory and time are bounded by ``kmax`` plus the kernel's
    spread: a ``kmax`` past the last term above the smallest double costs no
    more, and a window over ``_WINDOW_MAX`` terms raises ValueError.
    """
    if m is None:
        s, s_err, k_star, var = 1.0, 0.0, la - 1.0, la
        ratio = lambda k: la / (k + 1.0)
    else:
        s = m + la
        s_err = (m - (s - (s - m))) + (la - (s - m))  # m + la = s + s_err exactly
        # capped so the window's arithmetic stays finite; past it the window
        # is far beyond any memory either way
        k_star, var = la * ((m - 1) / m) - 1.0, min(la * (s / m), 1e300)
        ratio = lambda k: la / s * ((k + m) / (k + 1.0))
    mode = math.floor(k_star) + 1 if k_star >= 0.0 else 0
    sd = math.sqrt(var)
    lo_f = mode - _LEFT_SDS * sd - 2.0
    if lo_f > kmax:
        return 0, np.zeros(0), 1.0
    j0 = mode + math.ceil(math.sqrt(_TAIL_LOG * var))
    r0 = ratio(j0)
    end = j0 + _steps(r0, _TAIL_LOG)  # the sum of the mass runs to here
    cap = j0 + _steps(r0, _ZERO_LOG)  # every term past cap is below the smallest double
    if kmax < cap:
        j = max(kmax, j0)
        hi = max(end, j + _steps(ratio(j), _TAIL_LOG))
    else:
        hi = max(end, cap)
    lo = max(0, math.floor(lo_f))
    # P{N <= kmax} <= 1 - q^(kmax+1) <= (kmax + 1)(1 - q) <= 1/2
    anchor = m is not None and hi - lo > 2 * (kmax + 1) + _ANCHOR_SLACK and (kmax + 1) * m <= 0.5 * s
    if anchor:
        # psi_0, scaled by 2**shift while the products run so none underflows early
        log0 = -m * math.log1p(la / m)
        shift = min(1000, max(0, math.ceil((-log0 - 700.0) / _LN2)))
        lo, i, hi, start = 0, 0, kmax, math.exp(log0 + shift * _LN2)
    else:
        i, start = mode - lo, 1.0
    if hi - lo >= _WINDOW_MAX:
        raise ValueError(f"the kernel at mean {la:g} needs about {hi - lo + 1:.3g} terms up to k = {kmax}")

    hi = int(hi)
    # terms[k - lo] holds psi_k / psi_{k-1} above index i and psi_k / psi_{k+1}
    # below it, then the products running outward from terms[i] = start
    k1 = np.arange(lo + 1.0, hi + 1.0)  # k + 1 for k = lo..hi-1
    terms = np.empty(hi - lo + 1)
    terms[i] = start
    if m is None:
        np.divide(la, k1[i:], out=terms[i + 1 :])
        np.divide(k1[:i], la, out=terms[:i])
    else:
        ratios = la * ((k1 + (m - 1)) / (s * k1))
        terms[i + 1 :] = ratios[i:]
        np.divide(1.0, ratios[:i], out=terms[:i])
    np.multiply.accumulate(terms[i:], out=terms[i:])
    if i:
        np.multiply.accumulate(terms[i::-1], out=terms[i::-1])
    if s_err:
        # each ratio divided by the rounded m + la: undo that bias, which
        # would otherwise grow by up to one rounding per step from index i
        terms *= np.exp((i - np.arange(terms.size)) * math.log1p(s_err / s))
    if anchor:
        terms = np.ldexp(terms, -shift)
        return 0, terms, 1.0 - float(terms.sum())
    top, end = int(min(kmax, cap)), int(end)
    total = np.add.reduce(terms[: end - lo + 1])
    tail = np.add.reduce(terms[top - lo + 1 :]) / total if kmax < cap else 0.0
    return lo, terms[: top - lo + 1] / total, tail


def _tails_of(row: np.ndarray, tail: float) -> np.ndarray:
    """``P{N >= k}`` for k = 0..kmax from ``psi_0..psi_kmax`` and
    ``P{N > kmax}``: each a sum of non-negative terms, taken from the
    smallest up, so the tails are non-increasing and none exceeds 1."""
    sums = np.empty(row.size + 1)
    sums[0] = tail
    sums[1:-1] = row[:0:-1]
    np.add.accumulate(sums[:-1], out=sums[:-1])  # P{N > kmax} .. P{N >= 1}
    sums[-1] = 1.0
    return np.minimum(sums[:0:-1], 1.0)


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
