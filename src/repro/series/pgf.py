"""Probability generating functions (PGFs) on the non-negative integers.

A :class:`PGF` wraps a :class:`~repro.series.rational.RationalFunction`
``g(z) = E[z^X]`` and provides the probabilistic vocabulary the queueing
analysis speaks: means, variances, factorial moments of any order, the
probability mass function, convolution (sums of independent variables)
and compounding (random sums), plus validation that the object really is
a PGF (``g(1) = 1``, non-negative mass).

Exactness
---------
When constructed from exact data the entire moment pipeline is exact
(``Fraction`` arithmetic end to end); this is what lets the test suite
assert the paper's closed forms with **zero** tolerance.  The pmf
extraction offers both an exact mode and a float fast path (the
recurrence behind the float path is the standard series long-division,
numerically benign here because every pmf coefficient is non-negative
and the denominator is dominated by its constant term for stable
queues).
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Union

import numpy as np

from repro.errors import NotAProbabilityError, SeriesError
from repro.series.polynomial import Polynomial, Scalar, as_exact
from repro.series.rational import RationalFunction
from repro.series.taylor import (
    central_from_raw,
    factorial_from_taylor,
    raw_from_factorial,
)

__all__ = ["PGF"]


class PGF:
    """A probability generating function ``E[z^X]`` for integer ``X >= 0``.

    Parameters
    ----------
    transform:
        The generating function as a
        :class:`~repro.series.rational.RationalFunction` (or a
        :class:`~repro.series.polynomial.Polynomial`, which is wrapped).
    validate:
        When true (default) check that ``g(1) == 1``.  The non-negativity
        of the mass function is *not* exhaustively checkable for rational
        transforms; :meth:`pmf` rechecks the extracted prefix.

    Examples
    --------
    >>> from fractions import Fraction
    >>> coin = PGF.from_pmf([Fraction(1, 2), Fraction(1, 2)])   # Bernoulli(1/2)
    >>> coin.mean()
    Fraction(1, 2)
    >>> (coin + coin).variance()      # sum of two independent coins
    Fraction(1, 2)
    """

    __slots__ = ("_transform", "_reduced_cache", "_series_cache")

    def __init__(
        self,
        transform: Union[RationalFunction, Polynomial],
        validate: bool = True,
    ) -> None:
        if isinstance(transform, Polynomial):
            transform = RationalFunction(transform)
        if not isinstance(transform, RationalFunction):
            raise SeriesError("PGF requires a RationalFunction or Polynomial")
        self._transform = transform
        if validate:
            total = transform.evaluate(1)
            if not _is_one(total):
                raise NotAProbabilityError(
                    f"generating function evaluates to {total} at z=1, expected 1"
                )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_pmf(cls, pmf: Sequence[Scalar], exact: bool = True) -> "PGF":
        """Build a PGF from a finite probability mass function.

        ``pmf[j]`` is ``P(X = j)``.  With ``exact=True`` the entries are
        converted to :class:`~fractions.Fraction` via their decimal
        representation (see :func:`repro.series.polynomial.as_exact`).
        """
        values = [as_exact(p) if exact else p for p in pmf]
        total = sum(values)
        if any(v < 0 for v in values):
            raise NotAProbabilityError("pmf has negative mass")
        if not _is_one(total):
            raise NotAProbabilityError(f"pmf sums to {total}, expected 1")
        return cls(RationalFunction(Polynomial(values)), validate=False)

    @classmethod
    def degenerate(cls, value: int) -> "PGF":
        """The PGF of the constant ``value`` (i.e. ``z**value``)."""
        if value < 0:
            raise NotAProbabilityError("degenerate PGF requires value >= 0")
        return cls(RationalFunction(Polynomial.monomial(value)), validate=False)

    @classmethod
    def bernoulli(cls, p: Scalar) -> "PGF":
        """PGF of a Bernoulli(``p``) indicator: ``1 - p + p z``."""
        p = as_exact(p)
        if not 0 <= p <= 1:
            raise NotAProbabilityError(f"Bernoulli parameter {p} outside [0, 1]")
        return cls.from_pmf([1 - p, p])

    @classmethod
    def binomial(cls, n: int, p: Scalar) -> "PGF":
        """PGF of a Binomial(``n``, ``p``): ``(1 - p + p z)**n``."""
        if n < 0:
            raise NotAProbabilityError("binomial count must be >= 0")
        p = as_exact(p)
        if not 0 <= p <= 1:
            raise NotAProbabilityError(f"binomial parameter {p} outside [0, 1]")
        base = Polynomial([1 - p, p])
        return cls(RationalFunction(base ** n), validate=False)

    @classmethod
    def geometric(cls, p: Scalar) -> "PGF":
        """PGF of a Geometric(``p``) on ``{1, 2, ...}``: ``p z / (1 - (1-p) z)``.

        This is the paper's Section III-B service distribution
        ``g_j = p (1-p)^{j-1}``.
        """
        p = as_exact(p)
        if not 0 < p <= 1:
            raise NotAProbabilityError(f"geometric parameter {p} outside (0, 1]")
        num = Polynomial([0, p])
        den = Polynomial([1, -(1 - p)])
        return cls(RationalFunction(num, den), validate=False)

    @classmethod
    def shifted_geometric(cls, p: Scalar) -> "PGF":
        """PGF of a Geometric(``p``) on ``{0, 1, ...}``: ``p / (1 - (1-p) z)``."""
        p = as_exact(p)
        if not 0 < p <= 1:
            raise NotAProbabilityError(f"geometric parameter {p} outside (0, 1]")
        return cls(RationalFunction(Polynomial([p]), Polynomial([1, -(1 - p)])), validate=False)

    @classmethod
    def mixture(cls, components: Sequence["PGF"], weights: Sequence[Scalar]) -> "PGF":
        """Finite mixture: ``sum_i w_i g_i(z)`` with ``sum w_i = 1``."""
        if len(components) != len(weights):
            raise NotAProbabilityError("mixture needs one weight per component")
        ws = [as_exact(w) for w in weights]
        if any(w < 0 for w in ws):
            raise NotAProbabilityError("mixture weights must be non-negative")
        if not _is_one(sum(ws)):
            raise NotAProbabilityError(f"mixture weights sum to {sum(ws)}, expected 1")
        total = RationalFunction.constant(0)
        for g, w in zip(components, ws, strict=True):
            total = total + g.transform * RationalFunction.constant(w)
        return cls(total, validate=False)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def transform(self) -> RationalFunction:
        """The underlying rational generating function."""
        return self._transform

    def evaluate(self, z: Scalar):
        """Evaluate ``E[z^X]`` at a scalar ``z``."""
        return self._transform.evaluate(z)

    def __call__(self, z):
        """Evaluate at a scalar, or compose with another PGF/transform."""
        if isinstance(z, PGF):
            return self.compound(z)
        if isinstance(z, (RationalFunction, Polynomial)):
            return self._transform(z)
        return self.evaluate(z)

    # ------------------------------------------------------------------
    # moments
    # ------------------------------------------------------------------
    def taylor_at_one(self, order: int) -> List:
        """Taylor coefficients of the transform about ``z = 1``."""
        return self._transform.taylor(1, order)

    def factorial_moment(self, r: int):
        """The ``r``-th falling factorial moment ``E[X (X-1) ... (X-r+1)]``.

        ``r = 0`` gives 1; ``r = 1`` the mean.  Equivalent to the
        ``r``-th derivative of the transform at 1 (this is exactly the
        quantity the paper denotes ``R''(1)``, ``U'''(1)`` etc.).
        """
        if r < 0:
            raise SeriesError("factorial moment order must be >= 0")
        return factorial_from_taylor(self.taylor_at_one(r))[r]

    def derivative_at_one(self, order: int):
        """Alias for :meth:`factorial_moment` using the paper's notation."""
        return self.factorial_moment(order)

    def raw_moments(self, up_to: int) -> List:
        """Raw moments ``[1, E X, E X^2, ...]`` up to order ``up_to``."""
        fac = factorial_from_taylor(self.taylor_at_one(up_to))
        return raw_from_factorial(fac)

    def mean(self):
        """``E[X]``."""
        return self.factorial_moment(1)

    def variance(self):
        """``Var[X]``."""
        raw = self.raw_moments(2)
        return raw[2] - raw[1] * raw[1]

    def central_moment(self, order: int):
        """The ``order``-th central moment ``E[(X - EX)^order]``."""
        raw = self.raw_moments(order)
        return central_from_raw(raw)[order]

    def skewness(self) -> float:
        """Standardised third central moment (float)."""
        var = self.variance()
        if var == 0:
            raise SeriesError("skewness undefined for a degenerate distribution")
        mu3 = self.central_moment(3)
        return float(mu3) / float(var) ** 1.5

    # ------------------------------------------------------------------
    # distribution
    # ------------------------------------------------------------------
    def pmf(self, n_terms: int, exact: bool = False) -> Union[np.ndarray, List[Fraction]]:
        """The first ``n_terms`` probabilities ``[P(X=0), ..., P(X=n_terms-1)]``.

        ``exact=True`` returns Fractions; otherwise a float
        ``numpy.ndarray``.  Small negative round-off (float mode only)
        is clipped to zero; a materially negative coefficient raises
        :class:`~repro.errors.NotAProbabilityError` since it indicates
        the transform is not a PGF.
        """
        if n_terms <= 0:
            raise SeriesError("n_terms must be positive")
        if exact:
            coeffs = self._transform.series(n_terms - 1)
            bad = [c for c in coeffs if c < 0]
            if bad:
                raise NotAProbabilityError(f"pmf has negative mass {min(bad)}")
            return list(coeffs)
        arr = self._float_series(n_terms)
        if (arr < -1e-9).any():
            raise NotAProbabilityError(
                f"pmf has negative mass (min {arr.min():.3g}); transform is not a PGF"
            )
        return np.clip(arr, 0.0, None)

    def _float_series(self, n_terms: int) -> np.ndarray:
        """The first ``n_terms`` float coefficients, memoized per instance.

        The series recurrence has no state beyond its output, so the
        longest expansion ever computed is kept and shorter requests
        are served as slices -- :meth:`quantile`'s geometric doubling
        then extends one shared expansion instead of re-deriving every
        prefix from scratch.  Validation and clipping stay in the
        callers: the cache holds the raw coefficients.
        """
        cached = getattr(self, "_series_cache", None)
        if cached is None or cached.size < n_terms:
            coeffs = self._reduced_transform().to_float().series(n_terms - 1)
            cached = np.asarray([float(c) for c in coeffs])
            object.__setattr__(self, "_series_cache", cached)
        return cached[:n_terms]

    def _reduced_transform(self) -> RationalFunction:
        """The transform with common ``(z - 1)`` factors cancelled.

        Waiting-time transforms built from Theorem 1 carry a removable
        double zero at ``z = 1`` in both numerator and denominator.
        Harmless in exact arithmetic, it puts unit-circle roots into the
        float extraction recursion, whose rounding errors then persist
        instead of decaying; cancelling the factors exactly first makes
        the float pmf accurate to machine precision at every order.
        """
        cached = getattr(self, "_reduced_cache", None)
        if cached is not None:
            return cached
        num = self._transform.numerator.to_exact()
        den = self._transform.denominator.to_exact()
        while (
            not num.is_zero()
            and num(Fraction(1)) == 0
            and den(Fraction(1)) == 0
        ):
            num = num.deflate(Fraction(1))
            den = den.deflate(Fraction(1))
        reduced = RationalFunction(num, den)
        object.__setattr__(self, "_reduced_cache", reduced)
        return reduced

    def cdf(self, n_terms: int) -> np.ndarray:
        """``P(X <= n)`` for ``n`` in ``range(n_terms)`` (float array)."""
        return np.cumsum(self.pmf(n_terms))

    def tail(self, n_terms: int) -> np.ndarray:
        """``P(X > n)`` for ``n`` in ``range(n_terms)`` (float array)."""
        return 1.0 - self.cdf(n_terms)

    def quantile(self, q: float, max_terms: int = 1 << 16) -> int:
        """Smallest ``n`` with ``P(X <= n) >= q`` (float mode).

        Grows the expansion geometrically until the quantile is
        bracketed; raises :class:`SeriesError` if ``max_terms`` is hit
        (e.g. for an unstable queue passed through unvalidated).  Each
        doubling extends the instance's memoized float expansion (see
        :meth:`_float_series`) rather than recomputing the series, and
        an expansion already long enough from earlier calls is reused
        outright.
        """
        if not 0 <= q < 1:
            raise SeriesError("quantile level must be in [0, 1)")
        cached = getattr(self, "_series_cache", None)
        n = 64
        if cached is not None:
            # resume from the memoized expansion; cdf prefixes are
            # identical, so starting longer never changes the answer
            n = max(n, min(int(cached.size), max_terms))
        while n <= max_terms:
            cdf = self.cdf(n)
            idx = np.searchsorted(cdf, q, side="left")
            if idx < len(cdf) and cdf[idx] >= q:
                return int(idx)
            n *= 2
        raise SeriesError(f"quantile {q} not reached within {max_terms} terms")

    # ------------------------------------------------------------------
    # algebra of random variables
    # ------------------------------------------------------------------
    def __add__(self, other: "PGF") -> "PGF":
        """PGF of the sum of *independent* variables: product of transforms."""
        if not isinstance(other, PGF):
            return NotImplemented
        return PGF(self._transform * other._transform, validate=False)

    def __mul__(self, n: int) -> "PGF":
        """PGF of the sum of ``n`` i.i.d. copies: ``g(z)**n``."""
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        return PGF(self._transform ** n, validate=False)

    __rmul__ = __mul__

    def compound(self, count: "PGF") -> "PGF":
        """PGF of a random sum ``X_1 + ... + X_N`` with ``N ~ count``.

        Returns ``count_transform(self_transform)`` -- note the order:
        ``self`` is the summand distribution.  This is exactly the
        paper's ``R(U(z))`` construction for the work arriving per cycle.
        """
        if not isinstance(count, PGF):
            raise SeriesError("compound requires a PGF for the count")
        return PGF(count._transform.compose(self._transform), validate=False)

    def thin(self, keep: Scalar) -> "PGF":
        """Independent thinning: each unit kept with probability ``keep``.

        The transform becomes ``g(1 - keep + keep z)``.
        """
        keep = as_exact(keep)
        if not 0 <= keep <= 1:
            raise NotAProbabilityError(f"thinning probability {keep} outside [0, 1]")
        inner = RationalFunction(Polynomial([1 - keep, keep]))
        return PGF(self._transform.compose(inner), validate=False)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PGF):
            return NotImplemented
        return self._transform == other._transform

    def __hash__(self) -> int:
        return hash(("PGF", self._transform))

    def __repr__(self) -> str:
        return f"PGF({self._transform!r})"

    def __str__(self) -> str:
        return str(self._transform)


def _is_one(value, tol: float = 1e-9) -> bool:
    if isinstance(value, Fraction) or isinstance(value, int):
        return value == 1
    return abs(float(value) - 1.0) <= tol
