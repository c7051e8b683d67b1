"""Exact, order-independent moment accumulation for float64 values.

The numeric ``mean_value``/``std_value`` of the 25 descriptive statistics
come from :class:`ExactMoments`, whichever engine profiles the column:
:func:`~repro.core.stats.tally_columns` builds one per column of a batch
with :func:`grouped_moments`, and :class:`~repro.sketch.column.ColumnSketch`
merges the one of every chunk it folds in.  Floating-point summation
rounds differently depending on element *order*, so a chunked or merged
column could not reproduce a whole column's bits.  :class:`ExactMoments`
removes rounding from accumulation instead: every finite float64 is a
dyadic rational ``m * 2**e`` with ``e >= -1074``, so scaling by
``2**1074`` turns each value into an integer and Python's big ints carry
the *true* sum (and the true sum of squares at scale ``2**2148``) with
zero error, in any order.
``mean_std`` rounds the exact result once, so the mean/std are the
correctly rounded true moments, bit-identical however the column was cut.
"""

from __future__ import annotations

import math
from operator import mul

import numpy as np

#: The smallest positive float64 (subnormal) is ``2**-1074``: multiplying
#: any finite float64 by ``2**1074`` therefore yields an exact integer.
_SCALE_BITS = 1074
_SQ_SCALE_BITS = 2 * _SCALE_BITS
_SCALE = 1 << _SCALE_BITS
_SQ_SCALE = 1 << _SQ_SCALE_BITS
#: ``np.frexp`` fractions lie in [0.5, 1): times ``2**53`` they are exact
#: int64 mantissas.
_MANTISSA_BITS = 53


def _shift(value: int, bits: int) -> int:
    """``value * 2**bits``, exact for either sign of ``bits``.

    A subnormal's frexp exponent can put ``bits`` below zero; its mantissa
    then ends in at least ``-bits`` zero bits, so the right shift drops
    only zeros.
    """
    return value << bits if bits >= 0 else value >> -bits


def _divide(numerator: int, denominator: int) -> float:
    """Correctly rounded float64 of ``numerator / denominator`` (positive
    ``denominator``); ``inf`` of the quotient's sign past the float range.

    Python's int true division rounds the exact quotient once, as
    ``float(Fraction(numerator, denominator))`` does, without the gcd.
    """
    try:
        return numerator / denominator
    except OverflowError:
        return math.inf if numerator > 0 else -math.inf


class ExactMoments:
    """Exact streaming sum / sum-of-squares / min / max of float64 values.

    ``add``/``add_weighted`` never round; ``merge`` is plain integer
    addition, so any partition of the input into sketches merged in any
    order yields the same state bit for bit.
    """

    __slots__ = ("count", "_sum", "_sumsq", "min", "max")

    def __init__(self):
        self.count = 0
        self._sum = 0  # true sum of values, scaled by 2**1074
        self._sumsq = 0  # true sum of squares, scaled by 2**2148
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        self.add_weighted(value, 1)

    def add_weighted(self, value: float, weight: int) -> None:
        """Accumulate ``weight`` occurrences of ``value`` exactly.

        Only finite values are meaningful (the scan kernel already filters
        non-finite parses); non-finite input raises ``ValueError`` rather
        than silently corrupting the integer state.
        """
        if not math.isfinite(value):
            raise ValueError(f"ExactMoments requires finite values, got {value!r}")
        numerator, denominator = value.as_integer_ratio()
        # denominator is 2**k for floats; bit_length() == k + 1.
        k = denominator.bit_length() - 1
        self._sum += weight * (numerator << (_SCALE_BITS - k))
        self._sumsq += weight * ((numerator * numerator) << (_SQ_SCALE_BITS - 2 * k))
        self.count += weight
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "ExactMoments") -> "ExactMoments":
        self.count += other.count
        self._sum += other._sum
        self._sumsq += other._sumsq
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        return self

    def mean_std(self) -> tuple[float, float]:
        """Correctly-rounded population mean and standard deviation.

        Variance is the exact ``E[x^2] - E[x]^2``, written over one
        denominator as ``(n * sumsq - sum**2) / (n**2 * 2**2148)`` (never
        negative: the arithmetic is exact) and rounded once before the
        square root.
        """
        n = self.count
        if not n:
            return 0.0, 0.0
        mean = _divide(self._sum, _SCALE * n)
        variance = _divide(
            n * self._sumsq - self._sum * self._sum, _SQ_SCALE * n * n
        )
        return mean, math.sqrt(variance)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMoments):
            return NotImplemented
        return (
            self.count == other.count
            and self._sum == other._sum
            and self._sumsq == other._sumsq
            and self.min == other.min
            and self.max == other.max
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExactMoments(count={self.count}, min={self.min}, max={self.max})"


def grouped_moments(
    group: np.ndarray, values: np.ndarray, weights: np.ndarray, n_groups: int
) -> list[ExactMoments]:
    """Every group's :class:`ExactMoments` over its weighted values, in one
    pass over all groups.

    ``group`` (nondecreasing, in ``range(n_groups)``), ``values`` and
    ``weights`` (non-negative integers) align.  Entry ``g`` of the result
    is the state :meth:`ExactMoments.add_weighted` leaves after group
    ``g``'s pairs, except that a zero min or max may carry either sign
    (finalize reads both zeros as 0.0).  Non-finite values raise
    ``ValueError``.

    ``np.frexp`` writes each value as an int64 mantissa ``m`` (``|m| <
    2**53``) times ``2**(e - 53)``.  One sort orders the pairs by (group,
    exponent), and each run of equal keys adds the Python-int sums
    ``sum(w * m)`` and ``sum(w * m * m)`` to its group's big ints, shifted
    once, so nothing can overflow.
    """
    group = np.asarray(group, dtype=np.intp)
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.int64)
    moments = [ExactMoments() for _ in range(n_groups)]
    if not values.size:
        return moments
    finite = np.isfinite(values)
    if not finite.all():
        bad = float(values[np.argmin(finite)])
        raise ValueError(f"ExactMoments requires finite values, got {bad!r}")
    starts = np.flatnonzero(np.diff(group, prepend=-1))
    for g, low, high in zip(
        group[starts].tolist(),
        np.minimum.reduceat(values, starts).tolist(),
        np.maximum.reduceat(values, starts).tolist(),
    ):
        moments[g].min, moments[g].max = low, high

    fraction, exponent = np.frexp(values)
    mantissa = np.ldexp(fraction, _MANTISSA_BITS).astype(np.int64)
    order = np.lexsort((exponent, group))
    group, exponent = group[order], exponent[order]
    runs = np.flatnonzero(
        np.diff(group, prepend=-1) | np.diff(exponent, prepend=0)
    )
    mantissa, weights = mantissa[order].tolist(), weights[order].tolist()
    bounds = runs.tolist()
    for g, e, low, high in zip(
        group[runs].tolist(), exponent[runs].tolist(), bounds,
        bounds[1:] + [len(weights)],
    ):
        m, w = mantissa[low:high], weights[low:high]
        shift = _SCALE_BITS + e - _MANTISSA_BITS
        accumulator = moments[g]
        accumulator.count += sum(w)
        accumulator._sum += _shift(sum(map(mul, w, m)), shift)
        accumulator._sumsq += _shift(
            sum(map(mul, w, map(mul, m, m))), 2 * shift
        )
    return moments
