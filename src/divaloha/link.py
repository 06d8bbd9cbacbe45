"""Decoding threshold math for a single burst.

Maps modulation and code rate to a spectral rate, the rate to the minimum
SNIR a capacity-achieving decoder needs, and the SNIR requirement to the
largest aggregate interference (in symbols) a burst can absorb and still
decode. Interference from several colliders is interchangeable with one
collider of the summed overlap, so a single symbol budget captures it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParameterError, as_int


def spectral_rate(modulation_order: int, code_rate: float) -> float:
    """Information rate in bits/symbol for an M-ary constellation at code
    rate r; ``modulation_order`` is an int of at least 2."""
    modulation_order = as_int(modulation_order, "modulation_order", 2)
    if not 0.0 < code_rate <= 1.0:
        raise InvalidParameterError(f"code_rate must be in (0, 1], got {code_rate}")
    return code_rate * math.log2(modulation_order)


def snir_threshold(rate: float) -> tuple[float, float]:
    """Minimum SNIR to decode at ``rate`` bits/symbol, as (linear, dB).

    Inverts the Gaussian-channel capacity: the threshold is 2**rate - 1.
    Below about 1.6e-16 bits/symbol, 2.0**rate rounds to 1.0 and the
    threshold to 0, which has no dB value, so such a rate is refused.
    """
    if not rate > 0.0:
        raise InvalidParameterError(f"rate must be > 0, got {rate}")
    try:
        linear = 2.0**rate - 1.0
    except OverflowError:
        raise InvalidParameterError(f"rate {rate} is beyond the float range") from None
    if linear == 0.0:
        raise InvalidParameterError(
            f"rate {rate} bits/symbol is too small: its SNIR threshold "
            "2**rate - 1 rounds to 0"
        )
    return linear, 10.0 * math.log10(linear)


def snir_at(x_symbols: int, burst_len: int, snr_linear: float) -> float:
    """SNIR of a burst with ``x_symbols`` of aggregate interference on it.

    Interference power is scaled by the interfered fraction x/burst_len;
    x above burst_len is allowed and means several colliders stacked more
    than one full burst of overlap. Both counts are ints: ``burst_len`` at
    least 1, ``x_symbols`` at least 0.
    """
    burst_len = as_int(burst_len, "burst_len", 1)
    x_symbols = as_int(x_symbols, "x_symbols", 0)
    if not snr_linear > 0.0:
        raise InvalidParameterError(f"snr_linear must be > 0, got {snr_linear}")
    return snr_linear / ((x_symbols / burst_len) * snr_linear + 1.0)


@dataclass(frozen=True)
class DecodeBudget:
    """How much aggregate interference a burst tolerates before it is lost.

    ``max_interference`` is the largest overlap (symbols) that still decodes.
    None means the SNR alone is below threshold: the burst fails even with
    no interference at all. Any other value must be an integer, which is
    stored as the int it equals; a float, bool or str is refused.
    """

    max_interference: int | None

    def __post_init__(self) -> None:
        limit = self.max_interference
        if limit is None:
            return
        limit = as_int(limit, "max_interference", 0, expected="an int or None")
        object.__setattr__(self, "max_interference", limit)

    @property
    def decodable(self) -> bool:
        return self.max_interference is not None


def interference_budget(
    burst_len: int, snr_linear: float, snir_dec_linear: float
) -> DecodeBudget:
    """Largest aggregate overlap that keeps the burst at or above threshold.

    Solves snir_at(x) >= snir_dec for integer x. The bound
    burst_len * (1/snir_dec - 1/snr) is evaluated in exact rational
    arithmetic: in floats the flooring is off by one whenever the bound
    lands exactly on an integer, which it does for round-number inputs.
    ``burst_len`` is an int of at least 1.
    """
    burst_len = as_int(burst_len, "burst_len", 1)
    if not 0.0 < snr_linear < math.inf:
        raise InvalidParameterError(
            f"snr_linear must be finite and > 0, got {snr_linear}"
        )
    if not 0.0 < snir_dec_linear < math.inf:
        raise InvalidParameterError(
            f"snir_dec_linear must be finite and > 0, got {snir_dec_linear}"
        )
    if snr_linear < snir_dec_linear:
        return DecodeBudget(None)
    bound = Fraction(burst_len) * (
        1 / Fraction(snir_dec_linear) - 1 / Fraction(snr_linear)
    )
    return DecodeBudget(math.floor(bound))


def _db_to_linear(db: float) -> float:
    """10**(db/10), with inf past the float range for the budget to reject."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class LinkModel:
    """Modulation, coding and SNR rolled up into a per-burst decode budget.

    ``snr_linear`` is the burst SNR; pass a very large value to model the
    noise-free regime where only interference can break a burst.
    """

    modulation_order: int
    code_rate: float
    rate: float
    snr_linear: float
    snir_dec_linear: float
    budget: DecodeBudget

    @classmethod
    def from_parameters(
        cls,
        modulation_order: int,
        code_rate: float,
        snr_db: float,
        burst_len: int,
        snir_dec_db: float | None = None,
    ) -> LinkModel:
        """Build the link for a given burst length. ``modulation_order`` is
        stored as the int it equals, as ``spectral_rate`` takes it.

        ``snir_dec_db`` overrides the capacity-bound threshold when a real
        decoder with implementation margin is being modeled.
        """
        rate = spectral_rate(modulation_order, code_rate)
        if snir_dec_db is None:
            snir_dec_linear, _ = snir_threshold(rate)
        else:
            snir_dec_linear = _db_to_linear(snir_dec_db)
        snr_linear = _db_to_linear(snr_db)
        budget = interference_budget(burst_len, snr_linear, snir_dec_linear)
        return cls(
            modulation_order=operator.index(modulation_order),
            code_rate=code_rate,
            rate=rate,
            snr_linear=snr_linear,
            snir_dec_linear=snir_dec_linear,
            budget=budget,
        )

    @property
    def snr_db(self) -> float:
        return 10.0 * math.log10(self.snr_linear)

    @property
    def snir_dec_db(self) -> float:
        return 10.0 * math.log10(self.snir_dec_linear)
