"""Threshold math checks. Expected numbers are worked out by hand from the
capacity bound and the SNIR ratio, not read back from the implementation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from divaloha import (
    DecodeBudget,
    InvalidParameterError,
    LinkModel,
    interference_budget,
    snir_at,
    snir_threshold,
    spectral_rate,
)


class TestSpectralRate:
    def test_qpsk_half_rate(self):
        assert spectral_rate(4, 0.5) == 1.0

    def test_bpsk_uncoded(self):
        assert spectral_rate(2, 1.0) == 1.0

    def test_16ary_three_quarters(self):
        assert spectral_rate(16, 0.75) == 3.0

    @pytest.mark.parametrize("mod,rate", [(1, 0.5), (0, 0.5), (4, 0.0), (4, 1.5), (4, -0.1)])
    def test_domain_errors(self, mod, rate):
        with pytest.raises(InvalidParameterError):
            spectral_rate(mod, rate)


class TestSnirThreshold:
    def test_rate_one_is_zero_db(self):
        assert snir_threshold(1.0) == (1.0, 0.0)

    def test_rate_two(self):
        linear, db = snir_threshold(2.0)
        assert linear == 3.0
        assert db == pytest.approx(10.0 * math.log10(3.0), rel=1e-15)

    def test_rate_half(self):
        linear, db = snir_threshold(0.5)
        assert linear == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-15)
        assert db == pytest.approx(10.0 * math.log10(math.sqrt(2.0) - 1.0), rel=1e-12)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(InvalidParameterError):
            snir_threshold(0.0)

    @pytest.mark.parametrize("rate", [1e-300, 1e-16, 5e-324])
    def test_rejects_rate_whose_threshold_rounds_to_zero(self, rate):
        # 2.0**rate rounds to 1.0, and log10(0) has no value
        with pytest.raises(InvalidParameterError, match=f"rate {rate} "):
            snir_threshold(rate)

    def test_thresholds_are_two_to_the_rate_minus_one_exactly(self):
        # not expm1, which gives 6.999999999999998 at rate 3
        assert snir_threshold(3.0)[0] == 7.0
        # the smallest rates that keep a threshold: 2**-52, one ulp above 1
        assert snir_threshold(1.7e-16)[0] == 2.0**-52

    def test_rejects_rate_past_float_range(self):
        # 2**1100 - 1 has no float; e.g. --mod 2**1100 at --rate 1
        with pytest.raises(InvalidParameterError):
            snir_threshold(1100.0)


class TestSnirAt:
    def test_no_interference_is_plain_snr(self):
        assert snir_at(0, 1000, 10.0) == 10.0

    def test_full_overlap(self):
        assert snir_at(1000, 1000, 10.0) == pytest.approx(10.0 / 11.0, rel=1e-15)

    def test_half_overlap(self):
        assert snir_at(500, 1000, 10.0) == pytest.approx(10.0 / 6.0, rel=1e-15)

    def test_more_than_one_burst_of_overlap(self):
        # two colliders stacked: x past burst_len keeps degrading
        assert snir_at(2000, 1000, 10.0) == pytest.approx(10.0 / 21.0, rel=1e-15)

    @given(
        burst=st.integers(1, 5000),
        snr_db=st.floats(-10.0, 30.0),
        x=st.integers(0, 10000),
    )
    def test_strictly_decreasing_in_overlap(self, burst, snr_db, x):
        snr = 10.0 ** (snr_db / 10.0)
        assert snir_at(x + 1, burst, snr) < snir_at(x, burst, snr)

    def test_domain_errors(self):
        with pytest.raises(InvalidParameterError):
            snir_at(-1, 1000, 10.0)
        with pytest.raises(InvalidParameterError):
            snir_at(0, 0, 10.0)
        with pytest.raises(InvalidParameterError):
            snir_at(0, 1000, 0.0)


class TestInterferenceBudget:
    def test_ten_db_qpsk_half(self):
        assert interference_budget(1000, 10.0, 1.0) == DecodeBudget(900)

    def test_two_db_qpsk_half(self):
        assert interference_budget(1000, 10.0**0.2, 1.0) == DecodeBudget(369)

    @pytest.mark.parametrize(
        "snr,dec", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (10.0, math.nan)]
    )
    def test_rejects_non_finite_ratios(self, snr, dec):
        with pytest.raises(InvalidParameterError):
            interference_budget(1000, snr, dec)

    def test_snr_past_float_range_is_rejected(self):
        with pytest.raises(InvalidParameterError):
            LinkModel.from_parameters(4, 0.5, 4000.0, 1000)

    def test_snr_below_threshold_is_undecodable(self):
        budget = interference_budget(1000, 0.5, 1.0)
        assert budget.max_interference is None
        assert not budget.decodable

    def test_snr_exactly_at_threshold(self):
        budget = interference_budget(1000, 1.0, 1.0)
        assert budget == DecodeBudget(0)
        assert budget.decodable

    def test_exact_integer_boundary_not_lost_to_float_noise(self):
        # the bound is exactly 900 here; naive float evaluation gives
        # 899.9999999999999 and floors one too low
        naive = 1000 * (1.0 / 1.0 - 1.0 / 10.0)
        assert math.floor(naive) in (899, 900)  # whichever, the exact path must say 900
        assert interference_budget(1000, 10.0, 1.0).max_interference == 900

    @given(
        burst=st.integers(1, 5000),
        snr_db=st.floats(-10.0, 30.0),
        rate=st.floats(0.1, 6.0),
    )
    def test_budget_is_the_exact_crossover(self, burst, snr_db, rate):
        snr = 10.0 ** (snr_db / 10.0)
        dec, _ = snir_threshold(rate)
        budget = interference_budget(burst, snr, dec)
        if not budget.decodable:
            assert snr < dec
            return
        x = budget.max_interference
        # rational evaluation of the same ratio is the independent arbiter
        snr_f, dec_f = Fraction(snr), Fraction(dec)

        def snir_frac(k):
            return snr_f / (Fraction(k, burst) * snr_f + 1)

        assert snir_frac(x) >= dec_f
        assert snir_frac(x + 1) < dec_f
        # float route agrees up to rounding noise on the >= side
        assert snir_at(x, burst, snr) >= dec * (1.0 - 1e-12)
        assert snir_at(x + 1, burst, snr) < dec


class TestDecodeBudget:
    def test_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            DecodeBudget(-1)

    def test_zero_is_decodable(self):
        assert DecodeBudget(0).decodable

    @pytest.mark.parametrize(
        "limit",
        [20.0, True, False, "3", np.float64(2.0), np.True_],
        ids=["float", "true", "false", "str", "np-float", "np-bool"],
    )
    def test_non_integer_budget_rejected(self, limit):
        with pytest.raises(InvalidParameterError, match="must be an int or None"):
            DecodeBudget(limit)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint64])
    def test_numpy_integer_is_stored_as_the_int_it_equals(self, kind):
        budget = DecodeBudget(kind(50))
        assert type(budget.max_interference) is int
        assert budget == DecodeBudget(50) and hash(budget) == hash(DecodeBudget(50))


class TestLinkModel:
    def test_reference_link(self):
        link = LinkModel.from_parameters(4, 0.5, 10.0, 1000)
        assert link.rate == 1.0
        assert link.snir_dec_linear == 1.0
        assert link.snir_dec_db == 0.0
        assert link.snr_linear == pytest.approx(10.0, rel=1e-15)
        assert link.budget == DecodeBudget(900)

    def test_threshold_override(self):
        link = LinkModel.from_parameters(4, 0.5, 10.0, 1000, snir_dec_db=10.0)
        # threshold equal to snr: zero interference margin, still decodable
        assert link.budget == DecodeBudget(0)

    def test_undecodable_link(self):
        link = LinkModel.from_parameters(4, 0.5, -3.5, 1000)
        assert not link.budget.decodable

    def test_snr_db_round_trip(self):
        link = LinkModel.from_parameters(4, 0.5, 2.0, 1000)
        assert link.snr_db == pytest.approx(2.0, rel=1e-12)
