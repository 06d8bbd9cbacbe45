"""Interference-model checks against hand-enumerated oracles.

The frozen expectations below were derived by counting placements by hand
for tiny geometries (frame 10, burst 1 or 2), where the full placement
space is small enough to enumerate on a sheet of grid squares.
"""

import dataclasses
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divaloha import (
    ConfigError,
    DecodeBudget,
    InsufficientSupportError,
    InterferencePmf,
    InvalidParameterError,
    LinkModel,
    SystemConfig,
    analytic_curve,
    convolve,
    delta_pmf,
    first_copy_event_probabilities,
    full_overlap_breakdown,
    interference_distribution,
    n_tx_for_load,
    p_copy_decoded,
    p_packet_decoded,
    pmf_mass_by_first_event,
    single_dp_pmf,
)
from divaloha import analytic
from divaloha.analytic import _fold
from divaloha.harness import main

# hand-enumerated single-disturber pmfs (placement counts over A*B)
ORACLE_PMF_10_2 = [Fraction(10, 27), Fraction(10, 27), Fraction(7, 27)]
ORACLE_PMF_10_1 = [Fraction(4, 5), Fraction(1, 5)]
# hand-enumerated first-copy event probabilities (counts over A)
ORACLE_EVENTS_10_2 = (Fraction(1, 9), Fraction(2, 9), Fraction(2, 9), Fraction(4, 9))
ORACLE_EVENTS_10_1 = (Fraction(1, 10), Fraction(0), Fraction(7, 10), Fraction(1, 5))


def geometry(frame_len, burst_len):
    return SystemConfig(frame_len=frame_len, burst_len=burst_len)


@st.composite
def analytic_configs(draw, max_burst=40, max_ratio=30):
    tau = draw(st.integers(1, max_burst))
    lo = 5 * tau - 2
    frame = draw(st.integers(lo, max(lo, tau * max_ratio)))
    return geometry(frame, tau)


class TestSingleDpPmf:
    def test_hand_instance_burst_two(self):
        pmf = single_dp_pmf(geometry(10, 2))
        assert pmf.dp_count == 1
        assert pmf.truncated_at is None
        np.testing.assert_allclose(
            pmf.probs, [float(f) for f in ORACLE_PMF_10_2], rtol=0, atol=1e-15
        )

    def test_hand_instance_burst_one(self):
        pmf = single_dp_pmf(geometry(10, 1))
        np.testing.assert_allclose(
            pmf.probs, [float(f) for f in ORACLE_PMF_10_1], rtol=0, atol=1e-15
        )

    @settings(deadline=None, max_examples=60)
    @given(config=analytic_configs(max_burst=200))
    def test_matches_per_overlap_count_loop_bitwise(self, config):
        # reference: the counts summed by hand per overlap value, then one
        # Python int division per entry (correctly rounded)
        tau = config.burst_len
        a = config.frame_len - tau + 1
        b = a - (2 * tau - 1)
        c = a - (4 * tau - 1)
        counts = [0] * (tau + 1)
        counts[0] = c * (a - 2 * (2 * tau - 1)) + sum(
            2 * (a - (3 * tau + z - 1)) for z in range(tau)
        )
        for x in range(1, tau):
            partial = 2 * (b - (tau - x)) + 2 * (x - 1)
            counts[x] = partial + 2 * c + 4 * x + 2 * (tau - x)
        counts[tau] = b + c + 2 * tau + 2 * (tau - 1)
        want = np.array([n / (a * b) for n in counts])
        assert np.array_equal(single_dp_pmf(config).probs, want)

    def test_support_length(self):
        pmf = single_dp_pmf(geometry(1000, 17))
        assert pmf.probs.shape == (18,)

    @settings(deadline=None, max_examples=60)
    @given(config=analytic_configs())
    def test_normalization(self, config):
        pmf = single_dp_pmf(config)
        assert abs(float(np.sum(pmf.probs)) - 1.0) <= 1e-12
        assert np.all(pmf.probs >= 0.0)

    def test_minimum_supported_frame(self):
        config = geometry(5 * 7 - 2, 7)
        pmf = single_dp_pmf(config)
        assert abs(float(np.sum(pmf.probs)) - 1.0) <= 1e-12

    def test_frame_below_support_rejected(self):
        with pytest.raises(ConfigError):
            single_dp_pmf(geometry(5 * 7 - 3, 7))

    def test_requires_two_copies(self):
        with pytest.raises(ConfigError):
            single_dp_pmf(SystemConfig(frame_len=1000, burst_len=10, copies=3))
        with pytest.raises(ConfigError):
            single_dp_pmf(SystemConfig(frame_len=1000, burst_len=10, copies=1))

    def test_event_space_beyond_exact_floats_rejected(self):
        # A*B >= 2**53: counts and denominator would no longer be exact
        with pytest.raises(ConfigError):
            single_dp_pmf(geometry(10**8, 10))
        single_dp_pmf(geometry(9 * 10**7, 10))

    def test_cached_array_is_read_only(self):
        pmf = single_dp_pmf(geometry(500, 5))
        with pytest.raises(ValueError):
            pmf.probs[0] = 0.5


class TestFirstCopyEvents:
    def test_hand_instance_burst_two(self):
        assert first_copy_event_probabilities(geometry(10, 2)) == ORACLE_EVENTS_10_2

    def test_hand_instance_burst_one(self):
        # burst of one symbol cannot overlap partially
        assert first_copy_event_probabilities(geometry(10, 1)) == ORACLE_EVENTS_10_1

    @settings(deadline=None, max_examples=60)
    @given(config=analytic_configs())
    def test_closed_forms_sum_to_one_exactly(self, config):
        events = first_copy_event_probabilities(config)
        assert sum(events) == Fraction(1)
        assert all(f >= 0 for f in events)

    @settings(deadline=None, max_examples=40)
    @given(config=analytic_configs())
    def test_pmf_mass_matches_closed_forms(self, config):
        mass = pmf_mass_by_first_event(config)
        events = first_copy_event_probabilities(config)
        for got, want in zip(mass, events):
            assert got == pytest.approx(float(want), abs=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(config=analytic_configs())
    def test_full_overlap_routes(self, config):
        br = full_overlap_breakdown(config)
        # landing the first copy exactly on the tagged one and landing the
        # second there instead are equally likely routes
        assert br.first_copy_full == br.second_copy_full
        pmf = single_dp_pmf(config)
        total = br.first_copy_full + br.second_copy_full + br.paired_partials
        assert total == pytest.approx(float(pmf.probs[config.burst_len]), abs=1e-15)


class TestConvolve:
    def test_delta_identity_is_bitwise(self):
        config = geometry(200, 7)
        single = single_dp_pmf(config)
        out = convolve(delta_pmf(config), single)
        assert out.dp_count == 1
        assert np.array_equal(out.probs, single.probs)

    def test_bernoulli_square(self):
        # [0.5, 0.5] * [0.5, 0.5] = [0.25, 0.5, 0.25]
        config = geometry(10, 1)
        half = InterferencePmf(config, 1, np.array([0.5, 0.5]))
        out = convolve(half, half)
        np.testing.assert_allclose(out.probs, [0.25, 0.5, 0.25], rtol=0, atol=0)

    def test_three_disturbers_burst_one(self):
        config = geometry(10, 1)
        out = interference_distribution(config, 3)
        np.testing.assert_allclose(
            out.probs, [0.512, 0.384, 0.096, 0.008], rtol=0, atol=1e-15
        )
        assert out.dp_count == 3

    def test_value_commutative(self):
        config = geometry(64, 3)
        a = single_dp_pmf(config)
        b = interference_distribution(config, 2)
        ab = convolve(a, b)
        ba = convolve(b, a)
        np.testing.assert_allclose(ab.probs, ba.probs, rtol=1e-13, atol=1e-300)

    def test_mass_is_conserved(self):
        config = geometry(64, 3)
        out = interference_distribution(config, 4)
        assert float(np.sum(out.probs)) == pytest.approx(1.0, abs=1e-12)

    def test_config_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            convolve(single_dp_pmf(geometry(64, 3)), single_dp_pmf(geometry(65, 3)))

    def test_negative_trunc_rejected(self):
        single = single_dp_pmf(geometry(64, 3))
        with pytest.raises(InvalidParameterError):
            convolve(single, single, trunc_len=-1)

    def test_truncation_drops_tail_without_renormalizing(self):
        config = geometry(64, 3)
        single = single_dp_pmf(config)
        out = convolve(single, single, trunc_len=2)
        assert out.truncated_at == 2
        assert out.probs.shape == (3,)
        assert float(np.sum(out.probs)) < 1.0

    def test_trunc_beyond_support_returns_untruncated(self):
        config = geometry(64, 3)
        single = single_dp_pmf(config)
        out = convolve(single, single, trunc_len=6)
        assert out.truncated_at is None
        assert out.probs.shape == (7,)

    @settings(deadline=None, max_examples=60)
    @given(
        config=analytic_configs(),
        n_dp=st.integers(1, 6),
        trunc_frac=st.floats(0.0, 1.1),
    )
    def test_truncated_fold_is_bitwise_prefix_of_full(self, config, n_dp, trunc_frac):
        full = interference_distribution(config, n_dp)
        trunc = int(trunc_frac * n_dp * config.burst_len)
        truncated = interference_distribution(config, n_dp, trunc_len=trunc)
        keep = min(trunc, n_dp * config.burst_len) + 1
        assert truncated.probs.shape == (keep,)
        assert np.all(full.probs >= 0.0)
        assert np.array_equal(truncated.probs, full.probs[:keep])

    @settings(deadline=None, max_examples=120)
    @given(
        config=analytic_configs(),
        k=st.integers(1, 6),
        t_frac=st.floats(0.0, 1.0),
        trunc_frac=st.floats(0.0, 1.2),
    )
    def test_convolve_truncation_is_bitwise_prefix(self, config, k, t_frac, trunc_frac):
        # convolve itself, not the fold: a truncated first operand, with or
        # without a cap, gives a bitwise prefix of the untruncated result,
        # also when it is shorter than the single-disturber pmf
        single = single_dp_pmf(config)
        a = interference_distribution(config, k)
        full = convolve(a, single)
        t = min(int(t_frac * k * config.burst_len), k * config.burst_len - 1)
        a_t = InterferencePmf(config, k, a.probs[: t + 1], truncated_at=t)
        trunc = int(trunc_frac * (k + 1) * config.burst_len)
        for got in (convolve(a_t, single, trunc), convolve(a, single, trunc)):
            keep = got.probs.shape[0]
            assert keep <= full.probs.shape[0]
            assert np.array_equal(got.probs, full.probs[:keep])

    def test_independent_reference_convolution(self):
        # schoolbook double loop as the cross-check, tolerance not bitwise
        config = geometry(80, 4)
        single = single_dp_pmf(config)
        out = interference_distribution(config, 3)
        ref = np.array([1.0])
        for _ in range(3):
            nxt = np.zeros(ref.shape[0] + single.probs.shape[0] - 1)
            for i, av in enumerate(ref):
                for j, bv in enumerate(single.probs):
                    nxt[i + j] += av * bv
            ref = nxt
        np.testing.assert_allclose(out.probs, ref, rtol=1e-12, atol=1e-300)


def _tau_grid():
    # the acceptance suite's pmf normalization grid
    for tau in (1, 2, 5, 10, 100, 1000):
        for frame in (5 * tau - 2, 10 * tau, 20 * tau, 100 * tau):
            yield geometry(frame, tau)


def _assert_kernel_is_table_column_sums(config):
    tau = config.burst_len
    counts = analytic._numerators_by_first_event(config.frame_len, tau)
    sums = [int(v) for v in counts.sum(axis=0)]
    n0, c0, n_tau, den = analytic._fold_kernel(config.frame_len, tau)
    a = config.frame_len - tau + 1
    assert den == a * (a - (2 * tau - 1)) == sum(sums)
    assert (n0, n_tau) == (sums[0], sums[tau])
    assert sums[1:tau] == [c0 + 6 * x for x in range(1, tau)]
    if tau == 1:
        assert c0 == 0


class TestFoldKernel:
    """The closed-form kernel against the count table it summarizes."""

    @pytest.mark.parametrize(
        "config", list(_tau_grid()), ids=lambda c: f"{c.frame_len}/{c.burst_len}"
    )
    def test_closed_form_is_table_column_sums_on_grid(self, config):
        _assert_kernel_is_table_column_sums(config)

    @settings(deadline=None, max_examples=60)
    @given(config=analytic_configs(max_burst=200))
    def test_closed_form_is_table_column_sums(self, config):
        _assert_kernel_is_table_column_sums(config)

    def test_runtime_path_never_builds_the_table(self, monkeypatch):
        # a geometry (ratio 243) no other test draws, so no cache holds it
        config = geometry(9973, 41)
        links = [LinkModel.from_parameters(4, r, 10.0, 41) for r in (0.5, 0.25)]
        # budgets 36 (one-row fold) and 94 (two-row fold steps)
        assert [lm.budget.max_interference for lm in links] == [36, 94]
        loads = [0.0, 0.01, 0.3, 0.9, 1.6]

        def values():
            return (
                [analytic_curve(config, lm, loads) for lm in links],
                [
                    interference_distribution(config, n, t).probs.tobytes()
                    for n in (1, 3, 7)
                    for t in (None, 36, 94)
                ],
                single_dp_pmf(config).probs.tobytes(),
            )

        def refuse(*args):
            raise AssertionError("count table built on a runtime path")

        monkeypatch.setattr(analytic, "_numerators_by_first_event", refuse)
        without_table = values()
        monkeypatch.undo()
        assert without_table == values()
        counts = analytic._numerators_by_first_event(9973, 41)
        den = analytic._fold_kernel(9973, 41).den
        want = np.array([int(n) / den for n in counts.sum(axis=0)])
        assert without_table[2] == want.tobytes()


class TestFold:
    """The O(support) disturber fold against repeated convolve."""

    @pytest.mark.parametrize(
        "config", list(_tau_grid()), ids=lambda c: f"{c.frame_len}/{c.burst_len}"
    )
    def test_matches_convolve_oracle(self, config):
        single = single_dp_pmf(config)
        oracle = delta_pmf(config)
        for n_dp in range(1, 41):
            oracle = convolve(oracle, single)
            if n_dp not in (2, 5, 40):
                continue
            got = interference_distribution(config, n_dp)
            assert got.truncated_at is None
            assert np.all(got.probs >= 0.0)
            want = oracle.probs
            seen = want > 1e-300
            rel = np.abs(got.probs[seen] - want[seen]) / want[seen]
            assert float(np.max(rel)) <= 1e-12

    @settings(deadline=None, max_examples=60)
    @given(config=analytic_configs())
    def test_first_step_is_the_single_pmf_bitwise(self, config):
        got = interference_distribution(config, 1)
        assert np.array_equal(got.probs, single_dp_pmf(config).probs)

    def test_budget_past_one_burst(self):
        # budget 231 >= tau = 100: windows start past index 0 and span
        # several blocks of the fold
        config = geometry(10000, 100)
        link = LinkModel.from_parameters(4, 0.25, 10.0, 100)
        budget = link.budget
        assert budget.max_interference == 231
        loads = [0.2, 0.7, 1.3, 2.0]
        single = single_dp_pmf(config)
        acc = delta_pmf(config)
        p_ccd_at = [p_copy_decoded(acc, budget)]
        for _ in range(max(n_tx_for_load(config, g) for g in loads)):
            acc = convolve(acc, single, budget.max_interference)
            p_ccd_at.append(p_copy_decoded(acc, budget))
        for pt in analytic_curve(config, link, loads):
            assert abs(pt.p_ccd - p_ccd_at[pt.n_tx - 1]) <= 1e-13


def _block_edges():
    # step output lengths tau-2 .. tau+1: windows in one block row or two,
    # and tau 1, where the window sums vanish (w == 0)
    for tau in (1, 2, 3, 100):
        for out_len in (tau - 2, tau - 1, tau, tau + 1):
            if out_len >= 1:
                yield tau, out_len


class TestFoldBlockEdges:
    """Truncated folds whose every step ends at a block-row edge."""

    @pytest.mark.parametrize("tau,out_len", list(_block_edges()), ids=str)
    def test_prefix_and_oracle_at_block_edge(self, tau, out_len):
        config = geometry(10 * tau, tau)
        n_dp = 3
        trunc = out_len - 1
        full = interference_distribution(config, n_dp)
        truncated = interference_distribution(config, n_dp, trunc_len=trunc)
        assert truncated.probs.shape == (out_len,)
        assert np.array_equal(truncated.probs, full.probs[:out_len])
        single = single_dp_pmf(config)
        oracle = delta_pmf(config)
        for _ in range(n_dp):
            oracle = convolve(oracle, single, trunc)
        want = oracle.probs
        seen = want > 1e-300
        rel = np.abs(truncated.probs[seen] - want[seen]) / want[seen]
        assert float(np.max(rel)) <= 1e-12
        assert np.all(truncated.probs[~seen] <= 1e-300)


def test_one_row_fold_matches_step_fold_and_oracle():
    # trunc 40 < tau - 1 = 49: the fold runs as one loop, never _fold_step
    config = geometry(2000, 50)
    trunc, n_dp = 40, 60
    looped = list(_fold(config, n_dp, trunc))
    full = list(_fold(config, n_dp, None))
    single = single_dp_pmf(config)
    oracle = delta_pmf(config)
    for n, (got, whole) in enumerate(zip(looped, full), start=1):
        assert got.shape == (trunc + 1,)
        assert np.array_equal(got, whole[: trunc + 1])
        oracle = convolve(oracle, single, trunc)
        want = oracle.probs
        seen = want > 1e-300
        rel = np.abs(got[seen] - want[seen]) / want[seen]
        assert float(np.max(rel)) <= 1e-12
        # a loop that wrote into an array it had yielded would fail here
        per_count = interference_distribution(config, n, trunc_len=trunc)
        assert np.array_equal(got, per_count.probs)


# sha256 of the analytic CSV (load grid 0.1:1.5:0.1) and of folded probs.
# These pin the fold's bits: only a deliberate, CHANGES-logged change of
# the fold may update them. 10000/100 at rate 0.25 has budget 231 >= tau,
# so its truncated steps span several block rows.
GOLDEN_ANALYTIC_CSV = [
    (
        ["--tf", "200000", "--tau", "500", "--snr-db", "10"],
        "b6c87ead020bb1e75b949a641516cb23ea7c78a42f88332228aee8df5fee50a2",
    ),
    (
        ["--tf", "100000", "--tau", "1000", "--snr-db", "10"],
        "33736d325f3ff63170c300aaf43973f37a318e8b90fa2c4542d0863956f82ee8",
    ),
    (
        ["--tf", "20000", "--tau", "1000", "--snr-db", "10"],
        "91a4ab0a0230e55b9d4bba7599bbce675bd0bc0817af6ac0da197e5439342189",
    ),
    (
        ["--tf", "10000", "--tau", "100", "--rate", "0.25"],
        "09ce899b5db76303762b1bbff8c657bc4ecc0e392a309c1fd6c53142ce9071f0",
    ),
]


@pytest.mark.parametrize(
    "geometry_argv,digest", GOLDEN_ANALYTIC_CSV,
    ids=["r400", "r100", "r20", "multi-row"],
)
def test_analytic_csv_golden_bytes(geometry_argv, digest, capsys):
    argv = ["analytic", *geometry_argv, "--loads", "0.1:1.5:0.1"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


GOLDEN_FOLD_PROBS = [
    # one block row per truncated step (budget 450 < tau - 1)
    (
        (200000, 500, 599, 450),
        "4a5a3a223322aaed33c7f84d378a14fd6684e376e876e81a06724ae7763e961b",
    ),
    # untruncated: every step past the first spans many block rows
    (
        (2000, 50, 40, None),
        "1f352d80c1417c71503d2755c8683baf8373984caab4ef7f7420fc270919febd",
    ),
]


@pytest.mark.parametrize(
    "case,digest", GOLDEN_FOLD_PROBS, ids=["one-row", "multi-row"]
)
def test_fold_probs_golden_bytes(case, digest):
    frame_len, tau, n_dp, trunc = case
    pmf = interference_distribution(geometry(frame_len, tau), n_dp, trunc)
    assert hashlib.sha256(pmf.probs.tobytes()).hexdigest() == digest


class TestReadOnlyProbs:
    """Every pmf holds a read-only copy of its probabilities."""

    def test_library_pmfs_are_read_only(self):
        config = geometry(500, 5)
        single = single_dp_pmf(config)
        pmfs = [
            delta_pmf(config),
            single,
            convolve(single, single),
            convolve(single, single, trunc_len=4),
            interference_distribution(config, 3),
            interference_distribution(config, 3, trunc_len=7),
        ]
        assert pmfs[3].truncated_at == 4 and pmfs[5].truncated_at == 7
        for pmf in pmfs:
            assert not pmf.probs.flags.writeable
            with pytest.raises(ValueError):
                pmf.probs[0] = 0.5

    def test_user_built_pmf_copies_the_callers_array(self):
        config = geometry(10, 1)
        mine = np.array([0.25, 0.75])
        pmf = InterferencePmf(config, 1, mine)
        assert not pmf.probs.flags.writeable
        assert mine.flags.writeable
        mine[0] = 0.5  # the pmf does not see later writes
        assert pmf.probs.tolist() == [0.25, 0.75]


class TestInterferenceDistribution:
    def test_zero_disturbers_is_delta(self):
        config = geometry(64, 3)
        out = interference_distribution(config, 0)
        assert out.dp_count == 0
        assert np.array_equal(out.probs, np.ones(1))

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            interference_distribution(geometry(64, 3), -1)

    @settings(deadline=None, max_examples=30)
    @given(config=analytic_configs(max_burst=10, max_ratio=10), n_dp=st.integers(0, 5))
    def test_cdf_degrades_with_more_disturbers(self, config, n_dp):
        # adding a disturber can only shift overlap mass upward
        budget = DecodeBudget(config.burst_len)  # any fixed cdf point works
        p_now = p_copy_decoded(interference_distribution(config, n_dp), budget)
        p_next = p_copy_decoded(interference_distribution(config, n_dp + 1), budget)
        assert p_next <= p_now + 1e-12


class TestDecodeProbabilities:
    def test_delta_always_decodes(self):
        assert p_copy_decoded(delta_pmf(geometry(64, 3)), DecodeBudget(0)) == 1.0

    def test_undecodable_budget_is_zero(self):
        pmf = single_dp_pmf(geometry(64, 3))
        assert p_copy_decoded(pmf, DecodeBudget(None)) == 0.0

    def test_cdf_oracle_burst_one(self):
        pmf = single_dp_pmf(geometry(10, 1))
        assert p_copy_decoded(pmf, DecodeBudget(0)) == pytest.approx(0.8, abs=1e-15)
        assert p_copy_decoded(pmf, DecodeBudget(1)) == pytest.approx(1.0, abs=1e-15)

    def test_truncated_pmf_must_cover_the_budget(self):
        config = geometry(64, 3)
        pmf = interference_distribution(config, 3, trunc_len=2)
        with pytest.raises(InsufficientSupportError):
            p_copy_decoded(pmf, DecodeBudget(5))
        # exactly covering is fine
        assert p_copy_decoded(pmf, DecodeBudget(2)) > 0.0

    def test_budget_covering_the_support_decodes_exactly(self):
        # 3 disturbers of 7 symbols overlap a copy by at most 21; the pmf
        # sums to 1 within a few ulp, and its packet probability must be 1
        pmf = interference_distribution(geometry(50, 7), 3)
        for x_dec in (21, 22, 10**30):
            assert p_copy_decoded(pmf, DecodeBudget(x_dec)) == 1.0
        assert p_packet_decoded(p_copy_decoded(pmf, DecodeBudget(21))) == 1.0
        # on a small grid, whatever the rounding of the sum
        for tau in range(1, 7):
            for frame_len in range(5 * tau - 2, 5 * tau + 12):
                config = geometry(frame_len, tau)
                for n_dp in range(1, 6):
                    pmf = interference_distribution(config, n_dp)
                    assert p_copy_decoded(pmf, DecodeBudget(n_dp * tau)) == 1.0

    def test_packet_from_copy(self):
        assert p_packet_decoded(0.0) == 0.0
        assert p_packet_decoded(1.0) == 1.0
        assert p_packet_decoded(0.5) == 0.75

    def test_packet_domain(self):
        with pytest.raises(InvalidParameterError):
            p_packet_decoded(-0.01)
        with pytest.raises(InvalidParameterError):
            p_packet_decoded(1.01)

    @given(p=st.floats(0.0, 1.0))
    def test_second_copy_never_hurts(self, p):
        # below the ulp of 1.0, (1 - p) rounds to 1 and the complement form
        # returns 0; the inequality only holds to that representation limit
        assert p_packet_decoded(p) >= p - 1e-15


class TestLoadMapping:
    def test_reference_geometry(self):
        config = geometry(100000, 1000)
        assert n_tx_for_load(config, 1.0) == 100
        assert n_tx_for_load(config, 0.1) == 10
        assert n_tx_for_load(config, 0.0) == 0

    def test_ties_round_half_away_from_zero(self):
        config = geometry(10, 1)
        assert n_tx_for_load(config, 0.25) == 3  # 2.5 packets
        assert n_tx_for_load(config, 0.15) == 2  # 1.5 packets

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            n_tx_for_load(geometry(10, 1), -0.1)

    @pytest.mark.parametrize("load", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, load):
        with pytest.raises(InvalidParameterError):
            n_tx_for_load(geometry(10000, 100), load)

    @pytest.mark.parametrize("load", [1e308, 1e306, 1.7976931348623157e308])
    def test_packet_count_past_the_float_range_rejected(self, load):
        # load * frame_len / burst_len is inf, which no int holds
        with pytest.raises(InvalidParameterError, match="more packets"):
            n_tx_for_load(geometry(100000, 1000), load)


class TestAnalyticCurve:
    def test_point_identities(self):
        config = geometry(10000, 100)
        link = LinkModel.from_parameters(4, 0.5, 10.0, 100)
        loads = [0.0, 0.1, 0.5, 1.0, 1.5]
        for pt in analytic_curve(config, link, loads):
            assert 0.0 <= pt.p_ccd <= 1.0
            assert pt.plr == (1.0 - pt.p_ccd) ** 2
            assert pt.throughput == pt.load * (1.0 - pt.plr)
            assert pt.throughput <= pt.load

    def test_zero_load_point(self):
        config = geometry(10000, 100)
        link = LinkModel.from_parameters(4, 0.5, 10.0, 100)
        (pt,) = analytic_curve(config, link, [0.0])
        assert pt.n_tx == 0
        assert pt.plr == 0.0
        assert pt.throughput == 0.0

    def test_matches_per_point_route_bitwise(self):
        # the shared incremental fold must reproduce an independent
        # per-point fold exactly, truncation included: budget 90 at tau 100,
        # the benchmark's one-row fold (budget 450 at tau 500, up to 599
        # steps) and a multi-row fold (budget 231 at tau 100)
        cases = [
            (geometry(10000, 100), LinkModel.from_parameters(4, 0.5, 10.0, 100)),
            (geometry(200000, 500), LinkModel.from_parameters(4, 0.5, 10.0, 500)),
            (geometry(10000, 100), LinkModel.from_parameters(4, 0.25, 10.0, 100)),
        ]
        loads = [0.2, 0.7, 1.3, 1.5]
        for config, link in cases:
            x_dec = link.budget.max_interference
            for pt in analytic_curve(config, link, loads):
                pmf = interference_distribution(config, pt.n_tx - 1, trunc_len=x_dec)
                p_ccd = p_copy_decoded(pmf, link.budget)
                assert pt.p_ccd == p_ccd
                assert pt.plr == (1.0 - p_ccd) ** 2

    def test_truncated_curve_equals_untruncated_values(self):
        config = geometry(600, 6)
        link = LinkModel.from_parameters(4, 0.5, 10.0, 6)
        x_dec = link.budget.max_interference
        for pt in analytic_curve(config, link, [0.3, 1.0, 2.0]):
            full = interference_distribution(config, pt.n_tx - 1)
            assert pt.p_ccd == p_copy_decoded(full, link.budget)

    def test_undecodable_link_loses_everything(self):
        config = geometry(10000, 100)
        link = LinkModel.from_parameters(4, 0.5, -3.5, 100)
        pts = analytic_curve(config, link, [0.0, 0.5, 1.0])
        assert pts[0].plr == 0.0  # nothing sent, nothing lost
        assert pts[1].plr == 1.0 and pts[1].throughput == 0.0
        assert pts[2].plr == 1.0 and pts[2].throughput == 0.0

    def test_plr_nondecreasing_in_load(self):
        config = geometry(10000, 100)
        link = LinkModel.from_parameters(4, 0.5, 2.0, 100)
        loads = [round(0.05 * i, 10) for i in range(41)]
        pts = analytic_curve(config, link, loads)
        for prev, cur in zip(pts, pts[1:]):
            assert cur.plr >= prev.plr - 1e-12

    @pytest.mark.parametrize(
        "config, link, loads",
        [
            # budgets past n_dp * tau: 49 disturbers of 10 symbols at a
            # -300 dB threshold, and 1 disturber of 10 under a budget of 10
            (geometry(1000, 10), LinkModel.from_parameters(4, 0.5, 10.0, 10, -300.0), [0.5]),
            (geometry(60, 10), LinkModel.from_parameters(4, 0.25, 20.0, 10), [0.3, 0.4]),
        ],
    )
    def test_budget_covering_the_support_loses_nothing(self, config, link, loads):
        assert (n_tx_for_load(config, max(loads)) - 1) * config.burst_len <= (
            link.budget.max_interference
        )
        for pt in analytic_curve(config, link, loads):
            assert (pt.p_ccd, pt.plr, pt.throughput) == (1.0, 0.0, pt.load)

    def test_covered_counts_run_no_fold_step(self, monkeypatch):
        # at -300 dB the budget covers every disturber count of the grid
        def refuse(*args):
            raise AssertionError("a covered count was folded")

        monkeypatch.setattr(analytic, "_fold_step", refuse)
        link = LinkModel.from_parameters(4, 0.5, 10.0, 500, -300.0)
        loads = [round(0.1 * i, 10) for i in range(1, 16)]
        for pt in analytic_curve(geometry(200000, 500), link, loads):
            assert (pt.p_ccd, pt.plr) == (1.0, 0.0)

    @pytest.mark.parametrize("frame_len, tau", [(60, 1), (60, 3), (80, 5), (200, 7)])
    def test_covered_budget_boundary(self, frame_len, tau):
        # budgets one below, at and one above the support n * tau
        config = geometry(frame_len, tau)
        base = LinkModel.from_parameters(4, 0.5, 10.0, tau)
        for n_dp in (1, 2, 4):
            load = (n_dp + 1) * tau / frame_len
            assert n_tx_for_load(config, load) == n_dp + 1
            full = interference_distribution(config, n_dp)
            for x_dec in (n_dp * tau - 1, n_dp * tau, n_dp * tau + 1):
                budget = DecodeBudget(x_dec)
                link = dataclasses.replace(base, budget=budget)
                (pt,) = analytic_curve(config, link, [load])
                assert pt.p_ccd == p_copy_decoded(full, budget)
                assert (pt.p_ccd == 1.0) == (n_dp * tau <= x_dec)

    def test_rejects_unsupported_geometry(self):
        link = LinkModel.from_parameters(4, 0.5, 10.0, 100)
        with pytest.raises(ConfigError):
            analytic_curve(geometry(400, 100), link, [0.5])


class TestSystemConfigIntegers:
    @pytest.mark.parametrize(
        "args",
        [(1000.5, 10), (1000, 10.0), ("1000", 10), (True, 1), (1000, 10, 2.0),
         (1000, 10, False), (np.float64(1000), 10)],
    )
    def test_non_integer_lengths_rejected(self, args):
        with pytest.raises(ConfigError, match="must be an int"):
            SystemConfig(*args)

    def test_numpy_integers_stored_as_int(self):
        config = SystemConfig(np.int64(1000), np.int32(10), np.uint8(2))
        assert config == SystemConfig(1000, 10)
        assert all(type(v) is int for v in dataclasses.astuple(config))
        link = LinkModel.from_parameters(4, 0.5, 10.0, 10)
        assert analytic_curve(config, link, [0.5]) == analytic_curve(
            SystemConfig(1000, 10), link, [0.5]
        )


class TestInterferencePmfValidation:
    def test_untruncated_length_must_match_support(self):
        with pytest.raises(InvalidParameterError):
            InterferencePmf(geometry(64, 3), 1, np.array([0.5, 0.5]))

    def test_untruncated_mass_must_be_one(self):
        with pytest.raises(InvalidParameterError):
            InterferencePmf(geometry(64, 3), 1, np.array([0.5, 0.1, 0.1, 0.1]))

    def test_negative_mass_rejected(self):
        with pytest.raises(InvalidParameterError):
            InterferencePmf(geometry(64, 3), 1, np.array([1.1, 0.0, 0.0, -0.1]))

    def test_truncation_bounds(self):
        with pytest.raises(InvalidParameterError):
            InterferencePmf(geometry(64, 3), 1, np.ones(4) / 4.0, truncated_at=3)

    @pytest.mark.parametrize(
        "dp_count, probs, truncated_at",
        [(0, [np.nan], None), (1, [0.5, np.nan, 0.1], 2)],
        ids=["untruncated", "truncated"],
    )
    def test_non_finite_mass_rejected(self, dp_count, probs, truncated_at):
        # NaN compares False against every bound, so only a finiteness check
        # keeps it out of p_copy_decoded
        with pytest.raises(InvalidParameterError):
            InterferencePmf(SystemConfig(1000, 10), dp_count, probs, truncated_at)
