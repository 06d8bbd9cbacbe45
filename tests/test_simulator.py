"""Simulator checks: placement validity, exact interference accounting
against the all-pairs reference, decoding, and stream determinism."""

import numpy as np
import pytest

from divaloha import (
    ConfigError,
    DecodeBudget,
    Frame,
    InvalidParameterError,
    LinkModel,
    PlacementImpossibleError,
    SystemConfig,
    decode_frame,
    draw_frame,
    estimate_point,
    frame_rng,
    per_copy_interference,
    per_copy_interference_brute,
    point_seed,
    sweep,
)

LINK_10DB = LinkModel.from_parameters(4, 0.5, 10.0, 100)


def test_frame_rng_is_reproducible():
    a = frame_rng(123, 7).integers(0, 1 << 30, size=8)
    b = frame_rng(123, 7).integers(0, 1 << 30, size=8)
    c = frame_rng(123, 8).integers(0, 1 << 30, size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_point_seed_is_stable_and_distinct():
    assert point_seed(42, 0) == point_seed(42, 0)
    seeds = {point_seed(42, i) for i in range(100)}
    assert len(seeds) == 100


class TestDrawFrame:
    def test_shape_and_bounds(self):
        config = SystemConfig(frame_len=1000, burst_len=50)
        frame = draw_frame(frame_rng(1, 0), 30, config)
        assert frame.starts.shape == (30, 2)
        assert frame.starts.dtype == np.int64
        assert frame.starts.min() >= 0
        assert frame.starts.max() <= config.frame_len - config.burst_len

    def test_same_packet_copies_never_overlap(self):
        # tightest geometry where every first-copy draw still leaves room
        config = SystemConfig(frame_len=300, burst_len=100)
        for f in range(50):
            frame = draw_frame(frame_rng(9, f), 1, config)
            gap = abs(int(frame.starts[0, 0]) - int(frame.starts[0, 1]))
            assert gap >= config.burst_len

    def test_three_copies(self):
        config = SystemConfig(frame_len=1000, burst_len=50, copies=3)
        frame = draw_frame(frame_rng(2, 0), 20, config)
        assert frame.copies == 3
        for row in frame.starts:
            srt = np.sort(row)
            assert np.all(np.diff(srt) >= config.burst_len)

    def test_empty_frame(self):
        config = SystemConfig(frame_len=1000, burst_len=50)
        frame = draw_frame(frame_rng(1, 0), 0, config)
        assert frame.n_packets == 0

    def test_negative_count_rejected(self):
        config = SystemConfig(frame_len=1000, burst_len=50)
        with pytest.raises(InvalidParameterError):
            draw_frame(frame_rng(1, 0), -1, config)

    def test_impossible_packing_raises_up_front(self):
        with pytest.raises(ConfigError):
            SystemConfig(frame_len=120, burst_len=50, copies=3)

    def test_dead_end_first_copy_raises(self):
        # burst of half the frame: a mid-frame first copy leaves no room
        config = SystemConfig(frame_len=100, burst_len=50)
        with pytest.raises(PlacementImpossibleError):
            for f in range(200):
                draw_frame(frame_rng(3, f), 4, config)

    def test_jammed_frame_raises_at_once(self):
        # nine copies of 100 fit in 1000 symbols only if packed end to end
        config = SystemConfig(frame_len=1000, burst_len=100, copies=9)
        with pytest.raises(PlacementImpossibleError):
            draw_frame(frame_rng(1, 0), 10, config)


class ScriptedRng:
    """Stands in for a Generator: each ``integers`` call returns the next
    scripted array and records the upper bounds it was asked for."""

    def __init__(self, *outputs):
        self.outputs = list(outputs)
        self.highs = []

    def integers(self, low, high, size=None):
        assert low == 0
        out = np.asarray(self.outputs.pop(0), dtype=np.int64)
        assert np.all(out < high)
        self.highs.append(np.broadcast_to(high, out.shape).copy())
        return out


def admissible(config, earlier):
    return [
        x
        for x in range(config.start_positions)
        if all(abs(x - s) >= config.burst_len for s in earlier)
    ]


class TestRankPlacement:
    """Every rank 0..free-1 maps to exactly the admissible starts, in order."""

    CONFIG = dict(frame_len=40, burst_len=5)

    def test_two_copies(self):
        config = SystemConfig(copies=2, **self.CONFIG)
        for s0 in range(config.start_positions):
            want = admissible(config, [s0])
            n = len(want)
            rng = ScriptedRng(np.full(n, s0), np.arange(n))
            frame = draw_frame(rng, n, config)
            assert np.array_equal(rng.highs[0], np.full(n, config.start_positions))
            assert np.array_equal(rng.highs[1], np.full(n, n))
            assert frame.starts[:, 1].tolist() == want

    def test_three_copies(self):
        config = SystemConfig(copies=3, **self.CONFIG)
        for s0 in range(config.start_positions):
            second = admissible(config, [s0])
            for rank1, s1 in enumerate(second):
                want = admissible(config, [s0, s1])
                n = len(want)
                rng = ScriptedRng(np.full(n, s0), np.full(n, rank1), np.arange(n))
                frame = draw_frame(rng, n, config)
                assert np.array_equal(rng.highs[2], np.full(n, n))
                assert np.all(frame.starts[:, 1] == s1)
                assert frame.starts[:, 2].tolist() == want

    def test_no_room_raises_before_drawing(self):
        config = SystemConfig(frame_len=100, burst_len=50)
        rng = ScriptedRng([25])
        with pytest.raises(PlacementImpossibleError):
            draw_frame(rng, 1, config)
        assert len(rng.highs) == 1


class TestPairwiseOverlap:
    @pytest.mark.parametrize(
        "a,b,tau,expected",
        [(0, 0, 100, 100), (0, 1, 100, 99), (0, 99, 100, 1), (0, 100, 100, 0), (0, 250, 100, 0)],
    )
    def test_oracle_values(self, a, b, tau, expected):
        # two single-copy packets: each sees exactly the pair's overlap
        config = SystemConfig(frame_len=400, burst_len=tau, copies=1)
        frame = Frame(np.array([[a], [b]], dtype=np.int64))
        assert per_copy_interference(frame, config).tolist() == [[expected]] * 2
        assert per_copy_interference_brute(frame, config).tolist() == [[expected]] * 2


class TestPerCopyInterference:
    def test_hand_built_frame(self):
        # burst 3; packet 0 at (0, 10), packet 1 at (2, 20)
        config = SystemConfig(frame_len=30, burst_len=3)
        frame = Frame(np.array([[0, 10], [2, 20]], dtype=np.int64))
        expected = np.array([[1, 0], [1, 0]])
        assert np.array_equal(per_copy_interference(frame, config), expected)
        assert np.array_equal(per_copy_interference_brute(frame, config), expected)

    def test_stacked_identical_starts(self):
        config = SystemConfig(frame_len=30, burst_len=4)
        frame = Frame(np.array([[5, 20], [5, 26], [5, 12]], dtype=np.int64))
        got = per_copy_interference(frame, config)
        assert np.array_equal(got, per_copy_interference_brute(frame, config))
        assert got[0, 0] == 8  # two other copies right on top

    def test_empty_frame(self):
        config = SystemConfig(frame_len=30, burst_len=4)
        frame = Frame(np.empty((0, 2), dtype=np.int64))
        assert per_copy_interference(frame, config).shape == (0, 2)

    @pytest.mark.parametrize("copies", [1, 2, 3])
    @pytest.mark.parametrize("n_tx", [1, 7, 40])
    def test_sweep_matches_brute_on_random_frames(self, copies, n_tx):
        config = SystemConfig(frame_len=2000, burst_len=60, copies=copies)
        for f in range(25):
            frame = draw_frame(frame_rng(1000 + copies, f), n_tx, config)
            assert np.array_equal(
                per_copy_interference(frame, config),
                per_copy_interference_brute(frame, config),
            )


class TestDecodeFrame:
    def test_budget_gate(self):
        interference = np.array([[0, 50], [10, 10], [51, 51]])
        assert decode_frame(interference, DecodeBudget(50), copies=2) == 1
        assert decode_frame(interference, DecodeBudget(9), copies=2) == 2
        assert decode_frame(interference, DecodeBudget(0), copies=2) == 2

    def test_single_copy(self):
        interference = np.array([[0], [1], [2]])
        assert decode_frame(interference, DecodeBudget(1), copies=1) == 1

    def test_undecodable_loses_all(self):
        interference = np.zeros((5, 2), dtype=np.int64)
        assert decode_frame(interference, DecodeBudget(None), copies=2) == 5

    def test_empty(self):
        assert decode_frame(np.empty((0, 2)), DecodeBudget(10), copies=2) == 0


class TestEstimatePoint:
    def test_deterministic_for_seed(self):
        config = SystemConfig(frame_len=10000, burst_len=100)
        a = estimate_point(config, LINK_10DB, 0.8, 120, seed=5)
        b = estimate_point(config, LINK_10DB, 0.8, 120, seed=5)
        assert a == b
        c = estimate_point(config, LINK_10DB, 0.8, 120, seed=6)
        assert c != a

    def test_worker_count_does_not_change_results(self):
        config = SystemConfig(frame_len=10000, burst_len=100)
        serial = estimate_point(config, LINK_10DB, 0.9, 60, seed=11, workers=1)
        forked = estimate_point(config, LINK_10DB, 0.9, 60, seed=11, workers=3)
        assert serial == forked

    def test_zero_load(self):
        config = SystemConfig(frame_len=10000, burst_len=100)
        res = estimate_point(config, LINK_10DB, 0.0, 50, seed=1)
        assert res.n_tx == 0
        assert res.plr_mean == 0.0
        assert res.throughput_mean == 0.0

    def test_undecodable_link(self):
        config = SystemConfig(frame_len=10000, burst_len=100)
        weak = LinkModel.from_parameters(4, 0.5, -3.5, 100)
        res = estimate_point(config, weak, 0.5, 50, seed=1)
        assert res.plr_mean == 1.0
        assert res.plr_stderr == 0.0
        assert res.throughput_mean == 0.0

    def test_result_identities(self):
        config = SystemConfig(frame_len=10000, burst_len=100)
        res = estimate_point(config, LINK_10DB, 0.7, 200, seed=3)
        assert 0.0 <= res.plr_mean <= 1.0
        assert res.plr_stderr >= 0.0
        assert res.throughput_mean == res.load * (1.0 - res.plr_mean)
        assert res.rounds == 200
        assert res.n_tx == 70

    def test_single_round_has_no_stderr(self):
        config = SystemConfig(frame_len=10000, burst_len=100)
        res = estimate_point(config, LINK_10DB, 0.5, 1, seed=3)
        assert res.plr_stderr == 0.0

    def test_rounds_must_be_positive(self):
        config = SystemConfig(frame_len=10000, burst_len=100)
        with pytest.raises(InvalidParameterError):
            estimate_point(config, LINK_10DB, 0.5, 0, seed=3)

    def test_interference_free_regime_loses_nothing(self):
        # one packet per frame and a decodable link: loss is impossible
        config = SystemConfig(frame_len=10000, burst_len=100)
        res = estimate_point(config, LINK_10DB, 0.01, 50, seed=4)
        assert res.n_tx == 1
        assert res.plr_mean == 0.0


class TestSweep:
    def test_applies_derived_point_seeds(self):
        config = SystemConfig(frame_len=10000, burst_len=100)
        loads = [0.3, 0.6, 0.3]
        results = sweep(config, LINK_10DB, loads, 80, seed=17)
        assert [r.load for r in results] == loads
        for i, res in enumerate(results):
            direct = estimate_point(config, LINK_10DB, loads[i], 80, point_seed(17, i))
            assert res == direct
        # same load at a different grid index sees different frames
        assert results[0] != results[2]

    def test_tracks_analytic_in_tight_regime(self):
        from divaloha import analytic_curve

        config = SystemConfig(frame_len=10000, burst_len=100)
        loads = [0.4, 1.0]
        pts = analytic_curve(config, LINK_10DB, loads)
        results = sweep(config, LINK_10DB, loads, 1500, seed=23)
        for pt, res in zip(pts, results):
            assert abs(pt.plr - res.plr_mean) <= max(0.02, 5 * res.plr_stderr)
