"""Simulator checks: placement validity, exact interference accounting
against the all-pairs reference, decoding, and stream determinism."""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import divaloha
from divaloha import (
    ConfigError,
    DecodeBudget,
    Frame,
    InvalidParameterError,
    LinkModel,
    PlacementImpossibleError,
    SystemConfig,
    WorkBoundError,
    analytic_curve,
    decode_frame,
    draw_frame,
    estimate_point,
    frame_rng,
    interference_distribution,
    per_copy_interference,
    per_copy_interference_brute,
    point_seed,
    sweep,
)
from divaloha import analytic, harness, simulator
from divaloha.analytic import MAX_FOLD_STEPS
from divaloha.harness import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from divaloha.simulator import (
    _ALL_PAIRS_MAX,
    MAX_FRAME_COPIES,
    RNG_STREAM_RULE,
    _frames_lost,
)

LINK_10DB = LinkModel.from_parameters(4, 0.5, 10.0, 100)


def test_frame_rng_is_reproducible():
    a = frame_rng(123, 7).integers(0, 1 << 30, size=8)
    b = frame_rng(123, 7).integers(0, 1 << 30, size=8)
    c = frame_rng(123, 8).integers(0, 1 << 30, size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def dirty_generators():
    """Generators whose state is mid-stream, not freshly keyed."""
    odd = frame_rng(5, 1)
    for _ in range(3):
        odd.integers(0, 1000)  # leaves a buffered uint32
    assert odd.bit_generator.state["has_uint32"] == 1
    partial = frame_rng(6, 2)
    partial.random(3)  # leaves a partly used 64-bit buffer
    assert partial.bit_generator.state["buffer_pos"] < 4
    return [odd, partial]


class TestFrameRngRekey:
    @pytest.mark.parametrize("copies", [1, 2, 3])
    def test_rekeyed_draws_match_fresh(self, copies):
        config = SystemConfig(frame_len=3000, burst_len=100, copies=copies)
        for rng in dirty_generators():
            for seed, f in [(7, 0), (7, 1), ((1 << 64) - 1, (1 << 64) - 1)]:
                rekeyed = frame_rng(seed, f, rng)
                assert rekeyed is rng
                got = draw_frame(rekeyed, 20, config).starts
                want = draw_frame(frame_rng(seed, f), 20, config).starts
                assert np.array_equal(got, want)

    def test_rekey_resets_buffers(self):
        for rng in dirty_generators():
            rekeyed = frame_rng(3, 4, rng)
            fresh = frame_rng(3, 4)
            state = rekeyed.bit_generator.state
            assert state["state"]["key"].tolist() == [4, 3]
            assert state["state"]["counter"].tolist() == [0, 0, 0, 0]
            assert (state["buffer_pos"], state["has_uint32"]) == (4, 0)
            # scalar draws take the buffered-uint32 path, raw the 64-bit one
            draws = [
                ([int(gen.integers(0, 1000)) for _ in range(3)],
                 gen.bit_generator.random_raw(6).tolist())
                for gen in (rekeyed, fresh)
            ]
            assert draws[0] == draws[1]

    @pytest.mark.parametrize(
        "seed, f",
        [(0, 0), (7, 1), (1 << 63, 12345), ((1 << 64) - 1, (1 << 64) - 1)],
    )
    def test_key_matches_reference_philox(self, seed, f):
        # the keying rule, spelled out independently of frame_rng
        def draws(gen):
            return gen.integers(0, 1000, size=3).tolist(), gen.random(2).tolist()

        want = draws(np.random.Generator(np.random.Philox(key=(seed << 64) | f)))
        assert draws(frame_rng(seed, f)) == want
        for rng in dirty_generators():
            assert draws(frame_rng(seed, f, rng)) == want

    def test_chunk_matches_fresh_frames(self):
        config = SystemConfig(frame_len=20000, burst_len=1000)
        budget = LINK_10DB.budget
        want = [
            decode_frame(
                per_copy_interference(draw_frame(frame_rng(9, f), 30, config), config),
                budget,
                config.copies,
            )
            for f in range(40, 90)
        ]
        assert _frames_lost(config, budget, 30, 9, 40, 90).tolist() == want


PER_FRAME = ("frame_rng", "draw_frame", "per_copy_interference", "decode_frame")


def test_frames_lost_calls_each_stage_once_per_frame_in_order(monkeypatch):
    # the traced benchmark times these four module globals inside this loop
    # and counts one call of each per frame, so a stage that is inlined,
    # batched or skipped must fail here first
    calls = []
    for name in PER_FRAME:
        def counted(*args, _real=getattr(simulator, name), _name=name):
            calls.append((_name, args[1] if _name == "frame_rng" else None))
            return _real(*args)

        monkeypatch.setattr(simulator, name, counted)
    config = SystemConfig(frame_len=20000, burst_len=1000)
    _frames_lost(config, LINK_10DB.budget, 30, 9, 40, 47)
    assert calls == [
        (name, f if name == "frame_rng" else None)
        for f in range(40, 47)
        for name in PER_FRAME
    ]


# sha256 of the simulate CSV under RNG_STREAM_RULE v2. These pin the stream
# bytes: only a deliberate, CHANGES-logged bump of RNG_STREAM_RULE may
# update them, together with its version tag.
GOLDEN_V2 = [
    (
        ["--tf", "20000", "--tau", "1000"],
        "40966c18cbfc67fc2156b29f99554c9149d6a067d488c182f267ad889d8c7988",
    ),
    (
        ["--copies", "3", "--tf", "3000", "--tau", "100"],
        "dec05866629029034682352cf783ca7139a127e92c8ad5e962d6558d8af77a72",
    ),
]


@pytest.mark.parametrize("geometry,digest", GOLDEN_V2, ids=["r20", "copies3"])
def test_stream_rule_v2_golden_bytes(geometry, digest, capsys):
    assert RNG_STREAM_RULE.startswith("v2:")
    argv = ["simulate", *geometry, "--loads", "0.3,1.5", "--rounds", "200", "--seed", "7"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# The same pin for the big frames (600 packets at 200000/500, load 1.5),
# where the per-copy sweep does its largest sorts and searches.
GOLDEN_V2_BIG_FRAMES = [
    (
        ["simulate", "--tf", "200000", "--tau", "500", "--copies", "2"],
        "5681dba2cb34b3c32f1aaad03e2b9d93f4ebd5d639858b4c085de431820ac591",
    ),
    (
        ["compare", "--tf", "100000", "--tau", "1000"],
        "2f5b0516f39767f6a13a89c80dd8247b99cdd0ee1117fb70f3a05b64b6aaae0e",
    ),
]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize(
    "command,digest", GOLDEN_V2_BIG_FRAMES, ids=["simulate-r400", "compare-r100"]
)
def test_stream_rule_v2_golden_bytes_big_frames(command, digest, workers, capsys):
    assert RNG_STREAM_RULE.startswith("v2:")
    argv = [*command, "--loads", "0.3,1.5", "--rounds", "40", "--seed", "7",
            "--workers", workers]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


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

    @pytest.mark.parametrize(
        "copies, frame_len, tau",
        # positions == (copies - 1)*(2*tau - 1) + 1: the smallest frames in
        # which draw_frame skips the room check for the last copy
        [(2, 11, 4), (3, 18, 4), (4, 25, 4)],
    )
    def test_every_rank_lands_on_an_admissible_start(self, copies, frame_len, tau):
        config = SystemConfig(frame_len=frame_len, burst_len=tau, copies=copies)
        # every admissible placement of the earlier copies, with the rank
        # each of them is drawn at
        prefixes = [([s0], [s0]) for s0 in range(config.start_positions)]
        for _ in range(copies - 2):
            prefixes = [
                (starts + [x], draws + [r])
                for starts, draws in prefixes
                for r, x in enumerate(admissible(config, starts))
            ]
        for starts, draws in prefixes:
            want = admissible(config, starts)
            n = len(want)
            rng = ScriptedRng(*[np.full(n, d) for d in draws], np.arange(n))
            frame = draw_frame(rng, n, config)
            assert np.array_equal(rng.highs[-1], np.full(n, n))
            assert np.array_equal(frame.starts[:, :-1], np.tile(starts, (n, 1)))
            assert frame.starts[:, -1].tolist() == want

    @pytest.mark.parametrize(
        "copies, frame_len, script",
        [
            # positions == c*(2*tau - 1) at tau 4: a first copy at 3 blocks
            # all 7 starts; a second copy at 10 (rank 3) the 7 left after it
            (2, 10, [[3]]),
            (3, 17, [[3], [3]]),
        ],
    )
    def test_no_room_at_the_room_bound_raises_before_drawing(
        self, copies, frame_len, script
    ):
        config = SystemConfig(frame_len=frame_len, burst_len=4, copies=copies)
        assert config.start_positions == (copies - 1) * (2 * 4 - 1)
        rng = ScriptedRng(*script)
        with pytest.raises(PlacementImpossibleError):
            draw_frame(rng, 1, config)
        assert len(rng.highs) == copies - 1


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


# packets per frame on each side of the all-pairs cutoff: the largest frame
# of 1, 2 and 3 copies per packet at or below _ALL_PAIRS_MAX copies, and the
# smallest above it
CUTOFF_N_TX = sorted(
    {m for c in (1, 2, 3) for m in (_ALL_PAIRS_MAX // c, _ALL_PAIRS_MAX // c + 1)}
)


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
    @pytest.mark.parametrize("n_tx", [1, 7, 40, *CUTOFF_N_TX, 400])
    def test_sweep_matches_brute_on_random_frames(self, copies, n_tx):
        config = SystemConfig(frame_len=2000, burst_len=60, copies=copies)
        for f in range(25):
            frame = draw_frame(frame_rng(1000 + copies, f), n_tx, config)
            assert np.array_equal(
                per_copy_interference(frame, config),
                per_copy_interference_brute(frame, config),
            )


@st.composite
def edge_frames(draw):
    """Valid frames at the sweep's edge geometries: unit bursts, copies
    packed end to end in the frame, and a lone packet. Unit-burst and packed
    frames reach twice the all-pairs cutoff, so ties and frame edges meet
    both overlap paths."""
    kind = draw(st.sampled_from(["unit_burst", "packed", "lone_packet"]))
    copies = draw(st.integers(1, 3))
    tau = 1 if kind == "unit_burst" else draw(st.integers(1, 12))
    frame_len = copies * tau
    if kind != "packed":
        frame_len += draw(st.integers(0, 40))
    if kind == "lone_packet":
        n_tx = 1
    else:
        n_tx = draw(st.integers(1, 2 * _ALL_PAIRS_MAX // copies))
    config = SystemConfig(frame_len=frame_len, burst_len=tau, copies=copies)
    # sorted slacks plus i*tau keep a packet's copies >= tau apart in frame
    slack = config.start_positions - 1 - (copies - 1) * tau
    rows = []
    for _ in range(n_tx):
        gaps = sorted(draw(st.lists(st.integers(0, slack), min_size=copies, max_size=copies)))
        rows.append(draw(st.permutations([g + i * tau for i, g in enumerate(gaps)])))
    return config, Frame(np.array(rows, dtype=np.int64))


@settings(deadline=None, max_examples=200)
@given(case=edge_frames())
def test_sweep_matches_brute_on_edge_geometries(case):
    config, frame = case
    assert np.array_equal(
        per_copy_interference(frame, config),
        per_copy_interference_brute(frame, config),
    )


@st.composite
def shared_start_frames(draw):
    """Valid frames in which many starts repeat across packets.

    Every start lies on one of a few lattices of step tau, so two copies on
    one lattice either coincide or do not overlap, while copies on
    different lattices overlap partly. Each packet keeps to one lattice and
    takes distinct points of it, so its own copies never overlap.
    """
    copies = draw(st.integers(1, 3))
    tau = draw(st.integers(1, 40))
    points = copies + draw(st.integers(0, 4))
    offsets = draw(st.lists(st.integers(0, tau - 1), min_size=1, max_size=3))
    n_tx = draw(st.integers(1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lattice = rng.integers(0, len(offsets), size=n_tx)
    picks = np.argsort(rng.random((n_tx, points)), axis=1)[:, :copies]
    starts = np.asarray(offsets)[lattice][:, None] + tau * picks
    config = SystemConfig(
        frame_len=max(offsets) + points * tau, burst_len=tau, copies=copies
    )
    return config, Frame(starts.astype(np.int64)), rng.permutation(n_tx)


@settings(deadline=None, max_examples=25)
@given(case=shared_start_frames())
def test_sweep_on_shared_starts_matches_brute_and_follows_row_order(case):
    # the sweep's sort is not stable: tie order among equal starts must not
    # reach the result
    config, frame, perm = case
    got = per_copy_interference(frame, config)
    assert np.array_equal(got, per_copy_interference_brute(frame, config))
    permuted = per_copy_interference(Frame(frame.starts[perm]), config)
    assert np.array_equal(permuted, got[perm])


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


def decode_reference(interference, budget, copies):
    """Packets whose every copy exceeds the budget, by row reduction."""
    arr = np.asarray(interference).reshape(-1, copies)
    if not budget.decodable:
        return arr.shape[0]
    return int(np.count_nonzero((arr > budget.max_interference).all(axis=1)))


class TestDecodeFrameReference:
    BUDGET = DecodeBudget(50)

    @pytest.mark.parametrize("copies", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_tx", [1, 2, 37, 600])
    def test_matches_row_reduction(self, copies, n_tx):
        # values straddle the budget, so many copies sit exactly on it
        rng = np.random.default_rng(100 * copies + n_tx)
        for _ in range(20):
            interference = rng.integers(48, 53, size=(n_tx, copies))
            assert decode_frame(interference, self.BUDGET, copies) == (
                decode_reference(interference, self.BUDGET, copies)
            )

    @pytest.mark.parametrize("copies", [1, 2, 3, 4])
    def test_edge_frames(self, copies):
        at_budget = np.full((5, copies), 50)
        over = at_budget + 1
        one_clean = over.copy()
        one_clean[:, -1] = 50
        cases = [(at_budget, 0), (over, 5), (one_clean, 0), (over[:1], 1),
                 (at_budget[:1], 0), (np.zeros((0, copies)), 0)]
        for interference, lost in cases:
            assert decode_frame(interference, self.BUDGET, copies) == lost
            assert decode_reference(interference, self.BUDGET, copies) == lost


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

    @pytest.mark.parametrize("rounds", [1, 7])
    def test_fewer_chunks_than_workers_times_four(self, rounds):
        # 1 and 7 frames over 2 workers: fewer chunks than 8, uneven bounds
        config = SystemConfig(frame_len=10000, burst_len=100)
        serial = estimate_point(config, LINK_10DB, 1.2, rounds, seed=13, workers=1)
        forked = estimate_point(config, LINK_10DB, 1.2, rounds, seed=13, workers=2)
        assert serial == forked

    @pytest.mark.parametrize(
        "workers,rounds,cpus,size",
        [(500, 10, 64, 10), (500, 1000, 2, 2), (3, 1000, 64, 3), (4, 50, None, 1)],
    )
    def test_pool_never_exceeds_chunks_or_cpus(
        self, workers, rounds, cpus, size, monkeypatch
    ):
        # a recorder stands in for the pool and maps serially, so no
        # process is ever started
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(simulator.os, "cpu_count", lambda: cpus)
        config = SystemConfig(frame_len=2000, burst_len=20)
        pooled = estimate_point(config, LINK_10DB, 0.5, rounds, seed=19, workers=workers)
        assert sizes == [size]
        assert pooled == estimate_point(config, LINK_10DB, 0.5, rounds, seed=19)

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


class TestFrameCopyBound:
    """The per-frame copy bound refuses a load before any frame is placed."""

    @pytest.fixture
    def no_placement(self, monkeypatch):
        class Placed(Exception):
            pass

        def placed(*args, **kwargs):
            raise Placed

        monkeypatch.setattr(simulator, "draw_frame", placed)
        return Placed

    def test_bound_is_inclusive(self, no_placement):
        # unit bursts: n_tx = load * frame_len, two copies each
        config = SystemConfig(frame_len=MAX_FRAME_COPIES, burst_len=1)
        with pytest.raises(no_placement):
            estimate_point(config, LINK_10DB, 0.5, 1, seed=1)
        over = (MAX_FRAME_COPIES // 2 + 1) / MAX_FRAME_COPIES
        with pytest.raises(WorkBoundError):
            estimate_point(config, LINK_10DB, over, 1, seed=1)

    @pytest.mark.parametrize("tf", ["1000000000", "1000000000000000000"])
    def test_cli_refuses_huge_frame(self, tf, no_placement, capsys):
        argv = ["simulate", "--tf", tf, "--tau", "1", "--loads", "1", "--rounds", "1"]
        assert main(argv) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("divaloha: ") and err.count("\n") == 1
        assert str(MAX_FRAME_COPIES) in err


class TestBoundBeforeAnyWork:
    """An over-bound load anywhere in the grid is refused before the
    analytic fold and before the first simulated frame."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def work(*args, **kwargs):
            raise AssertionError("work started before the bound was checked")

        monkeypatch.setattr(harness, "analytic_curve", work)
        monkeypatch.setattr(simulator, "draw_frame", work)

    @pytest.mark.parametrize(
        "argv",
        [
            # a million packets: 2 * 10**6 copies, past the bound
            ["compare", "--loads", "1"],
            # load 0.1 alone is within the bound and would run first
            ["simulate", "--loads", "0.1,1"],
            ["compare", "--loads", "0.1,1"],
            ["analytic", "--loads", "1"],
            ["analytic", "--loads", "0.1,1"],
        ],
    )
    def test_cli_refuses_up_front(self, argv, no_work, capsys):
        code = main([*argv, "--tf", "10000000", "--tau", "10", "--rounds", "1"])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("divaloha: ") and err.count("\n") == 1
        assert str(MAX_FRAME_COPIES) in err

    @pytest.mark.parametrize(
        "argv",
        [
            # 500000 packets: inside the frame bound, 499999 fold steps
            ["analytic", "--loads", "1"],
            # load 0.1 alone (49999 steps) is within the fold bound
            ["analytic", "--loads", "0.1,1"],
            ["compare", "--loads", "1"],
            ["compare", "--loads", "0.1,1"],
        ],
    )
    def test_fold_bound_refuses_before_any_step(self, argv, monkeypatch, capsys):
        def work(*args, **kwargs):
            raise AssertionError("work started before the fold bound was checked")

        monkeypatch.setattr(analytic, "_fold", work)
        monkeypatch.setattr(simulator, "draw_frame", work)
        code = main([*argv, "--tf", "1000000", "--tau", "2", "--rounds", "1"])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("divaloha: ") and err.count("\n") == 1
        assert str(MAX_FOLD_STEPS) in err

    def test_fold_bound_is_inclusive(self, monkeypatch):
        class Folded(Exception):
            pass

        def folded(*args, **kwargs):
            raise Folded

        monkeypatch.setattr(analytic, "_fold", folded)
        config = SystemConfig(frame_len=1000, burst_len=10)
        with pytest.raises(Folded):
            interference_distribution(config, MAX_FOLD_STEPS, 5)
        with pytest.raises(WorkBoundError):
            interference_distribution(config, MAX_FOLD_STEPS + 1, 5)
        # n_tx = load * 100 packets fold n_tx - 1 disturbers
        at_bound = (MAX_FOLD_STEPS + 1) / 100
        with pytest.raises(Folded):
            analytic_curve(config, LINK_10DB, [0.5, at_bound])
        with pytest.raises(WorkBoundError):
            analytic_curve(config, LINK_10DB, [at_bound + 0.01, 0.5])

    def test_sweep_refuses_up_front(self, no_work):
        config = SystemConfig(frame_len=10_000_000, burst_len=10)
        with pytest.raises(WorkBoundError):
            sweep(config, LINK_10DB, [0.1, 1.0], 1, seed=1)

    def test_analytic_error_still_precedes_simulation(self, monkeypatch, capsys):
        def placed(*args, **kwargs):
            raise AssertionError("simulated before the analytic check")

        monkeypatch.setattr(simulator, "draw_frame", placed)
        argv = ["compare", "--tf", "3000", "--tau", "100", "--copies", "3",
                "--loads", "0.5", "--rounds", "1"]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("divaloha: ") and "2 copies" in err


def test_import_leaves_process_pool_out():
    # only a multi-worker run needs concurrent.futures.process
    src = os.path.dirname(os.path.dirname(os.path.abspath(divaloha.__file__)))
    code = (
        "import sys, divaloha, divaloha.harness; "
        "print('concurrent.futures.process' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert out.stdout.strip() == "False"
