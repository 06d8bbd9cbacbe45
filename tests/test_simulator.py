"""Simulator checks: placement validity, exact interference accounting
against the all-pairs reference, decoding, and stream determinism."""

import ast
import hashlib
import inspect
import os
import subprocess
import sys
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import divaloha
from divaloha import (
    ConfigError,
    DecodeBudget,
    Frame,
    InterferencePmf,
    InvalidParameterError,
    LinkModel,
    PlacementImpossibleError,
    SystemConfig,
    WorkBoundError,
    analytic_curve,
    convolve,
    decode_frame,
    draw_frame,
    estimate_point,
    frame_rng,
    interference_budget,
    interference_distribution,
    per_copy_interference,
    per_copy_interference_brute,
    point_seed,
    snir_at,
    spectral_rate,
    sweep,
)
from divaloha import analytic, harness, simulator
from divaloha.analytic import MAX_FOLD_STEPS
from divaloha.harness import EXIT_OK, EXIT_USAGE, main
from divaloha.simulator import (
    BLOCK_COPIES,
    MAX_FRAME_COPIES,
    MAX_ROUNDS,
    RNG_STREAM_RULE,
    _frames_lost,
)

LINK_10DB = LinkModel.from_parameters(4, 0.5, 10.0, 100)


def frames(seed, frame_indices, n_tx, config):
    """Starts of each frame in turn, drawn through one reused stream."""
    out = []
    stream = None
    for f in frame_indices:
        stream = frame_rng(seed, f, stream)
        out.append(draw_frame(stream, n_tx, config).starts.copy())
    return out


def block_size(n_tx, copies):
    """K of the v3 stream rule, spelled out."""
    return max(1, BLOCK_COPIES // (n_tx * copies))


@pytest.fixture
def serial_pool(monkeypatch):
    """Stands in for estimate_point's process pool: records each pool's size
    and its chunks' frame bounds and maps serially, so no process is ever
    started."""
    import concurrent.futures

    record = types.SimpleNamespace(sizes=[], chunks=[])

    class SerialPool:
        def __init__(self, max_workers):
            record.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            lo, hi = map(list, iterables)
            record.chunks.extend(zip(lo, hi))
            return map(fn, lo, hi)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return record


def reference_block(seed, block, n_tx, config):
    """Block ``block`` of ``seed`` by the v3 rule, keyed independently of
    frame_rng: one placement of K * n_tx packets under Philox key
    ``(seed << 64) | block``. With one copy per packet the placement is the
    single uniform draw of the first copies."""
    k = block_size(n_tx, config.copies)
    gen = np.random.Generator(np.random.Philox(key=(seed << 64) | block))
    if config.copies == 1:
        return gen.integers(0, config.start_positions, size=k * n_tx)[:, None]
    return simulator._place(gen, k * n_tx, config)


def reference_frame(seed, f, n_tx, config):
    block, row = divmod(f, block_size(n_tx, config.copies))
    return reference_block(seed, block, n_tx, config)[row * n_tx : (row + 1) * n_tx]


def test_frame_rng_is_reproducible():
    config = SystemConfig(frame_len=3000, burst_len=100)
    a = draw_frame(frame_rng(123, 7), 8, config).starts
    b = draw_frame(frame_rng(123, 7), 8, config).starts
    c = draw_frame(frame_rng(123, 8), 8, config).starts
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


class TestFrameRngRekey:
    """RNG_STREAM_RULE v3: one Philox key per block of K frames, frame f is
    its rows of block f // K."""

    @pytest.mark.parametrize("copies", [1, 2, 3])
    def test_rekeyed_draws_match_fresh(self, copies):
        # one stream reused across blocks and seeds, back and forth
        config = SystemConfig(frame_len=3000, burst_len=100, copies=copies)
        k = block_size(20, copies)
        top = (1 << 64) - 1
        visits = [(7, 0), (7, k), (8, k), (7, k - 1), (7, 0), (7, 1), (top, top)]
        stream = None
        for seed, f in visits:
            stream = frame_rng(seed, f, stream)
            got = draw_frame(stream, 20, config).starts
            want = draw_frame(frame_rng(seed, f), 20, config).starts
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "seed, f",
        [(0, 0), (7, 1), (1 << 63, 12345), ((1 << 64) - 1, (1 << 64) - 1)],
    )
    def test_key_matches_reference_philox(self, seed, f):
        for copies in (1, 2):
            config = SystemConfig(frame_len=3000, burst_len=100, copies=copies)
            want = reference_frame(seed, f, 20, config)
            got = draw_frame(frame_rng(seed, f), 20, config).starts
            assert np.array_equal(got, want)

    def test_each_placed_block_gets_a_fresh_key(self, monkeypatch):
        # blocks 0, 1, 0, 2 of one seed: one _block_rng call per block
        # placed, with that block's key, and none for a frame of the held one
        config = SystemConfig(frame_len=3000, burst_len=100)
        k = block_size(20, 2)
        keys = []

        def block_rng_spy(seed, block, _real=simulator._block_rng):
            keys.append((seed, block))
            return _real(seed, block)

        monkeypatch.setattr(simulator, "_block_rng", block_rng_spy)
        stream = None
        for f in [0, k, 1, 2 * k, 2 * k + 1]:
            stream = frame_rng(7, f, stream)
            got = draw_frame(stream, 20, config).starts
            assert np.array_equal(got, reference_frame(7, f, 20, config))
        assert keys == [(7, 0), (7, 1), (7, 0), (7, 2)]

    @pytest.mark.parametrize("copies", [1, 2])
    def test_keys_outside_64_bits_are_refused(self, copies):
        # a seed or block index past one key word would alias another frame:
        # frame -1 to frame 2**64 * K - 1, frame 2**64 * K to frame 0
        config = SystemConfig(frame_len=3000, burst_len=100, copies=copies)
        k = block_size(20, copies)
        top = (1 << 64) - 1
        last = (1 << 64) * k - 1
        stream = frame_rng(top, last)
        got = draw_frame(stream, 20, config).starts
        assert np.array_equal(got, reference_frame(top, last, 20, config))
        for seed, f in [(9, -1), (9, -k), (top, last + 1), (-1, last), (1 << 64, 0)]:
            with pytest.raises(InvalidParameterError, match="2\\*\\*64-1"):
                draw_frame(frame_rng(seed, f, stream), 20, config)
            with pytest.raises(InvalidParameterError, match="2\\*\\*64-1"):
                draw_frame(frame_rng(seed, f), 20, config)

    def test_numpy_frame_indices_place_like_python_ints(self, monkeypatch):
        # frames 2**64 - 1, - 2 and - 3 share a block of K = 204; given as
        # numpy uint64, the held block's range must not wrap at 2**64, or
        # each frame would place the block again
        config = SystemConfig(frame_len=3000, burst_len=100)
        top = (1 << 64) - 1
        indices = [top, top - 1, top - 2]
        placed = []

        def place_spy(rng, n, config, _real=simulator._place):
            placed.append(n)
            return _real(rng, n, config)

        monkeypatch.setattr(simulator, "_place", place_spy)
        want = frames(7, indices, 20, config)
        assert len(placed) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = frames(np.uint64(7), [np.uint64(f) for f in indices], 20, config)
        assert len(placed) == 2
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_seed_outside_64_bits_is_refused_by_estimate_and_sweep(self):
        config = SystemConfig(frame_len=3000, burst_len=100)
        for seed in (-1, 1 << 64):
            with pytest.raises(InvalidParameterError):
                estimate_point(config, LINK_10DB, 0.5, 3, seed)
        # the master seed of a sweep may be any size, but not negative
        with pytest.raises(InvalidParameterError, match="master seed"):
            sweep(config, LINK_10DB, [0.5], 3, -1)
        assert len(sweep(config, LINK_10DB, [0.5], 3, 1 << 64)) == 1

    @pytest.mark.parametrize("n_tx, copies", [(1, 1), (30, 2), (7, 3)])
    def test_block_edge(self, n_tx, copies):
        # frame K - 1 is the last rows of block 0, frame K the first of block 1
        config = SystemConfig(frame_len=3000, burst_len=100, copies=copies)
        k = block_size(n_tx, copies)
        last, first = frames(9, [k - 1, k], n_tx, config)
        assert np.array_equal(last, reference_block(9, 0, n_tx, config)[-n_tx:])
        assert np.array_equal(first, reference_block(9, 1, n_tx, config)[:n_tx])

    @pytest.mark.parametrize("n_tx, copies", [(1, 1), (30, 2), (7, 3)])
    def test_block_rows_used_once(self, n_tx, copies):
        # the K frames of a block, in order, are exactly the block's rows
        config = SystemConfig(frame_len=3000, burst_len=100, copies=copies)
        k = block_size(n_tx, copies)
        block = np.concatenate(frames(4, range(k, 2 * k), n_tx, config))
        assert np.array_equal(block, reference_block(4, 1, n_tx, config))

    def test_chunk_matches_fresh_frames(self):
        # 30 packets of 2 copies: blocks of 136 frames, so the chunk crosses
        # two block edges
        config = SystemConfig(frame_len=20000, burst_len=1000)
        assert block_size(30, 2) == 136
        budget = LINK_10DB.budget
        want = [
            decode_frame(
                per_copy_interference(draw_frame(frame_rng(9, f), 30, config), config),
                budget,
                config.copies,
            )
            for f in range(120, 290)
        ]
        assert _frames_lost(config, budget, 30, 9, 120, 290).tolist() == want


class TestStreamHits:
    """A reused FrameStream serves a frame from the block it holds when the
    frame lies in that block's range and the seed, n_tx and config value
    are the ones it was placed for; anything else places and sweeps a new
    block, which replaces the held one only once both succeed."""

    def test_places_once_per_distinct_block(self, monkeypatch):
        config = SystemConfig(frame_len=20000, burst_len=1000)
        twin = SystemConfig(20000, 1000)
        other = SystemConfig(frame_len=20000, burst_len=500)
        assert twin == config and twin is not config
        k30, k16 = block_size(30, 2), block_size(16, 2)
        assert (k30, k16) == (136, 256)
        visits = [
            (9, k30 - 2, 30, config),  # places block 0
            (9, k30 - 1, 30, config),  # its last frame
            (9, k30, 30, config),  # across the edge: block 1
            (9, k30 + 1, 30, twin),  # a value-equal config: no new block
            (10, k30 + 1, 30, twin),  # a second seed
            (10, k30 + 2, 30, config),
            (10, k30 + 2, 16, config),  # a second n_tx: block 0 of K = 256
            (10, k30 + 2, 16, other),  # a different config
            (10, k30 + 3, 16, other),
        ]
        want = [reference_frame(*visit) for visit in visits]
        placed, swept = [], []

        def place_spy(rng, n, config, _real=simulator._place):
            key = rng.bit_generator.state["state"]["key"].tolist()
            placed.append((key[1], key[0], n, config))
            return _real(rng, n, config)

        def sweep_spy(starts, frames, config, _real=simulator._sweep):
            swept.append((starts.shape, frames, config))
            return _real(starts, frames, config)

        monkeypatch.setattr(simulator, "_place", place_spy)
        monkeypatch.setattr(simulator, "_sweep", sweep_spy)
        stream = None
        for (seed, f, n_tx, asked), starts in zip(visits, want):
            stream = frame_rng(seed, f, stream)
            frame = draw_frame(stream, n_tx, asked)
            assert np.array_equal(frame.starts, starts)
            got = per_copy_interference(frame, asked)
            assert got is frame.overlap
            assert np.array_equal(got, per_copy_interference_brute(frame, asked))
        # (seed, block, copies placed, config): one placement each
        assert placed == [
            (9, 0, k30 * 30, config),
            (9, 1, k30 * 30, config),
            (10, 1, k30 * 30, config),
            (10, 0, k16 * 16, config),
            (10, 0, k16 * 16, other),
        ]
        # every overlap is a view of its block's one sweep, never a frame
        # swept alone, the frames asked under the value-equal config included
        assert swept == [
            ((k30 * 30, 2), k30, config),
            ((k30 * 30, 2), k30, config),
            ((k30 * 30, 2), k30, config),
            ((k16 * 16, 2), k16, config),
            ((k16 * 16, 2), k16, other),
        ]

    @pytest.mark.parametrize("failure", [PlacementImpossibleError, ConfigError])
    def test_failed_block_leaves_the_held_block(self, failure, monkeypatch):
        # a block that cannot be placed (a first copy leaves its second no
        # room) or swept (too long for a sort key, refused before it is
        # keyed or placed) is not kept: a frame of the block held before it
        # is still a hit, with the same arrays
        config = SystemConfig(frame_len=25, burst_len=10)
        n = block_size(3, 2) * 3
        # first copies at 0 block starts 0..9 of 16, so the second has room
        rng = ScriptedRng(np.zeros(n), np.arange(n) % 6)
        keys = script_blocks(monkeypatch, rng)
        stream = simulator.FrameStream()
        held = draw_frame(frame_rng(5, 1, stream), 3, config)
        assert np.array_equal(held.overlap, per_copy_interference_brute(held, config))
        placed = []

        def place_spy(rng, n, config, _real=simulator._place):
            placed.append(n)
            return _real(rng, n, config)

        monkeypatch.setattr(simulator, "_place", place_spy)
        if failure is PlacementImpossibleError:
            rng.outputs.append(np.full(n, 7))  # blocks all 16 starts
            f, asked = block_size(3, 2), config  # the next block
            refused = [(5, 1)]  # keyed and placed, then refused
        else:
            tau = 10**15
            f, asked = 1, SystemConfig(frame_len=1000 * tau, burst_len=tau)
            refused = []
        with pytest.raises(failure):
            draw_frame(frame_rng(5, f, stream), 3, asked)
        assert len(placed) == len(refused)
        again = draw_frame(frame_rng(5, 1, stream), 3, config)
        assert len(placed) == len(refused)
        assert keys == [(5, 0), *refused]
        assert np.array_equal(again.starts, held.starts)
        assert np.array_equal(again.overlap, held.overlap)


class CountingProxy:
    """Forwards every attribute of a stream and counts the values returned
    by method calls, as a benchmark's counting wrapper does."""

    def __init__(self, inner):
        self._inner = inner
        self.values = 0

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            out = attr(*args, **kwargs)
            if isinstance(out, (int, float, np.generic, np.ndarray)):
                self.values += int(np.size(out))
            return out

        return counted


@pytest.mark.parametrize("n_tx, copies", [(6, 2), (30, 3), (600, 2)])
def test_draw_frame_through_counting_proxy(n_tx, copies):
    # draw_frame is duck-typed: a forwarding proxy gets the same frame and
    # sees n_tx * copies values, one per start
    config = SystemConfig(frame_len=20000, burst_len=10, copies=copies)
    for f in (0, 5, block_size(n_tx, copies)):
        proxy = CountingProxy(frame_rng(11, f))
        got = draw_frame(proxy, n_tx, config).starts
        assert np.array_equal(got, draw_frame(frame_rng(11, f), n_tx, config).starts)
        assert proxy.values == n_tx * copies


def test_frame_starts_are_read_only():
    config = SystemConfig(frame_len=3000, burst_len=100)
    stream = frame_rng(1, 0)
    frame = draw_frame(stream, 10, config)
    with pytest.raises(ValueError):
        frame.starts[0, 0] = 0
    # the next frame of the same block is unchanged by the attempt
    again = draw_frame(frame_rng(1, 0, stream), 10, config)
    assert np.array_equal(again.starts, reference_frame(1, 0, 10, config))


PER_FRAME = ("frame_rng", "draw_frame", "per_copy_interference", "decode_frame")


def test_frames_lost_calls_each_stage_once_per_frame_in_order(monkeypatch):
    # the traced benchmark times these four module globals inside this loop
    # and counts calls per frame: the rule is one call of each stage per
    # frame, in order. A call may amortize its work over a block (the draw
    # places a block of frames once, and the overlap sweeps a block of
    # frames once), but a stage that is inlined, batched into fewer calls
    # or skipped must fail here first. Frames 130-141 cross the edge of the
    # 136-frame blocks of 30 two-copy packets.
    calls = []
    for name in PER_FRAME:
        def counted(*args, _real=getattr(simulator, name), _name=name):
            calls.append((_name, args[1] if _name == "frame_rng" else None))
            return _real(*args)

        monkeypatch.setattr(simulator, name, counted)
    config = SystemConfig(frame_len=20000, burst_len=1000)
    _frames_lost(config, LINK_10DB.budget, 30, 9, 130, 141)
    assert calls == [
        (name, f if name == "frame_rng" else None)
        for f in range(130, 141)
        for name in PER_FRAME
    ]


# sha256 of the simulate CSV under RNG_STREAM_RULE v3. These pin the stream
# bytes: only a deliberate, CHANGES-logged bump of RNG_STREAM_RULE may
# update them, together with its version tag.
GOLDEN_V3 = [
    (
        ["--tf", "20000", "--tau", "1000"],
        "eacde3c43122b026ae1f00b517de40bee8e90f0ff54d586bee21f3efbeff3960",
    ),
    (
        ["--copies", "3", "--tf", "3000", "--tau", "100"],
        "fcd30b1f8cbcd41e5e2ca1fa26626ed2cd5b64531ec14779591223973cdaf3c0",
    ),
]


@pytest.mark.parametrize("geometry,digest", GOLDEN_V3, ids=["r20", "copies3"])
def test_stream_rule_v3_golden_bytes(geometry, digest, capsys):
    assert RNG_STREAM_RULE.startswith("v3:")
    argv = ["simulate", *geometry, "--loads", "0.3,1.5", "--rounds", "200", "--seed", "7"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# The same pin for the big frames (600 packets at 200000/500, load 1.5),
# where the per-copy sweep does its largest sorts and searches.
GOLDEN_V3_BIG_FRAMES = [
    (
        ["simulate", "--tf", "200000", "--tau", "500", "--copies", "2"],
        "e6bfbb8118e1ac2bb06a2311afd2ae487cd4f238226a27521a0db7e30c9ebd7f",
    ),
    (
        ["compare", "--tf", "100000", "--tau", "1000"],
        "5ccc0a8558b2a31239ea8d5c533706e900c47c7719172065d864a92b57c18e34",
    ),
]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize(
    "command,digest", GOLDEN_V3_BIG_FRAMES, ids=["simulate-r400", "compare-r100"]
)
def test_stream_rule_v3_golden_bytes_big_frames(command, digest, workers, capsys):
    assert RNG_STREAM_RULE.startswith("v3:")
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


def script_blocks(monkeypatch, rng):
    """Makes every block a stream places draw from ``rng``; returns the list
    that records the ``(seed, block)`` of each _block_rng call."""
    keys = []

    def block_rng(seed, block):
        keys.append((seed, block))
        return rng

    monkeypatch.setattr(simulator, "_block_rng", block_rng)
    return keys


def admissible(config, earlier):
    return [
        x
        for x in range(config.start_positions)
        if all(abs(x - s) >= config.burst_len for s in earlier)
    ]


class TestRankPlacement:
    """Every rank 0..free-1 maps to exactly the admissible starts, in order.
    The placement takes one ``integers`` call per copy, whatever the block."""

    CONFIG = dict(frame_len=40, burst_len=5)

    def test_two_copies(self):
        config = SystemConfig(copies=2, **self.CONFIG)
        for s0 in range(config.start_positions):
            want = admissible(config, [s0])
            n = len(want)
            rng = ScriptedRng(np.full(n, s0), np.arange(n))
            starts = simulator._place(rng, n, config)
            assert np.array_equal(rng.highs[0], np.full(n, config.start_positions))
            assert np.array_equal(rng.highs[1], np.full(n, n))
            assert starts[:, 1].tolist() == want

    def test_three_copies(self):
        config = SystemConfig(copies=3, **self.CONFIG)
        for s0 in range(config.start_positions):
            second = admissible(config, [s0])
            for rank1, s1 in enumerate(second):
                want = admissible(config, [s0, s1])
                n = len(want)
                rng = ScriptedRng(np.full(n, s0), np.full(n, rank1), np.arange(n))
                starts = simulator._place(rng, n, config)
                assert np.array_equal(rng.highs[2], np.full(n, n))
                assert np.all(starts[:, 1] == s1)
                assert starts[:, 2].tolist() == want

    def test_no_room_raises_before_drawing(self):
        config = SystemConfig(frame_len=100, burst_len=50)
        rng = ScriptedRng([25])
        with pytest.raises(PlacementImpossibleError):
            simulator._place(rng, 1, config)
        assert len(rng.highs) == 1

    @pytest.mark.parametrize(
        "copies, frame_len, tau",
        # positions == (copies - 1)*(2*tau - 1) + 1: the smallest frames in
        # which the placement skips the room check for the last copy
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
            placed = simulator._place(rng, n, config)
            assert np.array_equal(rng.highs[-1], np.full(n, n))
            assert np.array_equal(placed[:, :-1], np.tile(starts, (n, 1)))
            assert placed[:, -1].tolist() == want

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
            simulator._place(rng, 1, config)
        assert len(rng.highs) == copies - 1

    @pytest.mark.parametrize("copies", [1, 2, 3])
    def test_block_of_frames_makes_one_call_per_copy(self, copies, monkeypatch):
        # the K frames of a block share one placement: `copies` integers
        # calls for the block, and `copies` more at frame K, under key 1
        config = SystemConfig(copies=copies, **self.CONFIG)
        n_tx = 3
        k = BLOCK_COPIES // (n_tx * copies)
        first = np.arange(k * n_tx) % config.start_positions
        script = [first, *[np.zeros(k * n_tx)] * (copies - 1)]
        rng = ScriptedRng(*script, *script)
        keys = script_blocks(monkeypatch, rng)
        stream = simulator.FrameStream()
        for f in range(k):
            frame = draw_frame(frame_rng(5, f, stream), n_tx, config)
            want = first[f * n_tx : (f + 1) * n_tx]
            assert np.array_equal(frame.starts[:, 0], want)
        assert [h.shape for h in rng.highs] == [(k * n_tx,)] * copies
        assert keys == [(5, 0)]
        draw_frame(frame_rng(5, k, stream), n_tx, config)
        assert len(rng.highs) == 2 * copies
        assert keys == [(5, 0), (5, 1)]
        assert rng.outputs == []


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


# packets per frame of 76 and 77 copies and thereabouts at 1, 2 and 3
# copies per packet: the frame sizes where the overlap once changed method
CUTOFF_N_TX = [25, 26, 38, 39, 76, 77]


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


def brute_in_chunks(frame, config, rows=64):
    """per_copy_interference_brute a few packets at a time, so a frame of
    thousands of copies needs no B x B matrix."""
    tau = config.burst_len
    flat = frame.starts.reshape(-1)
    pkt = np.repeat(np.arange(frame.n_packets), frame.copies)
    out = []
    for lo in range(0, frame.n_packets, rows):
        part = frame.starts[lo : lo + rows]
        ov = np.maximum(tau - np.abs(part[:, :, None] - flat), 0)
        own = pkt == np.arange(lo, lo + part.shape[0])[:, None]
        ov[np.broadcast_to(own[:, None, :], ov.shape)] = 0
        out.append(ov.sum(axis=2))
    return np.concatenate(out).reshape(frame.starts.shape)


# half a block of copies: at or below it a block holds K >= 2 frames, above
# it a frame is its own block
HALF_BLOCK = BLOCK_COPIES // 2


class TestBlockOverlap:
    """Drawing the first frame of a block sweeps the whole block, offset
    frame by frame; every frame carries a read-only view of its rows."""

    @pytest.mark.parametrize("copies", [1, 2, 3])
    @pytest.mark.parametrize("side", ["small", "half_block", "over_half_block"])
    def test_every_frame_of_several_blocks_matches_brute(self, copies, side, monkeypatch):
        n_tx = {"small": 7, "half_block": HALF_BLOCK // copies,
                "over_half_block": HALF_BLOCK // copies + 1}[side]
        k = block_size(n_tx, copies)
        assert (k >= 2) == (side != "over_half_block")
        config = SystemConfig(frame_len=200000, burst_len=50, copies=copies)
        brute = per_copy_interference_brute if side == "small" else brute_in_chunks
        swept = []

        def spy(starts, frames, config, _real=simulator._sweep):
            swept.append((starts.shape, frames))
            return _real(starts, frames, config)

        monkeypatch.setattr(simulator, "_sweep", spy)
        stream = None
        # two whole blocks and the first frame of a third
        for f in range(2 * k + 1):
            stream = frame_rng(30 + copies, f, stream)
            frame = draw_frame(stream, n_tx, config)
            got = per_copy_interference(frame, config)
            assert got is frame.overlap
            assert np.array_equal(got, brute(frame, config))
        # each frame was its row of a block of K frames, swept once
        assert swept == [((k * n_tx, copies), k)] * 3

    def test_hand_placed_neighbour_frames_do_not_overlap(self):
        # frame r ends a copy at the last start, frame r + 1 begins one at 0,
        # and a copy sits at the same start in consecutive frames: each
        # frame must see only its own copies
        config = SystemConfig(frame_len=30, burst_len=4, copies=1)
        last = config.start_positions - 1
        rows = [[last], [0], [0], [last], [last], [last - 2], [0], [last]]
        starts = np.array(rows, dtype=np.int64)
        overlap = simulator._sweep(starts, 4, config)
        for r in range(4):
            want = per_copy_interference_brute(Frame(starts[2 * r : 2 * r + 2]), config)
            assert np.array_equal(overlap[2 * r : 2 * r + 2], want)
        assert overlap.ravel().tolist() == [0, 0, 0, 0, 2, 2, 0, 0]

    def test_rows_are_read_only(self):
        config = SystemConfig(frame_len=3000, burst_len=100)
        drawn = draw_frame(frame_rng(2, 3), 10, config)
        for frame in (drawn, Frame(drawn.starts.copy())):
            inter = per_copy_interference(frame, config)
            with pytest.raises(ValueError):
                inter[0, 0] = 0
        # the attempt left the block's overlap as it was
        assert np.array_equal(
            per_copy_interference(drawn, config),
            per_copy_interference_brute(drawn, config),
        )

    def test_other_config_sweeps_the_frame_alone(self, monkeypatch):
        swept = []

        def spy(starts, frames, config, _real=simulator._sweep):
            swept.append((starts.shape, frames, config))
            return _real(starts, frames, config)

        monkeypatch.setattr(simulator, "_sweep", spy)
        placed = SystemConfig(frame_len=3000, burst_len=100)
        asked = SystemConfig(frame_len=3000, burst_len=60)
        frame = draw_frame(frame_rng(4, 5), 10, placed)
        got = per_copy_interference(frame, asked)
        # the draw swept its block under the config it was placed for; the
        # frame asked under another is swept alone
        k = block_size(10, 2)
        assert swept == [((k * 10, 2), k, placed), ((10, 2), 1, asked)]
        assert np.array_equal(got, per_copy_interference_brute(frame, asked))
        assert np.array_equal(got, per_copy_interference(Frame(frame.starts), asked))

    def test_frame_built_with_a_config_but_no_overlap_is_swept_alone(self):
        config = SystemConfig(frame_len=3000, burst_len=100)
        drawn = draw_frame(frame_rng(4, 5), 10, config)
        frame = Frame(drawn.starts, config=config)
        got = per_copy_interference(frame, config)
        assert np.array_equal(got, per_copy_interference_brute(frame, config))

    def test_frames_lost_sweeps_each_block_once(self, monkeypatch):
        # 30 two-copy packets: blocks of 136 frames, and the chunk starts
        # in block 0, six frames before its end, and ends inside block 2
        swept = []

        def spy(starts, frames, config, _real=simulator._sweep):
            swept.append((starts.shape, frames))
            return _real(starts, frames, config)

        monkeypatch.setattr(simulator, "_sweep", spy)
        config = SystemConfig(frame_len=20000, burst_len=1000)
        assert block_size(30, 2) == 136
        lost = _frames_lost(config, LINK_10DB.budget, 30, 9, 130, 290)
        assert swept == [((136 * 30, 2), 136)] * 3
        want = [
            decode_frame(
                per_copy_interference_brute(
                    Frame(reference_frame(9, f, 30, config)), config
                ),
                LINK_10DB.budget,
                config.copies,
            )
            for f in range(130, 290)
        ]
        assert lost.tolist() == want

    def test_frames_too_long_to_offset_are_refused(self):
        # K frames offset by frame_len + tau would pass int64, let alone a
        # packed key: the draw's block sweep is refused, while one such
        # frame, hand-built, is swept alone and gets its exact overlap
        tau = 10**15
        config = SystemConfig(frame_len=1000 * tau, burst_len=tau, copies=2)
        k = block_size(3, 2)
        assert k * (config.frame_len + tau) > np.iinfo(np.int64).max
        with pytest.raises(ConfigError, match=f"cannot sweep {k} frames"):
            draw_frame(frame_rng(6, 0), 3, config)
        last = config.start_positions - 1
        alone = Frame(
            np.array(
                [[0, 2 * tau], [tau // 2, last], [last - tau + 1, 5 * tau]],
                dtype=np.int64,
            )
        )
        got = per_copy_interference(alone, config)
        assert np.array_equal(got, per_copy_interference_brute(alone, config))
        assert got.tolist() == [[tau // 2, 0], [tau // 2, 1], [1, 0]]

    def test_block_past_int64_is_refused_before_it_is_drawn(self, monkeypatch, capsys):
        # 40 frames of 10**19 symbols: the first starts would pass int64
        # (numpy refuses the draw's bound), so the key-width check comes
        # first; a call of either spy would exit 3
        def drawn(*args):
            raise AssertionError("refused block drawn")

        monkeypatch.setattr(simulator, "_block_rng", drawn)
        monkeypatch.setattr(simulator, "_place", drawn)
        argv = ["simulate", "--tf", "1e19", "--tau", "100", "--loads", "1e-15",
                "--rounds", "1"]
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("divaloha: cannot sweep 40 frames of 10000000000000000000 ")
        assert err.count("\n") == 1


@st.composite
def edge_frames(draw):
    """Valid frames at the sweep's edge geometries: unit bursts, copies
    packed end to end in the frame, and a lone packet. Unit-burst and packed
    frames reach 152 copies, so ties and frame edges meet small and large
    frames alike."""
    kind = draw(st.sampled_from(["unit_burst", "packed", "lone_packet"]))
    copies = draw(st.integers(1, 3))
    tau = 1 if kind == "unit_burst" else draw(st.integers(1, 12))
    frame_len = copies * tau
    if kind != "packed":
        frame_len += draw(st.integers(0, 40))
    if kind == "lone_packet":
        n_tx = 1
    else:
        n_tx = draw(st.integers(1, 152 // copies))
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
    # reordering the rows reorders the copy indices that break ties among
    # equal starts: that order must not reach the result
    config, frame, perm = case
    got = per_copy_interference(frame, config)
    assert np.array_equal(got, per_copy_interference_brute(frame, config))
    permuted = per_copy_interference(Frame(frame.starts[perm]), config)
    assert np.array_equal(permuted, got[perm])


def sweep_block_by_frame(starts, frames, config):
    """Each frame of a hand-built block of ``frames`` frames: its rows of
    the block sweep and the brute-force reference, frame by frame."""
    overlap = simulator._sweep(starts, frames, config)
    n_tx = starts.shape[0] // frames
    for r in range(frames):
        rows = slice(r * n_tx, (r + 1) * n_tx)
        yield overlap[rows], per_copy_interference_brute(Frame(starts[rows]), config)


class TestSweepKernel:
    """The sweep orders a block by one sort of packed int64 keys
    ``(shifted start << bits) | copy index`` and ranks it by a merge; a
    block whose largest shifted start a key cannot hold is refused."""

    @pytest.mark.parametrize("frames", [1, 3])
    @pytest.mark.parametrize("past", [0, 1], ids=["at_limit", "one_past"])
    def test_largest_shifted_start_at_the_key_limit(self, frames, past):
        # two packets of two copies per frame, so bits = 2 (one frame) or 4
        # (three); the last start of the last frame, shifted, is the last
        # value a packed key holds, or one more
        n_tx, copies = 2, 2
        n = frames * n_tx * copies
        bits = max(1, (n - 1).bit_length())
        top = (1 << (63 - bits)) - 1 + past
        # top = frames * frame_len + (frames - 2) * tau, solved for frame_len
        tau = 3 + top % 3
        frame_len, rem = divmod(top - (frames - 2) * tau, frames)
        assert rem == 0
        config = SystemConfig(frame_len=frame_len, burst_len=tau, copies=copies)
        last = config.start_positions - 1
        # the same rows in every frame, so starts tie across frames; the two
        # copies at the frame's end overlap by tau - 1
        rows = [[last, last - 2 * tau], [last - 1, 0]] * frames
        starts = np.array(rows, dtype=np.int64)
        assert (frames - 1) * (frame_len + tau) + last == top
        if past:
            with pytest.raises(ConfigError, match=f"below 2\\*\\*{63 - bits},"):
                simulator._sweep(starts, frames, config)
            return
        for got, want in sweep_block_by_frame(starts, frames, config):
            assert np.array_equal(got, want)
            assert got.tolist() == [[tau - 1, 0], [tau - 1, 0]]

    def test_ties_within_and_across_frames(self):
        # six packets of two copies in a 40-symbol frame at burst 5: starts
        # 0, 3, 10 and 35 are each shared by two or three copies, every frame
        # repeats them, and one frame lists its packets in another order
        config = SystemConfig(frame_len=40, burst_len=5, copies=2)
        base = [[0, 10], [0, 20], [3, 10], [35, 0], [35, 17], [3, 30]]
        frames = [base, base[::-1], base, base[2:] + base[:2]]
        starts = np.array([row for f in frames for row in f], dtype=np.int64)
        for got, want in sweep_block_by_frame(starts, len(frames), config):
            assert np.array_equal(got, want)

    @settings(deadline=None, max_examples=25)
    @given(case=shared_start_frames())
    def test_block_of_shared_start_frames_matches_brute(self, case):
        config, frame, perm = case
        starts = np.concatenate([frame.starts, frame.starts[perm], frame.starts])
        for got, want in sweep_block_by_frame(starts, 3, config):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("past", [0, 1], ids=["at_bound", "one_past"])
    def test_most_frames_a_stream_block_holds_at_the_guaranteed_bound(self, past):
        # BLOCK_COPIES single-copy frames: the most frames, and with them the
        # most index bits, of any block of the stream rule. With a burst of
        # at most BLOCK_COPIES / 2 symbols, frame_len + tau = 2**37 sweeps
        # and one symbol more is refused before the sweep allocates anything
        # (tracemalloc sees numpy's array buffers)
        tau = 1000
        config = SystemConfig(frame_len=(1 << 37) - tau + past, burst_len=tau, copies=1)
        k = block_size(1, 1)
        assert k == BLOCK_COPIES
        last = config.start_positions - 1
        starts = np.tile(np.array([[0], [last]], dtype=np.int64), (k // 2, 1))
        if past:
            tracemalloc.start()
            try:
                with pytest.raises(ConfigError, match="2\\*\\*37 always fits"):
                    simulator._sweep(starts, k, config)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * k
            return
        assert not simulator._sweep(starts, k, config).any()

    def test_peak_temporary_memory(self):
        # numpy reports its array buffers to tracemalloc. The sweep holds
        # eight arrays of B integers at its peak, the returned one included;
        # a ninth (one more temporary) breaks the bound of 8.5
        config = SystemConfig(frame_len=20000, burst_len=1000)
        k = block_size(16, 2)
        starts = reference_block(3, 0, 16, config)
        size = starts.size
        assert size == BLOCK_COPIES
        simulator._sweep(starts, k, config)
        tracemalloc.start()
        try:
            simulator._sweep(starts, k, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8.5 * 8 * size


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

    @pytest.mark.parametrize(
        "interference, copies",
        [(np.full((4, 2), 99), 4), (np.arange(6), 2), (np.zeros((3, 2, 2)), 2)],
        ids=["wrong_copies", "one_d", "three_d"],
    )
    @pytest.mark.parametrize(
        "budget", [DecodeBudget(50), DecodeBudget(None)], ids=["decodable", "undecodable"]
    )
    def test_refuses_other_shapes(self, interference, copies, budget):
        # rows are never regrouped into another copy count
        with pytest.raises(InvalidParameterError, match=f"\\(n_packets, {copies}\\)"):
            decode_frame(interference, budget, copies)


def decode_reference(interference, budget, copies):
    """Packets whose every copy exceeds the budget, by row reduction."""
    arr = np.asarray(interference).reshape(-1, copies)
    if not budget.decodable:
        return arr.shape[0]
    return int(np.count_nonzero((arr > budget.max_interference).all(axis=1)))


# (n_tx, interference dtype) cases; int64, the dtype the sweep returns,
# keeps the bare n_tx id
_DECODE_CASES = [
    pytest.param(
        n_tx, dtype, id=str(n_tx) if dtype is np.int64 else f"{n_tx}-{dtype.__name__}"
    )
    for n_tx in (1, 2, 37, 600)
    for dtype in (np.int64, np.int32, np.uint64, np.float64)
]


class TestDecodeFrameReference:
    BUDGET = DecodeBudget(50)
    NEXT_BUDGET = DecodeBudget(51)

    @pytest.mark.parametrize("copies", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_tx, dtype", _DECODE_CASES)
    def test_matches_row_reduction(self, copies, n_tx, dtype):
        # values straddle the budget, so many copies sit exactly on it
        rng = np.random.default_rng(100 * copies + n_tx)
        for _ in range(20):
            interference = rng.integers(48, 53, size=(n_tx, copies)).astype(dtype)
            assert decode_frame(interference, self.BUDGET, copies) == (
                decode_reference(interference, self.BUDGET, copies)
            )
            # budgets alternate call by call, so a bound cached under the
            # wrong limit counts the copies at 51 wrongly
            assert decode_frame(interference, self.NEXT_BUDGET, copies) == (
                decode_reference(interference, self.NEXT_BUDGET, copies)
            )

    # the largest int64, the first int past it, past uint64, and past the
    # budget of about 1e32 that --snir-dec-db -300 gives at tau 100
    @pytest.mark.parametrize(
        "limit", [2**63 - 1, 2**63, 2**64, 10**30, 10**33],
        ids=["int64_max", "past_int64", "past_uint64", "1e30", "1e33"],
    )
    @pytest.mark.parametrize(
        "values",
        [[0, 2**62, 2**63 - 2, 2**63 - 1], [0.0, 2.0**63, 1e33, 2e33]],
        ids=["int64", "float64"],
    )
    def test_budgets_at_and_past_int64(self, limit, values):
        # every pair of values as one packet's two copies
        interference = np.array([[a, b] for a in values for b in values])
        budget = DecodeBudget(limit)
        assert decode_frame(interference, budget, 2) == (
            decode_reference(interference, budget, 2)
        )

    def test_bound_is_built_once_per_limit(self):
        bound = simulator._bound(50)
        assert simulator._bound(50) is bound
        assert bound.shape == () and bound.dtype == np.int64 and bound == 50
        assert not bound.flags.writeable
        # int64 cannot hold it, so it stays the exact Python int
        assert simulator._bound(2**63) == 2**63 and type(simulator._bound(2**63)) is int

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
        # 1 and 7 frames over 2 workers: one 34-frame block, so one chunk
        config = SystemConfig(frame_len=10000, burst_len=100)
        serial = estimate_point(config, LINK_10DB, 1.2, rounds, seed=13, workers=1)
        forked = estimate_point(config, LINK_10DB, 1.2, rounds, seed=13, workers=2)
        assert serial == forked

    @pytest.mark.parametrize(
        "workers,rounds,cpus,size",
        [(500, 10, 64, 1), (500, 1000, 2, 2), (3, 1000, 64, 3), (4, 50, None, 1)],
    )
    def test_pool_never_exceeds_chunks_or_cpus(
        self, workers, rounds, cpus, size, serial_pool, monkeypatch
    ):
        # 50 packets of 2 copies: K = 81, so 10 and 50 frames are one block
        # and one chunk, 1000 frames are 13 blocks
        monkeypatch.setattr(simulator.os, "cpu_count", lambda: cpus)
        config = SystemConfig(frame_len=2000, burst_len=20)
        pooled = estimate_point(config, LINK_10DB, 0.5, rounds, seed=19, workers=workers)
        assert serial_pool.sizes == [size]
        assert pooled == estimate_point(config, LINK_10DB, 0.5, rounds, seed=19)

    @pytest.mark.parametrize(
        "load,rounds,blocks", [(0.1, 150, 2), (1.5, 150, 25), (0.1, 10000, 99)]
    )
    def test_pooled_chunks_place_each_block_once(
        self, load, rounds, blocks, serial_pool, monkeypatch
    ):
        # chunks cut by frame count alone would place 9, 31 and 106 blocks
        config = SystemConfig(frame_len=200000, burst_len=500)
        link = LinkModel.from_parameters(4, 0.5, 10.0, 500)
        n_tx = round(load * 400)
        k = block_size(n_tx, config.copies)
        placed = []
        place = simulator._place

        def spy(rng, n, cfg):
            placed.append(n)
            return place(rng, n, cfg)

        monkeypatch.setattr(simulator, "_place", spy)
        estimate_point(config, link, load, rounds, seed=23, workers=2)
        assert len(placed) == blocks == -(-rounds // k)
        assert placed == [k * n_tx] * blocks
        lo, hi = zip(*serial_pool.chunks)
        assert lo[0] == 0 and hi[-1] == rounds and lo[1:] == hi[:-1]
        assert all(a % k == 0 and a < b for a, b in zip(lo, hi))

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

    def test_one_shot_iterable_of_loads(self):
        # the load pre-flight reads the grid before the points do, so a
        # generator must be read once, not emptied by the pre-flight
        config = SystemConfig(frame_len=10000, burst_len=100)
        loads = [0.2, 0.5]
        want_curve = analytic_curve(config, LINK_10DB, loads)
        want_sweep = sweep(config, LINK_10DB, loads, 5, 1)
        assert len(want_curve) == len(want_sweep) == 2
        assert analytic_curve(config, LINK_10DB, (g for g in loads)) == want_curve
        assert sweep(config, LINK_10DB, (g for g in loads), 5, 1) == want_sweep


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

    def test_block_never_exceeds_the_larger_of_block_and_frame(self, monkeypatch):
        # a spy stands in for the placement and records the block it is
        # asked for, so nothing is allocated at the bound
        class Placed(Exception):
            pass

        asked = []

        def spy(rng, n_tx, config):
            asked.append(n_tx)
            raise Placed

        monkeypatch.setattr(simulator, "_place", spy)
        config = SystemConfig(frame_len=MAX_FRAME_COPIES, burst_len=1)
        at_bound = MAX_FRAME_COPIES // config.copies
        for n_tx in (1, 7, BLOCK_COPIES // 4, BLOCK_COPIES // 4 + 1, at_bound):
            with pytest.raises(Placed):
                draw_frame(frame_rng(1, 3), n_tx, config)
            assert asked[-1] * config.copies <= max(BLOCK_COPIES, n_tx * config.copies)
        # from half a block of copies up, a frame is its own block
        assert asked[-2:] == [BLOCK_COPIES // 4 + 1, at_bound]
        with pytest.raises(Placed):
            estimate_point(config, LINK_10DB, 0.5, 10, seed=1)
        assert asked[-1] == at_bound

    @pytest.mark.parametrize("tf", ["1000000000", "1000000000000000000"])
    def test_cli_refuses_huge_frame(self, tf, no_placement, capsys):
        argv = ["simulate", "--tf", tf, "--tau", "1", "--loads", "1", "--rounds", "1"]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("divaloha: ") and err.count("\n") == 1
        assert str(MAX_FRAME_COPIES) in err


class TestRoundsBound:
    """More than MAX_ROUNDS frames per load are refused before the loss
    array or any frame exists; at the bound the run reaches the loop. The
    loop is a stand-in that raises, so nothing is allocated at the bound."""

    class Looped(Exception):
        pass

    @pytest.fixture
    def no_loop(self, monkeypatch):
        reached = []

        def loop(config, budget, n_tx, seed, frame_lo, frame_hi):
            reached.append(frame_hi - frame_lo)
            raise self.Looped

        def no_fold(*args, **kwargs):
            raise AssertionError("analytic work started before the rounds bound")

        monkeypatch.setattr(simulator, "_frames_lost", loop)
        monkeypatch.setattr(harness, "analytic_curve", no_fold)
        return reached

    def test_estimate_point(self, no_loop):
        config = SystemConfig(frame_len=20000, burst_len=1000)
        with pytest.raises(WorkBoundError, match=str(MAX_ROUNDS)):
            estimate_point(config, LINK_10DB, 0.5, MAX_ROUNDS + 1, seed=1)
        assert no_loop == []
        with pytest.raises(self.Looped):
            estimate_point(config, LINK_10DB, 0.5, MAX_ROUNDS, seed=1)
        assert no_loop == [MAX_ROUNDS]

    @pytest.mark.parametrize("mode", ["simulate", "compare"])
    def test_cli(self, mode, no_loop, capsys):
        argv = [mode, "--tf", "20000", "--tau", "1000", "--loads", "0.5"]
        assert main([*argv, "--rounds", str(MAX_ROUNDS + 1)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("divaloha: ") and err.count("\n") == 1
        assert str(MAX_ROUNDS) in err
        assert no_loop == []
        if mode == "simulate":
            spec = harness.parse_spec([*argv, "--rounds", str(MAX_ROUNDS)])
            with pytest.raises(self.Looped):
                harness.build_rows(spec)
            assert no_loop == [MAX_ROUNDS]

    def test_analytic_ignores_rounds(self, capsys):
        argv = ["analytic", "--tf", "20000", "--tau", "1000", "--loads", "0.5",
                "--rounds", str(MAX_ROUNDS + 1)]
        assert main(argv) == EXIT_OK


class TestBoundBeforeAnyWork:
    """An over-bound load anywhere in the grid is refused before the
    analytic fold and before the first simulated frame."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def work(*args, **kwargs):
            raise AssertionError("work started before the bound was checked")

        monkeypatch.setattr(analytic, "_fold", work)
        monkeypatch.setattr(simulator, "draw_frame", work)
        return work

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
    def test_cli_refuses_up_front(self, argv, no_work, monkeypatch, capsys):
        # analytic does not simulate, so its own fold bound refuses the load
        if argv[0] == "analytic":
            bound = MAX_FOLD_STEPS
        else:
            bound = MAX_FRAME_COPIES
            monkeypatch.setattr(harness, "analytic_curve", no_work)
        code = main([*argv, "--tf", "10000000", "--tau", "10", "--rounds", "1"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("divaloha: ") and err.count("\n") == 1
        assert str(bound) in err

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
        assert code == EXIT_USAGE
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


class TestOnePreFlight:
    """sweep, estimate_point and build_rows (simulate and compare) refuse an
    over-bound run through the one pre-flight, require_work_bounds, before
    any placement or fold step."""

    # 10**6 two-copy packets at load 1: 2 * 10**6 copies, past the bound
    HUGE = SystemConfig(frame_len=10_000_000, burst_len=10)
    PLAIN = SystemConfig(frame_len=20000, burst_len=1000)
    CASES = {
        "load": (HUGE, [0.1, 1.0], 1),
        "rounds": (PLAIN, [0.5], MAX_ROUNDS + 1),
    }

    @pytest.fixture
    def preflights(self, monkeypatch):
        calls = []

        def work(*args, **kwargs):
            raise AssertionError("work started before the pre-flight")

        def spy(config, loads, rounds, _real=simulator.require_work_bounds):
            calls.append((list(loads), rounds))
            try:
                return _real(config, loads, rounds)
            except WorkBoundError as exc:
                calls.append(exc)
                raise

        monkeypatch.setattr(simulator, "require_work_bounds", spy)
        monkeypatch.setattr(harness, "require_work_bounds", spy)
        monkeypatch.setattr(simulator, "_place", work)
        monkeypatch.setattr(analytic, "_fold", work)
        return calls

    @pytest.mark.parametrize("bound", sorted(CASES))
    @pytest.mark.parametrize(
        "caller", ["sweep", "estimate_point", "simulate", "compare"]
    )
    def test_every_caller_refuses_through_it(self, caller, bound, preflights):
        config, grid, rounds = self.CASES[bound]
        if caller == "estimate_point":
            grid = grid[-1:]
        with pytest.raises(WorkBoundError) as refused:
            if caller == "sweep":
                sweep(config, LINK_10DB, grid, rounds, seed=1)
            elif caller == "estimate_point":
                estimate_point(config, LINK_10DB, grid[0], rounds, seed=1)
            else:
                spec = harness.parse_spec(
                    [caller, "--tf", str(config.frame_len),
                     "--tau", str(config.burst_len),
                     "--loads", ",".join(map(str, grid)), "--rounds", str(rounds)]
                )
                harness.build_rows(spec)
        # one call, over the whole grid, and it raised what the caller did
        assert preflights == [(grid, rounds), refused.value]

    def test_harness_imports_no_private_simulator_name(self):
        tree = ast.parse(inspect.getsource(harness))
        names = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "simulator"
            for alias in node.names
        ]
        assert "require_work_bounds" in names
        assert [name for name in names if name.startswith("_")] == []


_INT_CONFIG = SystemConfig(1000, 10)
_INT_PMF = interference_distribution(_INT_CONFIG, 1)
# per-copy interference of three packets, two of them lost at budget 5
_INT_INTERFERENCE = np.array([[0, 9], [9, 9], [6, 7]])


def _warm_stream():
    # a stream that holds the block of frames 0..1364 of seed 7 at n_tx 3
    stream = frame_rng(7, 0)
    draw_frame(stream, 3, _INT_CONFIG)
    return stream


# each call with one integer argument in turn, by name: the call, as
# comparable values, the int that argument takes, and its least value
# (None where any int is taken, or where a low one is refused in words of
# its own); a "-warm" call asks a frame of the block its stream holds
_INT_ARGUMENTS = {
    "draw_frame-n_tx": (
        lambda v: draw_frame(frame_rng(7, 5), v, _INT_CONFIG).starts.tobytes(), 3, 0
    ),
    "draw_frame-n_tx-warm": (
        lambda v: draw_frame(
            frame_rng(7, 5, _warm_stream()), v, _INT_CONFIG
        ).starts.tobytes(),
        3,
        0,
    ),
    "frame_rng-seed": (
        lambda v: draw_frame(frame_rng(v, 5), 3, _INT_CONFIG).starts.tobytes(),
        7,
        None,
    ),
    "frame_rng-seed-warm": (
        lambda v: draw_frame(
            frame_rng(v, 5, _warm_stream()), 3, _INT_CONFIG
        ).starts.tobytes(),
        7,
        None,
    ),
    "frame_rng-frame_index": (
        lambda v: draw_frame(frame_rng(7, v), 3, _INT_CONFIG).starts.tobytes(),
        5,
        None,
    ),
    "frame_rng-frame_index-warm": (
        lambda v: draw_frame(
            frame_rng(7, v, _warm_stream()), 3, _INT_CONFIG
        ).starts.tobytes(),
        5,
        None,
    ),
    "decode_frame-copies": (
        lambda v: decode_frame(_INT_INTERFERENCE, DecodeBudget(5), v), 2, 1
    ),
    "estimate_point-rounds": (
        lambda v: estimate_point(_INT_CONFIG, LINK_10DB, 0.5, v, 1), 10, 1
    ),
    "estimate_point-workers": (
        lambda v: estimate_point(_INT_CONFIG, LINK_10DB, 0.5, 10, 1, workers=v), 1, 1
    ),
    "interference_distribution-n_dp": (
        lambda v: interference_distribution(_INT_CONFIG, v).probs.tobytes(), 2, 0
    ),
    "interference_distribution-trunc_len": (
        lambda v: interference_distribution(_INT_CONFIG, 2, v).probs.tobytes(), 5, 0
    ),
    "convolve-trunc_len": (
        lambda v: convolve(_INT_PMF, _INT_PMF, v).probs.tobytes(), 3, 0
    ),
    # repr tells a stored numpy integer from the int it equals
    "InterferencePmf-dp_count": (
        lambda v: repr(InterferencePmf(_INT_CONFIG, v, _INT_PMF.probs).dp_count), 1, 0
    ),
    "LinkModel-modulation_order": (
        lambda v: repr(LinkModel.from_parameters(v, 0.5, 10.0, 100).modulation_order), 4, 2
    ),
    "point_seed-master_seed": (lambda v: point_seed(v, 0), 1, 0),
    "point_seed-point_index": (lambda v: point_seed(1, v), 2, 0),
    "spectral_rate-modulation_order": (lambda v: spectral_rate(v, 0.5), 4, 2),
    "snir_at-burst_len": (lambda v: snir_at(500, v, 10.0), 1000, 1),
    "snir_at-x_symbols": (lambda v: snir_at(v, 1000, 10.0), 500, 0),
    "interference_budget-burst_len": (
        lambda v: interference_budget(v, 10.0, 1.0), 1000, 1
    ),
}


@pytest.mark.parametrize("argument", sorted(_INT_ARGUMENTS))
def test_integer_arguments_follow_the_one_rule(argument):
    # a numpy integer acts as the equal int, to the frame bytes; a bool,
    # float or str is refused, as SystemConfig and DecodeBudget refuse them,
    # and so is an int below the argument's least value
    call, value, least = _INT_ARGUMENTS[argument]
    want = call(value)
    for kind in (np.int64, np.uint16):
        assert call(kind(value)) == want
    for bad in (True, float(value), np.float64(value), str(value)):
        with pytest.raises(InvalidParameterError, match="must be an int, got"):
            call(bad)
    if least is not None:
        with pytest.raises(InvalidParameterError) as refused:
            call(least - 1)
        name, _, rest = str(refused.value).partition(" must be ")
        # the message spells a name such as master_seed as "master seed"
        assert name.replace(" ", "_") == argument.split("-")[1]
        assert rest == f">= {least}, got {least - 1}"


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
