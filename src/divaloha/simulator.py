"""Monte Carlo ground truth: random burst placement, exact integer overlap
accounting, threshold decoding. Every simulated frame draws from its own
counter-based RNG stream, so results do not depend on scheduling or on how
many workers split the batch."""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .analytic import n_tx_for_load
from .config import SystemConfig
from .errors import (
    ConfigError,
    InvalidParameterError,
    PlacementImpossibleError,
    WorkBoundError,
)
from .link import DecodeBudget, LinkModel

RNG_ALGORITHM = "philox4x64"
# Copies placed under one Philox key: frames of n_tx packets of `copies`
# copies are drawn in blocks of max(1, BLOCK_COPIES // (n_tx * copies))
# frames. Part of the stream rule, so changing it changes every simulated
# byte. Chosen by timing whole simulator sweeps (loads 0.1-1.5, 11 runs
# alternating the sizes, 2-core x86): 2**13 and 2**14 tied and beat
# 2**11, 2**12 and 2**15 by 5-15% at 200000/500; at 20000/1000 every size
# from 2**11 to 2**15 read within 5%. The smaller of the two keeps the
# block small.
BLOCK_COPIES = 1 << 13

RNG_STREAM_RULE = (
    "v3: frames come in blocks of K = max(1, BLOCK_COPIES // (n_tx * copies)) "
    f"consecutive indices, BLOCK_COPIES = {BLOCK_COPIES}; block b is keyed "
    "(point_seed << 64) | b at counter 0 and placed as one frame of K * n_tx "
    "packets; frame f is rows (f % K) * n_tx up to (f % K + 1) * n_tx of "
    "block f // K; "
    "point_seed = first uint64 of SeedSequence([master_seed, point_index]); "
    "copy c >= 1 of every packet is one draw of its rank among the starts "
    "that clear the packet's earlier copies"
)

# Work bound: estimate_point refuses a frame of more copies (n_tx * copies)
# than this before it places any. The paper's largest frames hold about 1200
# copies; a frame at the bound keeps some 100 MiB of per-frame arrays. A
# block holds at most max(BLOCK_COPIES, n_tx * copies) copies, so the bound
# holds for the block too.
MAX_FRAME_COPIES = 1 << 20

# Work bound: estimate_point refuses more simulated frames per load than
# this before it allocates or places anything. It counts frames, not
# copies: the cheapest frame (a few packets at 20000/1000) costs 7-9 us on
# a 2-core x86 host, so a load at the bound takes at least 8 s and keeps an
# 8 MiB array of per-frame losses, and the paper's largest frames (600
# packets at 200000/500, some 150 us) take about 3 min. It still allows the
# million frames that a tight error bar at low loss needs.
MAX_ROUNDS = 1 << 20

_MASK64 = (1 << 64) - 1


class FrameStream:
    """Where one frame's starts come from: frame ``frame_index`` of point
    seed ``seed``. Reusable: ``frame_rng`` moves it to another frame, and it
    keeps the last block it placed, so the frames of one block cost one
    placement between them.

    ``rng`` is the Philox-backed Generator it re-keys for each block; a new
    one by default. ``block`` and ``row`` are the block of the frame last
    asked of it and that frame's row in the block.
    """

    __slots__ = ("seed", "frame_index", "_rng", "_placed", "block", "row")

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        self.seed = 0
        self.frame_index = 0
        self._rng = np.random.Generator(np.random.Philox()) if rng is None else rng
        self._placed = None  # (seed, block index, n_tx, config) of block
        self.block = None
        self.row = None

    def starts(self, n_tx: int, config: SystemConfig) -> np.ndarray:
        """Read-only (n_tx, copies) starts of this stream's frame.

        The first frame asked of a block places the whole block, one
        ``integers`` call per copy; later frames of the same block are
        views of it. A block that holds a dead end raises
        PlacementImpossibleError at the first frame asked of it.
        """
        if n_tx < 0:
            raise InvalidParameterError(f"n_tx must be >= 0, got {n_tx}")
        # K of the stream rule; an empty frame's block is empty whatever K is
        k = max(1, BLOCK_COPIES // (n_tx * config.copies or 1))
        block, row = divmod(self.frame_index, k)
        placed = (self.seed, block, n_tx, config)
        if placed != self._placed:
            self._placed = None
            _rekey(self._rng, self.seed, block)
            self.block = _Block(_place(self._rng, k * n_tx, config), k, config)
            self._placed = placed
        self.row = row
        return self.block.starts[row * n_tx : (row + 1) * n_tx]


class _Block:
    """One placed RNG block: the read-only starts of ``frames`` frames of
    equal size, stacked by row, the ``config`` they were placed under, and
    the overlap on every copy in them, swept once when a frame first asks
    for it (see per_copy_interference). It lives as long as the stream or a
    frame refers to it.
    """

    __slots__ = ("starts", "frames", "config", "_interference")

    def __init__(self, starts: np.ndarray, frames: int, config: SystemConfig) -> None:
        starts.flags.writeable = False
        self.starts = starts
        self.frames = frames
        self.config = config
        self._interference = None

    def interference(self) -> np.ndarray:
        """Read-only overlap on every copy of the block, shaped as ``starts``."""
        if self._interference is None:
            inter = _sweep(self.starts, self.frames, self.config)
            inter.flags.writeable = False
            self._interference = inter
        return self._interference


def _rekey(rng: np.random.Generator, seed: int, block: int) -> None:
    """Set ``rng`` to key ``[block, seed]`` (the 128-bit
    ``(seed << 64) | block``) at counter 0 with empty buffers: the stream
    of ``Generator(Philox(key=(seed << 64) | block))``, built in place.

    The state setter reads ``counter``, ``key`` and ``buffer`` element by
    element, so they are given as tuples of plain ints: no uint64 array is
    built or parsed per block, and the key words are the same.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": (0, 0, 0, 0),
            "key": (block & _MASK64, seed & _MASK64),
        },
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def frame_rng(
    seed: int, frame_index: int, stream: FrameStream | None = None
) -> FrameStream:
    """The stream of frame ``frame_index`` under point seed ``seed``.
    Counter-based keying means any subset of frames can be drawn in any
    order or process, and a frame's starts never depend on which other
    frames were drawn, nor on ``rounds``.

    Given a ``stream`` (typically the one an earlier call returned), it is
    moved to the new frame and returned; no key is set here. The stream
    re-keys, and places a new block, only when ``draw_frame`` asks it for a
    frame outside the block it holds.
    """
    if stream is None:
        stream = FrameStream()
    stream.seed = seed
    stream.frame_index = frame_index
    return stream


def point_seed(master_seed: int, point_index: int) -> int:
    """Per-point seed for sweeps, derived so duplicate grid loads still get
    distinct streams."""
    ss = np.random.SeedSequence([master_seed, point_index])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True, eq=False)
class Frame:
    """Start symbol of every transmitted copy, one row per packet.

    A drawn frame also refers to the block it was placed in and its row
    there: it is rows ``row * n_packets`` up to ``(row + 1) * n_packets``
    of ``block.starts``. A hand-built ``Frame(starts)`` has neither.
    """

    starts: np.ndarray  # (n_packets, copies) int64
    block: _Block | None = None
    row: int | None = None

    @property
    def n_packets(self) -> int:
        return self.starts.shape[0]

    @property
    def copies(self) -> int:
        return self.starts.shape[1]


def draw_frame(stream: FrameStream, n_tx: int, config: SystemConfig) -> Frame:
    """Place n_tx packets, each as ``config.copies`` non-overlapping bursts,
    from ``stream`` (see ``frame_rng``): the frame's rows of its block.

    Every copy is uniform over the starts left admissible by the packet's
    earlier copies, frame edges included (see ``_place``). The starts are a
    read-only view of the block, and the frame keeps the block and its row
    in it. A block that holds a dead end raises PlacementImpossibleError at
    the first frame drawn from it.
    """
    starts = stream.starts(n_tx, config)
    return Frame(starts, stream.block, stream.row)


def _place(rng: np.random.Generator, n_tx: int, config: SystemConfig) -> np.ndarray:
    """Starts of n_tx packets, each as ``config.copies`` non-overlapping bursts.

    Every copy is uniform over the starts left admissible by the packet's
    earlier copies, frame edges included. A later copy draws its rank among
    those starts and steps over the blocked runs below it, so no draw is
    ever rejected; a first copy that leaves a later one no room at all
    raises PlacementImpossibleError.

    Each earlier copy blocks at most ``2*tau - 1`` starts, so c earlier
    copies leave at least ``positions - c*(2*tau - 1)`` free. The room
    check therefore runs only where that bound reaches zero, which no
    geometry of the paper does.
    """
    tau = config.burst_len
    starts = np.empty((n_tx, config.copies), dtype=np.int64)
    if n_tx == 0:
        return starts
    positions = config.start_positions
    first = rng.integers(0, positions, size=n_tx)
    starts[:, 0] = first
    for c in range(1, config.copies):
        # starts blocked by each earlier copy, as disjoint ascending runs;
        # a single earlier copy is already sorted
        prev = first[:, None] if c == 1 else np.sort(starts[:, :c], axis=1)
        lo = prev - (tau - 1)
        np.maximum(lo, 0, out=lo)
        hi = prev + tau
        np.minimum(hi, positions, out=hi)
        if c > 1:
            np.maximum(lo[:, 1:], hi[:, :-1], out=lo[:, 1:])
        width = hi - lo
        # column by column: a row sum over so few columns costs more
        free = positions - width[:, 0]
        for j in range(1, c):
            free -= width[:, j]
        if positions <= c * (2 * tau - 1) and not free.all():
            raise PlacementImpossibleError(
                f"a packet's first {c} copies leave copy {c + 1} of "
                f"{config.copies} no room: bursts of {tau} symbols in a "
                f"{config.frame_len}-symbol frame"
            )
        # rank -> start: step over every blocked run at or below it
        x = rng.integers(0, free)
        for j in range(c):
            x += (x >= lo[:, j]) * width[:, j]
        starts[:, c] = x
    return starts


def per_copy_interference(frame: Frame, config: SystemConfig) -> np.ndarray:
    """Aggregate overlap on each copy from all other packets' copies, as a
    read-only (n_packets, copies) array.

    All arithmetic is integer, so the result is exact. It counts every
    other copy in the frame, so it needs the preconditions draw_frame
    guarantees: copies of the same packet never overlap, and every start
    lies in the frame, in ``0 .. frame_len - tau``. It draws no random
    numbers: a frame's interference follows from the starts its block's
    counter-based stream placed, whether the frame came from a fresh or a
    reused FrameStream (see frame_rng).

    One algorithm, a sorted sweep with prefix sums over B copies, O(B log
    B), run once per block. The first call on any frame of a block (asked
    under the config the block was placed under) sweeps all K frames of it
    at once, and every frame of the block then returns a view of its rows.
    A hand-built frame, or one asked under another config, is swept alone,
    as a block of K = 1. Either way a frame gets the same integers:

    Frame r of the block is first shifted by ``r * (frame_len + tau)``. A
    frame's starts lie in ``0 .. frame_len - tau``, so the nearest starts of
    two neighbouring frames end up at least ``2 * tau`` apart: farther than
    the ``tau - 1`` within which two copies overlap, so no copy sees another
    frame, while distances inside a frame do not change.

    In sorted order, copy k at start s sees the copies lo..k-1 below it and
    k+1..hi-1 above it within distance < tau; with prefix sums P of the
    sorted starts, their summed overlap is the single expression
    ``s*(lo+hi-2k-1) + tau*(hi-lo-1) - P[lo] - P[hi] + P[k] + P[k+1]``.
    The prefix sums may wrap around in int64, but the expression only adds,
    subtracts and multiplies, so its wrapped value is the true total, which
    is at most B * tau. Copies that share a start s sit next to each other,
    see the same lo and hi, and the expression changes by
    ``-2s + s[k] + s[k+1] = 0`` from one of them to the next, so they get
    the same total whichever order their rows give them.

    The order is one in-place sort of packed keys
    ``(shifted start << bits) | copy index``: the sorted starts are the keys
    shifted back down and the order is their low bits. The index bits break
    ties, so the order is fully determined. lo, the rank of the key
    ``s - tau + 1`` among the starts, comes from merging two sorted runs:
    keys tagged 0 and starts tagged 1 as ``(v << 1) | tag``, so a key sorts
    before an equal start, through one stable sort, which merges two runs
    in linear time. Key k then sits at position ``lo[k] + k``. hi, the rank
    of ``s + tau``, follows by counting: ``hi[k] = #{j : lo[j] <= k}``, a
    bincount of lo summed cumulatively, because on sorted integers (ties
    included) ``s_j < s_k + tau  <=>  s_k >= s_j - tau + 1  <=>
    k >= lo[j]``.

    A block whose largest shifted start a key cannot hold raises
    ConfigError (see _sweep); no block of the stream rule with
    ``frame_len + tau <= 2**37`` does.
    """
    block = frame.block
    if block is not None and block.config == config:
        n = frame.starts.shape[0]
        return block.interference()[frame.row * n : (frame.row + 1) * n]
    out = _sweep(frame.starts, 1, config)
    out.flags.writeable = False
    return out


def _sweep(starts: np.ndarray, frames: int, config: SystemConfig) -> np.ndarray:
    """Overlap on every copy of ``frames`` frames of equal size stacked by
    row in ``starts``, each frame on its own, by the offset sweep that
    per_copy_interference describes.

    A key is ``(shifted start << bits) | copy index`` with ``bits`` enough
    for every index (at least 1, for the merge's tag bit), so it holds
    shifted starts up to ``2**(63 - bits) - 1``. The largest one a block can
    have is the last start of its last frame,
    ``top = frames * (frame_len + tau) - 2 * tau``, which also bounds every
    frame offset; the merge tags keys down to ``-(tau - 1)``. Where either
    would not fit, ConfigError is raised before anything is allocated. A
    block of the stream rule holds K frames of at most BLOCK_COPIES copies
    between them (13 index bits, top below K * 2**37 <= 2**50), or one
    frame of at most MAX_FRAME_COPIES (20 bits, top below 2**37 < 2**43), so
    it is never refused when ``frame_len + tau <= 2**37``, some 1.4 * 10**11
    symbols; the paper's longest frames hold 200000.

    Buffers are reused in place: the sweep holds eight arrays of B integers
    at its peak (the order, copy indices, sorted starts, lo, hi, prefix sums
    and a work buffer of 2B) and writes the totals into the buffer of the
    sorted starts.
    """
    tau = config.burst_len
    n = starts.size
    bits = max(1, (n - 1).bit_length())
    top = frames * (config.frame_len + tau) - 2 * tau
    if max(top, tau - 1) >> (63 - bits):
        raise ConfigError(
            f"cannot sweep {frames} frames of {config.frame_len} symbols with "
            f"{tau}-symbol bursts: a sort key over {n} copies holds starts and "
            f"burst lengths below 2**{63 - bits}, and their last shifted start is "
            f"{top}; frame_len + burst_len up to 2**37 always fits"
        )
    offset = np.arange(frames, dtype=np.int64)
    offset *= config.frame_len + tau
    shifted = (starts.reshape(frames, n // frames) + offset[:, None]).reshape(-1)
    k = np.arange(n, dtype=np.int64)
    work = np.empty(2 * n, dtype=np.int64)
    a, b = work[:n], work[n:]
    shifted <<= bits
    shifted |= k
    shifted.sort()
    s = shifted >> bits
    order = np.bitwise_and(shifted, (1 << bits) - 1, out=shifted)
    # keys s - tau + 1 tagged 0, starts tagged 1: two sorted runs, which the
    # stable sort (timsort) merges in one linear pass
    np.subtract(s, tau - 1, out=a)
    a <<= 1
    np.left_shift(s, 1, out=b)
    b |= 1
    work.sort(kind="stable")
    work &= 1
    lo = np.flatnonzero(work == 0)
    lo -= k
    hi = np.bincount(lo, minlength=n)
    hi.cumsum(out=hi)
    prefix = np.empty(n + 1, dtype=np.int64)
    prefix[0] = 0
    s.cumsum(out=prefix[1:])
    # P[k] + P[k+1] - P[lo] - P[hi]; clip never clips here, but unlike the
    # default it lets take write straight into b
    np.add(prefix[:-1], prefix[1:], out=a)
    a -= prefix.take(lo, out=b, mode="clip")
    a -= prefix.take(hi, out=b, mode="clip")
    # + tau*(hi-lo-1) + s*(lo+hi-2k-1), from (hi-k-1) and (lo-k)
    hi -= k
    hi -= 1
    lo -= k
    np.subtract(hi, lo, out=b)
    b *= tau
    a += b
    np.add(hi, lo, out=b)
    b *= s
    a += b
    s[order] = a
    return s.reshape(starts.shape)


def per_copy_interference_brute(frame: Frame, config: SystemConfig) -> np.ndarray:
    """All-pairs reference for the sweep, O(B^2), that excludes same-packet
    copies whether or not they overlap. Kept public for tests."""
    tau = config.burst_len
    flat = frame.starts.reshape(-1)
    pkt = np.repeat(np.arange(frame.n_packets), frame.copies)
    ov = np.maximum(tau - np.abs(flat[:, None] - flat[None, :]), 0)
    ov[pkt[:, None] == pkt[None, :]] = 0
    return ov.sum(axis=1).reshape(frame.starts.shape)


def decode_frame(
    interference: np.ndarray, budget: DecodeBudget, copies: int
) -> int:
    """Number of packets lost: a packet survives if any of its copies carries
    no more interference than the budget allows.

    A packet is lost exactly when its least-interfered copy exceeds the
    budget. The least interference is a running minimum over the copy
    columns: one elementwise pass per copy, with no per-row reduction and
    the same code for every copy count.
    """
    arr = np.asarray(interference).reshape(-1, copies)
    if not budget.decodable:
        return arr.shape[0]
    least = arr[:, 0]
    for c in range(1, copies):
        least = np.minimum(least, arr[:, c])
    return int(np.count_nonzero(least > budget.max_interference))


@dataclass(frozen=True)
class SimResult:
    """Monte Carlo estimate at one load."""

    load: float
    n_tx: int
    rounds: int
    plr_mean: float
    plr_stderr: float
    throughput_mean: float
    seed: int


def _frames_lost(
    config: SystemConfig,
    budget: DecodeBudget,
    n_tx: int,
    seed: int,
    frame_lo: int,
    frame_hi: int,
) -> np.ndarray:
    """Packets lost in each of frames frame_lo..frame_hi-1.

    One FrameStream serves the chunk, so a block of frames is placed once
    and each frame is its slice, byte for byte the frame a fresh
    ``frame_rng(seed, f)`` gives. Each stage is still called once per frame,
    and both the draw and the overlap amortize their work over the block:
    the first frame of a block places it, the first sweep of it sweeps all
    its frames, and the other frames get views of both. A chunk that starts
    or ends inside a block places and sweeps that whole block. Module-level,
    so a process pool can pickle a partial of it; the per-frame functions
    are looked up at call time.
    """
    lost = np.empty(frame_hi - frame_lo, dtype=np.int64)
    stream = None
    for f in range(frame_lo, frame_hi):
        stream = frame_rng(seed, f, stream)
        frame = draw_frame(stream, n_tx, config)
        interference = per_copy_interference(frame, config)
        lost[f - frame_lo] = decode_frame(interference, budget, config.copies)
    return lost


def _require_frame_bound(config: SystemConfig, load: float) -> int:
    """Packets per frame at ``load``; WorkBoundError if that frame holds more
    than MAX_FRAME_COPIES copies."""
    n_tx = n_tx_for_load(config, load)
    if n_tx * config.copies > MAX_FRAME_COPIES:
        raise WorkBoundError(
            f"load {load} puts {n_tx} packets of {config.copies} copies in a "
            f"frame, over the bound of {MAX_FRAME_COPIES} copies per frame"
        )
    return n_tx


def _require_rounds_bound(rounds: int) -> None:
    """WorkBoundError if ``rounds`` frames per load exceed MAX_ROUNDS."""
    if rounds > MAX_ROUNDS:
        raise WorkBoundError(
            f"{rounds} rounds is over the bound of {MAX_ROUNDS} simulated "
            "frames per load"
        )


def estimate_point(
    config: SystemConfig,
    link: LinkModel,
    load: float,
    rounds: int,
    seed: int,
    workers: int = 1,
) -> SimResult:
    """Monte Carlo PLR and throughput at one load.

    Runs ``rounds`` independent frames. The error bar is the across-frame
    standard error of the per-frame loss fraction: packets within a frame
    share interferers, so per-packet counting would understate it. Output
    depends only on (config, link, load, rounds, seed), never on workers:
    frame f is always the same slice of the same RNG block (see
    RNG_STREAM_RULE), wherever the chunk bounds fall, and its starts do not
    depend on ``rounds`` either. The process pool never holds more
    processes than chunks or CPUs. More than MAX_ROUNDS rounds, or a load
    that puts more than MAX_FRAME_COPIES copies in a frame, raise
    WorkBoundError before any frame is placed. PlacementImpossibleError
    comes from the first frame drawn from the block that holds the dead end.
    """
    if rounds < 1:
        raise InvalidParameterError(f"rounds must be >= 1, got {rounds}")
    _require_rounds_bound(rounds)
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    n_tx = _require_frame_bound(config, load)
    if n_tx == 0:
        return SimResult(load, 0, rounds, 0.0, 0.0, 0.0, seed)
    budget = link.budget
    if not budget.decodable:
        # every packet is lost before placement matters
        return SimResult(load, n_tx, rounds, 1.0, 0.0, 0.0, seed)
    run = functools.partial(_frames_lost, config, budget, n_tx, seed)
    if workers == 1:
        lost = run(0, rounds)
    else:
        # imported here: it costs a noticeable share of the package import,
        # and only a multi-worker run needs it
        from concurrent.futures import ProcessPoolExecutor

        n_chunks = min(rounds, workers * 4)
        bounds = [(rounds * i) // n_chunks for i in range(n_chunks + 1)]
        # a forked pool starts all its processes at the first task, so a
        # process no chunk or CPU can use is never asked for
        pool_size = min(workers, n_chunks, os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            lost = np.concatenate(list(pool.map(run, bounds[:-1], bounds[1:])))
    # integer total first: the mean is then a single exact division
    plr_mean = float(int(lost.sum()) / (rounds * n_tx))
    if rounds > 1:
        frac = lost / n_tx
        plr_stderr = float(frac.std(ddof=1) / math.sqrt(rounds))
    else:
        plr_stderr = 0.0
    return SimResult(
        load, n_tx, rounds, plr_mean, plr_stderr, load * (1.0 - plr_mean), seed
    )


def sweep(
    config: SystemConfig,
    link: LinkModel,
    loads,
    rounds: int,
    seed: int,
    workers: int = 1,
) -> list[SimResult]:
    """estimate_point over a load grid, one derived seed per grid index.

    Every load is held to the frame copy bound before the first frame.
    """
    for g in loads:
        _require_frame_bound(config, g)
    return [
        estimate_point(config, link, g, rounds, point_seed(seed, i), workers=workers)
        for i, g in enumerate(loads)
    ]
