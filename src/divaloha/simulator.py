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
    as_int,
    short_int,
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

# Work bound: require_work_bounds refuses a frame of more copies
# (n_tx * copies) than this, for sweep, estimate_point and the command line,
# before any is placed. The paper's largest frames hold about 1200 copies; a
# frame at the bound keeps some 100 MiB of per-frame arrays. A block holds at
# most max(BLOCK_COPIES, n_tx * copies) copies, so the bound holds for the
# block too.
MAX_FRAME_COPIES = 1 << 20

# Work bound: require_work_bounds refuses more simulated frames per load
# than this, for sweep, estimate_point and the command line, before anything
# is allocated or placed. It counts frames, not copies: the cheapest frame (a
# few packets at 20000/1000) costs 7-9 us on a 2-core x86 host, so a load at
# the bound takes at least 8 s and keeps an 8 MiB array of per-frame losses,
# and the paper's largest frames (600 packets at 200000/500, some 150 us)
# take about 3 min. It still allows the million frames that a tight error
# bar at low loss needs.
MAX_ROUNDS = 1 << 20

_MASK64 = (1 << 64) - 1


class FrameStream:
    """Where one frame's starts come from: frame ``frame_index`` of point
    seed ``seed``. Reusable: ``frame_rng`` moves it to another frame, and it
    keeps the last block it placed and swept, so the frames of one block
    cost one placement and one sweep between them.

    It keys a fresh Philox generator per block (see _block_rng) and holds
    no generator itself. ``overlap`` is the overlap on every copy of the
    frame last asked of it, swept under the config it was placed under.

    The block held is frames ``[lo, hi)`` of one seed, placed and swept for
    one n_tx under one config. A frame asked in that range under the same
    ``(seed, n_tx, config)`` (a tuple compare, which tries identity before
    equality) is a hit: its starts and overlap are row ``frame_index - lo``
    of the block's, with no K or block index computed. Anything else places
    and sweeps the block that holds the frame.
    """

    __slots__ = (
        "seed", "frame_index", "overlap", "_key", "_lo", "_hi", "_starts",
        "_overlap",
    )

    def __init__(self) -> None:
        self.seed = 0
        self.frame_index = 0
        self.overlap = None
        # the block held: frames _lo.._hi-1 under _key = (seed, n_tx, config),
        # its starts and overlap as read-only (K, n_tx, copies) rows
        self._key = None
        self._lo = self._hi = 0
        self._starts = self._overlap = None

    def starts(self, n_tx: int, config: SystemConfig) -> np.ndarray:
        """Read-only (n_tx, copies) starts of this stream's frame; its
        overlap is left in ``overlap``.

        The first frame asked of a block places the whole block, one
        ``integers`` call per copy, and sweeps it (see
        per_copy_interference); later frames of the same block are views of
        its rows. Every frame, one of the block held included, holds the
        seed, n_tx and frame index to the integer rule: a bool, float or str
        raises InvalidParameterError, and a numpy integer acts as the equal
        int. Three plain ints pass one type test and nothing more. A
        negative n_tx, which no held block's key has, and a seed or block
        index outside 0..2**64-1 raise InvalidParameterError, and a block
        that the sweep's sort keys cannot hold raises ConfigError (see
        _key_bits), both before the block is keyed or drawn; a block that
        holds a dead end raises PlacementImpossibleError while it is placed.
        Either way the stream keeps the block it held before.
        """
        f, seed = self.frame_index, self.seed
        # Python ints from here on: a numpy frame index would wrap in _hi
        # near 2**64, and a numpy seed in the key's shift
        if not type(f) is type(seed) is type(n_tx) is int:
            n_tx = as_int(n_tx, "n_tx")
            f = as_int(f, "frame index")
            seed = as_int(seed, "seed")
        key = (seed, n_tx, config)
        # the key first: a fresh stream holds none, so any frame index
        # reaches the checks below
        if not (key == self._key and self._lo <= f < self._hi):
            n_tx = as_int(n_tx, "n_tx", 0)
            k = _block_frames(n_tx, config.copies)
            block = f // k
            # each is one 64-bit word of the key: outside, it would alias
            if not 0 <= seed <= _MASK64:
                raise InvalidParameterError(f"seed must be in 0..2**64-1, got {seed}")
            if not 0 <= block <= _MASK64:
                raise InvalidParameterError(
                    f"frame {f} is in block {block}, outside 0..2**64-1"
                )
            _key_bits(k * n_tx * config.copies, k, config)
            starts = _place(_block_rng(seed, block), k * n_tx, config)
            overlap = _sweep(starts, k, config)
            starts.flags.writeable = False
            overlap.flags.writeable = False
            rows = (k, n_tx, config.copies)
            self._starts, self._overlap = starts.reshape(rows), overlap.reshape(rows)
            self._key = key
            self._lo = block * k
            self._hi = self._lo + k
        row = f - self._lo
        self.overlap = self._overlap[row]
        return self._starts[row]


def _block_frames(n_tx: int, copies: int) -> int:
    """K of the stream rule: the frames in one RNG block. An empty frame's
    block is empty whatever K is."""
    return max(1, BLOCK_COPIES // (n_tx * copies or 1))


def _block_rng(seed: int, block: int) -> np.random.Generator:
    """A fresh generator for block ``block`` of point seed ``seed``: Philox
    keyed ``(seed << 64) | block`` at counter 0, as RNG_STREAM_RULE says.
    ``seed`` and ``block`` are each one key word, a Python int in
    0..2**64-1 (``FrameStream.starts`` makes them so and checks them): a
    numpy uint64 would wrap in the shift."""
    key = (seed << 64) | block
    return np.random.Generator(np.random.Philox(key=key))


def frame_rng(
    seed: int, frame_index: int, stream: FrameStream | None = None
) -> FrameStream:
    """The stream of frame ``frame_index`` under point seed ``seed``.
    Counter-based keying means any subset of frames can be drawn in any
    order or process, and a frame's starts never depend on which other
    frames were drawn, nor on ``rounds``.

    Given a ``stream`` (typically the one an earlier call returned), it is
    moved to the new frame and returned; no key is set here. The stream
    keys a fresh Philox generator per block, and places and sweeps a new
    block, only when ``draw_frame`` asks it for a frame outside the block
    it holds.
    """
    if stream is None:
        stream = FrameStream()
    stream.seed = seed
    stream.frame_index = frame_index
    return stream


def point_seed(master_seed: int, point_index: int) -> int:
    """Per-point seed for sweeps, derived so duplicate grid loads still get
    distinct streams. A master seed or point index that is not an int, or
    is negative, raises InvalidParameterError."""
    master_seed = as_int(master_seed, "master seed", 0)
    point_index = as_int(point_index, "point index", 0)
    ss = np.random.SeedSequence([master_seed, point_index])
    return int(ss.generate_state(1, np.uint64)[0])


class Frame:
    """Start symbol of every transmitted copy, one row per packet.

    A drawn frame also carries its ``overlap``, swept with the rest of its
    block, and the ``config`` it was swept under. A hand-built
    ``Frame(starts)`` has neither.

    A plain class with slots rather than a frozen dataclass, because a
    frame is built on every draw: its attributes can be rebound, so treat
    them as read-only. Frames compare by identity.
    """

    __slots__ = ("starts", "overlap", "config")

    def __init__(
        self,
        starts: np.ndarray,  # (n_packets, copies) int64
        overlap: np.ndarray | None = None,  # the same shape, swept under config
        config: SystemConfig | None = None,
    ) -> None:
        self.starts = starts
        self.overlap = overlap
        self.config = config

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
    earlier copies, frame edges included (see ``_place``). Drawing the first
    frame of a block keys a fresh Philox generator for the block, then
    places and sweeps the whole block, so the frame comes with read-only
    views of its starts and its overlap under ``config``. A block too long
    for the sweep's sort keys raises ConfigError before it is keyed or
    drawn, and one that holds a dead end raises PlacementImpossibleError,
    at the first frame drawn from it.

    ``stream`` is duck-typed: this calls ``stream.starts(n_tx, config)``
    once and then reads ``stream.overlap`` from the object it was given, so
    a forwarding proxy of a FrameStream (one that counts the values its
    method calls return, say) draws the same frame.
    """
    starts = stream.starts(n_tx, config)
    return Frame(starts, stream.overlap, config)


def _place(rng: np.random.Generator, n_tx: int, config: SystemConfig) -> np.ndarray:
    """Starts of n_tx packets, each as ``config.copies`` non-overlapping bursts.

    Every copy is uniform over the starts left admissible by the packet's
    earlier copies, frame edges included. A later copy draws its rank among
    those starts and steps over the blocked runs below it, so no draw is
    ever rejected; a first copy that leaves a later one no room at all
    raises PlacementImpossibleError.

    No size is a special case: an empty frame gives empty arrays, the
    merge of blocked runs is empty for a single earlier copy, and the room
    check is one ``all`` per copy. A single earlier copy skips the sort,
    being sorted already.
    """
    tau = config.burst_len
    starts = np.empty((n_tx, config.copies), dtype=np.int64)
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
        np.maximum(lo[:, 1:], hi[:, :-1], out=lo[:, 1:])
        width = hi - lo
        # column by column: a row sum over so few columns costs more
        free = positions - width[:, 0]
        for j in range(1, c):
            free -= width[:, j]
        if not free.all():
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
    B), run once per block. Drawing the first frame of a block sweeps all K
    frames of it at once (see FrameStream.starts), and every drawn frame
    carries a view of its rows, which this returns when asked under the
    config the frame was swept under (identity tried before equality). A
    hand-built frame, or one asked under another config, is swept here
    alone, as a block of K = 1. Either way a frame gets the same integers:

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
    ``s - tau + 1`` among the starts, and hi, the rank of ``s + tau``, both
    come from one merge of two sorted runs: keys tagged 0 and starts tagged
    1 as ``(v << 1) | tag``, so a key sorts before an equal start, through
    one stable sort, which merges two runs in linear time. Key k then sits
    at position ``lo[k] + k`` and start k at ``hi[k] + k``: the starts
    before key k are those with ``s_j < s_k - tau + 1``, and the keys before
    start k those with ``s_j - tau + 1 <= s_k``, that is ``s_j < s_k + tau``.

    A block whose largest shifted start a key cannot hold raises
    ConfigError (see _key_bits); no block of the stream rule with
    ``frame_len + tau <= 2**37`` does.
    """
    swept = frame.config
    if frame.overlap is not None and (swept is config or swept == config):
        return frame.overlap
    out = _sweep(frame.starts, 1, config)
    out.flags.writeable = False
    return out


def _sweep(starts: np.ndarray, frames: int, config: SystemConfig) -> np.ndarray:
    """Overlap on every copy of ``frames`` frames of equal size stacked by
    row in ``starts``, each frame on its own, by the offset sweep that
    per_copy_interference describes.

    A key is ``(shifted start << bits) | copy index`` with ``bits`` enough
    for every index (at least 1, so that the key shifted down by
    ``bits - 1`` and its tag bit set is the merge's ``2s + 1``), so it holds
    shifted starts up to ``2**(63 - bits) - 1``. The largest one a block can
    have is the last start of its last frame,
    ``top = frames * (frame_len + tau) - 2 * tau``, which also bounds every
    frame offset; the merge tags keys down to ``-(tau - 1)``. Where either
    would not fit, _key_bits raises ConfigError before anything is
    allocated. FrameStream.starts asks it before it draws a block, so
    for a stream's block the call here only gives the bits, and a
    hand-built frame is refused here. A
    block of the stream rule holds K frames of at most BLOCK_COPIES copies
    between them (13 index bits, top below K * 2**37 <= 2**50), or one
    frame of at most MAX_FRAME_COPIES (20 bits, top below 2**37 < 2**43), so
    it is never refused when ``frame_len + tau <= 2**37``, some 1.4 * 10**11
    symbols; the paper's longest frames hold 200000.

    Buffers are reused in place: the sweep holds eight arrays of B integers
    at its peak (the order, copy indices, sorted starts, lo, hi, prefix sums
    and a work buffer of 2B, which takes the merge's two runs and later
    serves as scratch) and writes the totals into the buffer of the sorted
    starts. The ranks are read through a 2B-byte tag mask, one at a time,
    before the prefix sums are allocated.
    """
    tau = config.burst_len
    n = starts.size
    bits = _key_bits(n, frames, config)
    offset = np.arange(frames, dtype=np.int64)
    offset *= config.frame_len + tau
    shifted = (starts.reshape(frames, n // frames) + offset[:, None]).reshape(-1)
    k = np.arange(n, dtype=np.int64)
    work = np.empty(2 * n, dtype=np.int64)
    a, b = work[:n], work[n:]
    shifted <<= bits
    shifted |= k
    shifted.sort()
    # starts 2s + 1 (tag 1) straight from the sorted keys, and keys
    # 2(s - tau + 1) (tag 0): two sorted runs, which the stable sort
    # (timsort) merges in one linear pass
    np.right_shift(shifted, bits - 1, out=b)
    b |= 1
    np.subtract(b, 2 * tau - 1, out=a)
    s = shifted >> bits
    order = np.bitwise_and(shifted, (1 << bits) - 1, out=shifted)
    work.sort(kind="stable")
    # key k sits at lo[k] + k, start k at hi[k] + k
    work &= 1
    lo = np.flatnonzero(work == 0)
    lo -= k
    hi = np.flatnonzero(work == 1)
    hi -= k
    prefix = np.empty(n + 1, dtype=np.int64)
    prefix[0] = 0
    np.add.accumulate(s, out=prefix[1:])
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


def _key_bits(n: int, frames: int, config: SystemConfig) -> int:
    """The index bits of _sweep's sort keys over ``n`` copies in ``frames``
    frames under ``config``, or ConfigError where those keys cannot hold
    the block's shifted starts (see _sweep). It reads only the sizes, so
    FrameStream.starts asks it before a block is keyed or drawn."""
    tau = config.burst_len
    bits = max(1, (n - 1).bit_length())
    top = frames * (config.frame_len + tau) - 2 * tau
    if max(top, tau - 1) >> (63 - bits):
        raise ConfigError(
            f"cannot sweep {frames} frames of {config.frame_len} symbols with "
            f"{tau}-symbol bursts: a sort key over {n} copies holds starts and "
            f"burst lengths below 2**{63 - bits}, and their last shifted start is "
            f"{top}; frame_len + burst_len up to 2**37 always fits"
        )
    return bits


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

    ``interference`` must be an (n_packets, copies) array, as
    per_copy_interference returns; any other shape raises
    InvalidParameterError rather than being regrouped, and so does a
    ``copies`` that is not an int of at least 1 (a numpy integer acts as
    the equal int; a plain int passes one type test and one compare).

    A packet is lost exactly when its least-interfered copy exceeds the
    budget. The least interference is a running minimum over the copy
    columns: one ``np.minimum`` per copy after the first, then one compare
    and one count, with no per-row reduction and the same code for every
    copy count.

    The compare is against ``_bound(limit)``, the budget as a read-only 0-d
    int64 array built once per limit and cached: one scalar conversion per
    budget, not one per frame. numpy converts a Python int operand on
    every compare, which costs 0.2-0.5 us of a decode of about 2 us on a
    2-core x86 host, and a 0-d array not at all. A limit fits when it is in
    -2**63 .. 2**63 - 1 (DecodeBudget holds only ints). A limit past the
    int64 range, as ``--snir-dec-db -300`` gives, is compared as the
    Python int it is, so the count is the same either way.
    """
    if type(copies) is not int or copies < 1:
        copies = as_int(copies, "copies", 1)
    try:
        n_packets, columns = interference.shape
    except (AttributeError, ValueError):
        columns = None
    if columns != copies:
        shape = getattr(interference, "shape", type(interference).__name__)
        raise InvalidParameterError(
            f"interference must be an (n_packets, {copies}) array, got {shape}"
        )
    limit = budget.max_interference
    if limit is None:
        return n_packets
    least = interference[:, 0]
    for c in range(1, copies):
        least = np.minimum(least, interference[:, c])
    return int(np.count_nonzero(least > _bound(limit)))


@functools.lru_cache(maxsize=8)
def _bound(limit: int):
    """The int ``limit`` as a read-only 0-d int64 array, or ``limit``
    itself where int64 cannot hold it (``np.array`` would raise
    OverflowError), so such a limit is compared as the Python int it is.
    Clamping it to 2**63 - 1 instead would keep every int64 total's count,
    but would change the count of float64 or uint64 interference, which
    decode_frame also takes, at values such as 1e33 or 2**63."""
    if not -(1 << 63) <= limit < 1 << 63:
        return limit
    bound = np.array(limit, dtype=np.int64)
    bound.flags.writeable = False
    return bound


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

    One FrameStream serves the chunk, so a block of frames is placed and
    swept once and each frame is its row, byte for byte the frame a fresh
    ``frame_rng(seed, f)`` gives. Each stage is still called once per frame:
    the draw of a block's first frame places and sweeps the block, every
    draw hands out row views of its starts and overlap, and the overlap
    call returns the view it carries. A warm frame, one whose block the
    stream holds, costs three type tests, a key compare and a range test in
    the stream, the two row views, and the decode's type test and few numpy
    calls. A chunk that starts or ends inside a block places and sweeps that
    whole block; estimate_point's chunks never do. Module-level, so a
    process pool can pickle a partial of it; the per-frame functions are
    looked up at call time.
    """
    lost = np.empty(frame_hi - frame_lo, dtype=np.int64)
    copies = config.copies
    stream = None
    for f in range(frame_lo, frame_hi):
        stream = frame_rng(seed, f, stream)
        frame = draw_frame(stream, n_tx, config)
        interference = per_copy_interference(frame, config)
        lost[f - frame_lo] = decode_frame(interference, budget, copies)
    return lost


def require_work_bounds(config: SystemConfig, loads, rounds: int) -> list[int]:
    """Packets per frame at each of ``loads``, once the run is held to its
    work bounds: WorkBoundError if ``rounds`` frames per load exceed
    MAX_ROUNDS, or if a load puts more than MAX_FRAME_COPIES copies in a
    frame. It computes n_tx and nothing more, so ``sweep``,
    ``estimate_point`` and the command line call it before any work.
    ``loads`` is read once, so any iterable serves."""
    loads = tuple(loads)
    if rounds > MAX_ROUNDS:
        raise WorkBoundError(
            f"{short_int(rounds)} rounds is over the bound of {MAX_ROUNDS} "
            "simulated frames per load"
        )
    n_by_load = [n_tx_for_load(config, g) for g in loads]
    for g, n_tx in zip(loads, n_by_load):
        if n_tx * config.copies > MAX_FRAME_COPIES:
            raise WorkBoundError(
                f"load {g} puts {short_int(n_tx)} packets of "
                f"{short_int(config.copies)} copies in a frame, over the bound of "
                f"{MAX_FRAME_COPIES} copies per frame"
            )
    return n_by_load


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
    depend on ``rounds`` either. A pooled run cuts its chunks only between
    RNG blocks, so each block is placed and swept once, and the pool never
    holds more processes than chunks or CPUs.

    Refusal order: the argument checks (``rounds`` and ``workers`` ints of
    at least 1), then the pre-flight ``require_work_bounds`` for this load,
    then work. PlacementImpossibleError comes from the first frame drawn
    from the block that holds the dead end.
    """
    rounds = as_int(rounds, "rounds", 1)
    workers = as_int(workers, "workers", 1)
    (n_tx,) = require_work_bounds(config, [load], rounds)
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

        # about four chunks per worker, cut only between RNG blocks of k
        # frames, so no block is placed and swept by two chunks
        k = _block_frames(n_tx, config.copies)
        blocks = -(-rounds // k)
        n_chunks = min(blocks, workers * 4)
        bounds = [
            min(rounds, k * (blocks * i // n_chunks)) for i in range(n_chunks + 1)
        ]
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

    ``loads`` is read once, as a tuple, so any iterable serves.

    Refusal order: the pre-flight ``require_work_bounds`` over the whole
    grid, then each load through estimate_point, whose argument checks and
    pre-flight come before its frames. So an over-bound load anywhere in
    the grid is refused before the first frame.
    """
    loads = tuple(loads)
    require_work_bounds(config, loads, rounds)
    return [
        estimate_point(config, link, g, rounds, point_seed(seed, i), workers=workers)
        for i, g in enumerate(loads)
    ]
