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
from .errors import InvalidParameterError, PlacementImpossibleError, WorkBoundError
from .link import DecodeBudget, LinkModel

RNG_ALGORITHM = "philox4x64"
RNG_STREAM_RULE = (
    "v2: frame key = (point_seed << 64) | frame_index; "
    "point_seed = first uint64 of SeedSequence([master_seed, point_index]); "
    "copy c >= 1 of every packet is one draw of its rank among the starts "
    "that clear the packet's earlier copies"
)

# Work bound: estimate_point refuses a frame of more copies (n_tx * copies)
# than this before it places any. The paper's largest frames hold about 1200
# copies; a frame at the bound keeps some 100 MiB of per-frame arrays.
MAX_FRAME_COPIES = 1 << 20

_MASK64 = (1 << 64) - 1
# counter and output buffer of a freshly keyed Philox; the state setter
# copies them, so one read-only array serves every re-key
_ZEROS4 = np.zeros(4, dtype=np.uint64)
_ZEROS4.flags.writeable = False


def frame_rng(
    seed: int, frame_index: int, rng: np.random.Generator | None = None
) -> np.random.Generator:
    """Independent stream for one frame. Counter-based keying means any
    subset of frames can be drawn in any order or process.

    The frame's Philox key is ``[frame_index, seed]`` (the 128-bit
    ``(seed << 64) | frame_index``) at counter 0, with empty buffers. The
    key is always set in place: on ``rng``, a Philox-backed Generator and
    typically the one an earlier call returned, or with no ``rng`` on a new
    Philox Generator. Either way the stream bytes are those of
    ``Generator(Philox(key=(seed << 64) | frame_index))``; re-keying a
    returned Generator for the next frame builds nothing new.
    """
    if rng is None:
        rng = np.random.Generator(np.random.Philox())
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": _ZEROS4,
            "key": np.array(
                [frame_index & _MASK64, seed & _MASK64], dtype=np.uint64
            ),
        },
        "buffer": _ZEROS4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def point_seed(master_seed: int, point_index: int) -> int:
    """Per-point seed for sweeps, derived so duplicate grid loads still get
    distinct streams."""
    ss = np.random.SeedSequence([master_seed, point_index])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True, eq=False)
class Frame:
    """Start symbol of every transmitted copy, one row per packet."""

    starts: np.ndarray  # (n_packets, copies) int64

    @property
    def n_packets(self) -> int:
        return self.starts.shape[0]

    @property
    def copies(self) -> int:
        return self.starts.shape[1]


def draw_frame(rng: np.random.Generator, n_tx: int, config: SystemConfig) -> Frame:
    """Place n_tx packets, each as ``config.copies`` non-overlapping bursts.

    Every copy is uniform over the starts left admissible by the packet's
    earlier copies, frame edges included. A later copy draws its rank among
    those starts and steps over the blocked runs below it, so no draw is
    ever rejected; a first copy that leaves a later one no room at all
    raises PlacementImpossibleError.
    """
    if n_tx < 0:
        raise InvalidParameterError(f"n_tx must be >= 0, got {n_tx}")
    tau = config.burst_len
    starts = np.empty((n_tx, config.copies), dtype=np.int64)
    if n_tx == 0:
        return Frame(starts)
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
        if not free.all():
            raise PlacementImpossibleError(
                f"a packet's first {c} copies leave copy {c + 1} of "
                f"{config.copies} no room: bursts of {tau} symbols in a "
                f"{config.frame_len}-symbol frame"
            )
        # rank -> start: step over every blocked run at or below it
        x = rng.integers(0, free)
        for j in range(c):
            x += width[:, j] * (x >= lo[:, j])
        starts[:, c] = x
    return Frame(starts)


def per_copy_interference(frame: Frame, config: SystemConfig) -> np.ndarray:
    """Aggregate overlap on each copy from all other packets' copies.

    Sorted sweep with prefix sums, O(B log B) in the copy count B. All
    arithmetic is integer, so the result is exact. The sweep counts every
    other copy in the frame, so it needs the precondition draw_frame
    guarantees: copies of the same packet never overlap. It draws no random
    numbers: a frame's interference follows from the starts its own
    counter-based stream placed, whether that stream came from a fresh or a
    re-keyed Generator (see frame_rng).

    In sorted order, copy k at start s sees the copies lo..k-1 below it and
    k+1..hi-1 above it within distance < tau; with prefix sums P of the
    sorted starts, their summed overlap is the single expression
    ``tau*(hi-lo-1) + s*(hi+lo-2k-1) + (P[k]-P[lo]) - (P[hi]-P[k+1])``.
    One search finds lo and hi together: they are the ranks of the keys
    ``s - tau + 1`` and ``s + tau`` among the starts, and the expression is
    evaluated in place over those keys as
    ``(s-tau+1)*lo - P[lo] + (s+tau)*hi - P[hi] - lo``
    ``+ P[k] + P[k+1] - (2k+1)*s - tau``.

    The sort need not be stable. Copies that share a start s sit next to
    each other in any order, see the same lo and hi, and the expression
    changes by ``-2s + s[k] + s[k+1] = 0`` from one of them to the next,
    so every order of a tie gives each of them the same total.
    """
    tau = config.burst_len
    flat = frame.starts.reshape(-1)
    n = flat.shape[0]
    if n == 0:
        return np.zeros_like(frame.starts)
    order = flat.argsort()
    s = flat[order]
    prefix = np.zeros(n + 1, dtype=np.int64)
    s.cumsum(out=prefix[1:])
    keys = np.empty((2, n), dtype=np.int64)
    np.subtract(s, tau - 1, out=keys[0])
    np.add(s, tau, out=keys[1])
    lohi = s.searchsorted(keys)
    # P[k] + P[k+1] - (2k+1)*s - lo - tau
    total = prefix[:-1] + prefix[1:]
    total -= np.arange(1, 2 * n, 2) * s
    total -= lohi[0]
    total -= tau
    # (s-tau+1)*lo - P[lo] and (s+tau)*hi - P[hi]
    keys *= lohi
    keys -= prefix[lohi]
    total += keys[0]
    total += keys[1]
    out = np.empty(n, dtype=np.int64)
    out[order] = total
    return out.reshape(frame.starts.shape)


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

    One Generator is re-keyed for every frame, so each frame still draws
    its own counter-based stream, byte for byte the one a fresh
    ``frame_rng(seed, f)`` gives. Module-level, so a process pool can
    pickle a partial of it; the per-frame functions are looked up at call
    time.
    """
    lost = np.empty(frame_hi - frame_lo, dtype=np.int64)
    rng = None
    for f in range(frame_lo, frame_hi):
        rng = frame_rng(seed, f, rng)
        frame = draw_frame(rng, n_tx, config)
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
    depends only on (config, link, load, rounds, seed), never on workers.
    The process pool never holds more processes than chunks or CPUs.
    A load that puts more than MAX_FRAME_COPIES copies in a frame raises
    WorkBoundError before any frame is placed.
    """
    if rounds < 1:
        raise InvalidParameterError(f"rounds must be >= 1, got {rounds}")
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
