"""Monte Carlo ground truth: random burst placement, exact integer overlap
accounting, threshold decoding. Every simulated frame draws from its own
counter-based RNG stream, so results do not depend on scheduling or on how
many workers split the batch."""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytic import n_tx_for_load
from .config import SystemConfig
from .errors import InvalidParameterError, PlacementImpossibleError
from .link import DecodeBudget, LinkModel

RNG_ALGORITHM = "philox4x64"
RNG_STREAM_RULE = (
    "v2: frame key = (point_seed << 64) | frame_index; "
    "point_seed = first uint64 of SeedSequence([master_seed, point_index]); "
    "copy c >= 1 of every packet is one draw of its rank among the starts "
    "that clear the packet's earlier copies"
)

_MASK64 = (1 << 64) - 1


def frame_rng(seed: int, frame_index: int) -> np.random.Generator:
    """Independent stream for one frame. Counter-based keying means any
    subset of frames can be drawn in any order or process."""
    key = ((seed & _MASK64) << 64) | (frame_index & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


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
    starts[:, 0] = rng.integers(0, positions, size=n_tx)
    for c in range(1, config.copies):
        # starts blocked by each earlier copy, as disjoint ascending runs
        prev = np.sort(starts[:, :c], axis=1)
        lo = np.maximum(prev - tau + 1, 0)
        hi = np.minimum(prev + tau, positions)
        lo[:, 1:] = np.maximum(lo[:, 1:], hi[:, :-1])
        width = hi - lo
        free = positions - width.sum(axis=1)
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
    guarantees: copies of the same packet never overlap.
    """
    tau = config.burst_len
    flat = frame.starts.reshape(-1)
    n = flat.shape[0]
    if n == 0:
        return np.zeros_like(frame.starts)
    order = np.argsort(flat, kind="stable")
    s = flat[order]
    prefix = np.concatenate(([0], np.cumsum(s)))
    k = np.arange(n)
    lo = np.searchsorted(s, s - tau + 1, side="left")
    hi = np.searchsorted(s, s + tau - 1, side="right")
    # neighbors at distance < tau, split below/above the copy itself
    cnt_lo = k - lo
    sum_lo = prefix[k] - prefix[lo]
    cnt_hi = hi - (k + 1)
    sum_hi = prefix[hi] - prefix[k + 1]
    total_sorted = cnt_lo * (tau - s) + sum_lo + cnt_hi * (tau + s) - sum_hi
    total = np.empty(n, dtype=np.int64)
    total[order] = total_sorted
    return total.reshape(frame.starts.shape)


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
    no more interference than the budget allows."""
    arr = np.asarray(interference).reshape(-1, copies)
    if arr.shape[0] == 0:
        return 0
    if not budget.decodable:
        return arr.shape[0]
    return int((arr > budget.max_interference).all(axis=1).sum())


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
    lost = np.empty(frame_hi - frame_lo, dtype=np.int64)
    for f in range(frame_lo, frame_hi):
        rng = frame_rng(seed, f)
        frame = draw_frame(rng, n_tx, config)
        interference = per_copy_interference(frame, config)
        lost[f - frame_lo] = decode_frame(interference, budget, config.copies)
    return lost


def _run_chunk(task):
    # module-level so ProcessPoolExecutor can pickle it
    config, budget, n_tx, seed, frame_lo, frame_hi = task
    return frame_lo, _frames_lost(config, budget, n_tx, seed, frame_lo, frame_hi)


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
    """
    if rounds < 1:
        raise InvalidParameterError(f"rounds must be >= 1, got {rounds}")
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    n_tx = n_tx_for_load(config, load)
    if n_tx == 0:
        return SimResult(load, 0, rounds, 0.0, 0.0, 0.0, seed)
    budget = link.budget
    if not budget.decodable:
        # every packet is lost before placement matters
        return SimResult(load, n_tx, rounds, 1.0, 0.0, 0.0, seed)
    lost = np.empty(rounds, dtype=np.int64)
    if workers == 1:
        lost[:] = _frames_lost(config, budget, n_tx, seed, 0, rounds)
    else:
        n_chunks = min(rounds, workers * 4)
        bounds = [(rounds * i) // n_chunks for i in range(n_chunks + 1)]
        tasks = [
            (config, budget, n_tx, seed, bounds[i], bounds[i + 1])
            for i in range(n_chunks)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for frame_lo, chunk in pool.map(_run_chunk, tasks):
                lost[frame_lo : frame_lo + chunk.shape[0]] = chunk
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
    """estimate_point over a load grid, one derived seed per grid index."""
    return [
        estimate_point(config, link, g, rounds, point_seed(seed, i), workers=workers)
        for i, g in enumerate(loads)
    ]
