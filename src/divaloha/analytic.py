"""Closed-form interference model for two-copy asynchronous diversity Aloha.

Each packet sends two non-overlapping copies of one burst, with the first
copy start uniform over the frame. Seen from one tagged copy, every other
packet ("disturber") inflicts an aggregate overlap of 0..burst_len symbols;
this module builds the exact pmf of that overlap, composes independent
disturbers by discrete convolution, and folds the result into packet loss
ratio and throughput.

All single-disturber probabilities are assembled as integer event counts
over the common denominator A*B, where A is the number of admissible start
positions for a copy and B the number left for the disturber's second copy
once its first is placed. The counts partition the placement space, so they
sum to A*B exactly and nothing is ever renormalized; the one float division
per entry happens last. The counting is organized by what the disturber's
first copy does to the tagged copy: full overlap, partial overlap, distant
(clear of it by at least a burst), or a near miss (clear, but close enough
to constrain where the second copy may fall).

The fold uses the column sums of that count table, which have closed forms
(``_fold_kernel``), so no table is built on its path; the table itself
backs the event split, ``pmf_mass_by_first_event``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .config import SystemConfig
from .errors import (
    ConfigError,
    InsufficientSupportError,
    InvalidParameterError,
    WorkBoundError,
)
from .link import DecodeBudget, LinkModel

_SUM_TOL = 1e-9
_EXACT_INT_LIMIT = 2**53

# Work bound: a fold of more disturbers than this is refused before its
# first step. It counts steps, not entries: at small budgets a step's cost
# is numpy call overhead (20-30 us at tau 2 on a 2-core host), so 2**16
# steps take 1.5-2 s; the paper's grids need at most a few hundred.
MAX_FOLD_STEPS = 1 << 16


def _require_analytic(config: SystemConfig) -> None:
    """The counting model is specific to two copies, needs room for every
    event class to have a nonnegative count, and keeps every count and the
    denominator A*B exact in a float."""
    if config.copies != 2:
        raise ConfigError(
            f"interference model is defined for 2 copies per packet, got {config.copies}"
        )
    if config.frame_len < 5 * config.burst_len - 2:
        raise ConfigError(
            f"frame_len ({config.frame_len}) must be >= 5*burst_len - 2 "
            f"({5 * config.burst_len - 2}) for the interference model"
        )
    a, b, _ = _event_space(config.frame_len, config.burst_len)
    if a * b >= _EXACT_INT_LIMIT:
        raise ConfigError(
            f"frame_len ({config.frame_len}) gives {a * b} placements, beyond "
            f"the 2**53 the interference model counts exactly"
        )


def _event_space(frame_len: int, burst_len: int) -> tuple[int, int, int]:
    """A admissible starts for a copy, B left for a disturber's second copy
    once its first is placed, and C placements clear of the tagged copy by
    at least one burst."""
    a = frame_len - burst_len + 1
    return a, a - (2 * burst_len - 1), a - (4 * burst_len - 1)


def _numerators_by_first_event(frame_len: int, burst_len: int) -> np.ndarray:
    """Integer counts over the denominator A*B, split by first-copy event.

    Returns an int64 array of shape (4, burst_len + 1) whose rows
    are the full, partial, distant and near-miss groups, indexed by the
    total overlap both copies together put on the tagged copy. Each row's
    total matches the closed-form first-copy event probabilities, and the
    column sums are the numerators _fold_kernel gives in closed form.
    """
    tau = burst_len
    a, b, c = _event_space(frame_len, burst_len)
    x = np.arange(1, tau, dtype=np.int64)

    counts = np.zeros((4, tau + 1), dtype=np.int64)
    n_full, n_partial, n_distant, n_near = counts

    # Total overlap tau: first copy exactly on top (second then cannot touch),
    # first copy clear with the second exactly on top, or two partial
    # overlaps that complement each other across the tagged copy.
    n_full[tau] = b
    n_distant[tau] = c
    n_near[tau] = 2 * tau
    n_partial[tau] = 2 * (tau - 1)

    # Total overlap x in 1..tau-1. Partial: the first copy overlaps by x and
    # the second stays clear, 2(b - (tau - x)), or both copies overlap
    # partially and sum to x, 2(x - 1). Distant: the second copy overlaps by
    # x, 2c placements. Near miss: the second copy overlaps by x; of the 2x
    # closer offsets both sides of the tagged copy stay open, of the
    # remaining 2(tau - x) only one side does, 4x + 2(tau - x) in all.
    n_partial[1:tau] = 4 * x + 2 * (b - tau - 1)
    n_distant[1:tau] = 2 * c
    n_near[1:tau] = 2 * tau + 2 * x

    # Total overlap zero: both copies clear; a near miss at offset z < tau
    # leaves 2(a - (3 tau + z - 1)) places for the second copy.
    n_distant[0] = c * (a - 2 * (2 * tau - 1))
    n_near[0] = 2 * tau * (a - 3 * tau + 1) - tau * (tau - 1)
    return counts


class _FoldKernel(NamedTuple):
    """Single-disturber pmf numerators over ``den`` = A*B: ``n0`` at overlap
    0, ``c0 + 6x`` at x = 1..tau-1 and ``n_tau`` at tau."""

    n0: int
    c0: int
    n_tau: int
    den: int


def _fold_kernel(frame_len: int, burst_len: int) -> _FoldKernel:
    """The kernel in closed form: the column sums of the count table.

    At overlap tau the four groups give b + c + 2 tau + 2(tau - 1); inside,
    c0 = 2b + 2c - 2 (no interior at tau = 1); at zero, the distant
    c(a - 4 tau + 2) plus the near misses summed over z < tau.
    """
    tau = burst_len
    a, b, c = _event_space(frame_len, burst_len)
    n0 = c * (a - 4 * tau + 2) + 2 * tau * (a - 3 * tau + 1) - tau * (tau - 1)
    c0 = 2 * b + 2 * c - 2 if tau > 1 else 0
    return _FoldKernel(n0, c0, b + c + 4 * tau - 2, a * b)


@dataclass(frozen=True, eq=False)
class InterferencePmf:
    """Pmf of the aggregate overlap (symbols) a tagged copy suffers.

    ``dp_count`` is how many independent disturbers the pmf accounts for,
    so full support is 0..dp_count*burst_len. When ``truncated_at`` is set,
    ``probs`` holds only indices 0..truncated_at and the upper tail is
    dropped; every retained entry still equals its untruncated value.
    ``probs`` is a read-only copy of the array it was built from.
    """

    config: SystemConfig
    dp_count: int
    probs: np.ndarray
    truncated_at: int | None = None

    def __post_init__(self) -> None:
        probs = np.array(self.probs, dtype=float)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        if self.dp_count < 0:
            raise InvalidParameterError(f"dp_count must be >= 0, got {self.dp_count}")
        if probs.ndim != 1:
            raise InvalidParameterError("probs must be one-dimensional")
        # NaN compares False against every bound below, so it is refused here
        if not np.isfinite(probs).all():
            raise InvalidParameterError("pmf entries must be finite")
        if (probs < 0.0).any():
            raise InvalidParameterError("pmf entries must be nonnegative")
        full_support = self.dp_count * self.config.burst_len
        if self.truncated_at is None:
            if probs.shape[0] != full_support + 1:
                raise InvalidParameterError(
                    f"untruncated pmf needs {full_support + 1} entries, "
                    f"got {probs.shape[0]}"
                )
            total = float(np.add.reduce(probs))
            if abs(total - 1.0) > _SUM_TOL:
                raise InvalidParameterError(f"pmf sums to {total}, expected 1")
        else:
            if not 0 <= self.truncated_at < full_support:
                raise InvalidParameterError(
                    f"truncated_at must be in [0, {full_support}), "
                    f"got {self.truncated_at}"
                )
            if probs.shape[0] != self.truncated_at + 1:
                raise InvalidParameterError(
                    f"truncated pmf needs {self.truncated_at + 1} entries, "
                    f"got {probs.shape[0]}"
                )
            if float(np.add.reduce(probs)) > 1.0 + _SUM_TOL:
                raise InvalidParameterError("truncated pmf mass exceeds 1")

    @property
    def support_len(self) -> int:
        return self.probs.shape[0]


def delta_pmf(config: SystemConfig) -> InterferencePmf:
    """Zero disturbers: all mass on zero overlap."""
    return InterferencePmf(config, 0, np.ones(1))


def single_dp_pmf(config: SystemConfig) -> InterferencePmf:
    """Aggregate-overlap pmf one disturbing packet inflicts on a tagged copy.

    It is the first step of the disturber fold: the exact counts over A*B,
    each divided once, so every entry is correctly rounded.
    """
    return interference_distribution(config, 1)


class EventSplit(NamedTuple):
    """One value per first-copy event class."""

    full_overlap: float | Fraction
    partial_overlap: float | Fraction
    distant: float | Fraction
    near_miss: float | Fraction


def first_copy_event_probabilities(config: SystemConfig) -> EventSplit:
    """Closed-form probability of each first-copy event class, as exact
    fractions over A; the four sum to 1 identically."""
    _require_analytic(config)
    tau = config.burst_len
    a, _, c = _event_space(config.frame_len, tau)
    return EventSplit(
        full_overlap=Fraction(1, a),
        partial_overlap=Fraction(2 * (tau - 1), a),
        distant=Fraction(c, a),
        near_miss=Fraction(2 * tau, a),
    )


def pmf_mass_by_first_event(config: SystemConfig) -> EventSplit:
    """Single-disturber pmf mass grouped by first-copy event class.

    Summing each group's counts must reproduce first_copy_event_probabilities:
    conditioned on its first-copy event, the disturber's second copy always
    lands somewhere admissible, so no mass leaks between groups.
    """
    _require_analytic(config)
    counts = _numerators_by_first_event(config.frame_len, config.burst_len)
    a, b, _ = _event_space(config.frame_len, config.burst_len)
    return EventSplit(*(int(group.sum()) / (a * b) for group in counts))


class FullOverlapBreakdown(NamedTuple):
    """The three disjoint routes to a completely interfered copy."""

    first_copy_full: float
    second_copy_full: float
    paired_partials: float


def full_overlap_breakdown(config: SystemConfig) -> FullOverlapBreakdown:
    """Split of the total-overlap probability by which copy (or pair) did it.

    The first two routes are symmetric: conditioning costs the first copy
    a factor B/A of freedom that the second copy's placement count restores.
    """
    _require_analytic(config)
    tau = config.burst_len
    a, b, c = _event_space(config.frame_len, tau)
    den = a * b
    return FullOverlapBreakdown(
        first_copy_full=b / den,
        second_copy_full=(c + 2 * tau) / den,
        paired_partials=2 * (tau - 1) / den,
    )


def _conv_prefix(a: np.ndarray, b: np.ndarray, out_len: int) -> np.ndarray:
    """First ``out_len`` entries of the discrete convolution of a and b.

    One vector step per tap of ``b``, in ascending tap order:
    ``out[j:j+n] += a[:n] * b[j]``. Each output entry therefore accumulates
    its terms in one fixed order that depends on neither ``out_len`` nor
    ``len(a)``, so a truncated run reproduces the matching prefix of an
    untruncated run bit for bit. The operands are never swapped by length
    (np.convolve does, which changes the float summation order); the cost
    is one numpy call per tap of ``b``, so the short operand goes second.
    """
    out = np.zeros(out_len)
    for j in range(min(b.shape[0], out_len)):
        n = min(a.shape[0], out_len - j)
        out[j : j + n] += a[:n] * b[j]
    return out


def convolve(
    a: InterferencePmf, b: InterferencePmf, trunc_len: int | None = None
) -> InterferencePmf:
    """Pmf of the summed overlap from the disturbers of ``a`` and ``b``.

    ``trunc_len`` caps the result support at that overlap value. A prefix of
    a convolution depends only on the operand prefixes, so every retained
    entry equals the untruncated value exactly; mass above the cap is
    dropped, not redistributed. It costs one numpy call per support entry
    of ``b``, so pass the shorter pmf (typically ``single_dp_pmf``) second.
    """
    if a.config != b.config:
        raise ConfigError("cannot convolve pmfs built for different configs")
    if trunc_len is not None and trunc_len < 0:
        raise InvalidParameterError(f"trunc_len must be >= 0, got {trunc_len}")
    config = a.config
    dp_count = a.dp_count + b.dp_count
    full_support = dp_count * config.burst_len
    limit = full_support
    for cap in (a.truncated_at, b.truncated_at, trunc_len):
        if cap is not None and cap < limit:
            limit = cap
    out = _conv_prefix(a.probs, b.probs, limit + 1)
    return InterferencePmf(
        config, dp_count, out, None if limit == full_support else limit
    )


def _fold_step(
    acc: np.ndarray, kernel: _FoldKernel, tau: int, out_len: int
) -> np.ndarray:
    """First ``out_len`` entries of ``acc`` convolved with the single-disturber
    pmf, in O(out_len + tau), for a step whose output spans more than one
    block row (``out_len > tau - 1``).

    out[k] = (n0 acc[k] + n_tau acc[k-tau] + c0 W0[k] + 6 R[k]) / den, with
    W0[k] = sum acc[k-x] and R[k] = sum x acc[k-x] over x = 1..tau-1. Both
    window sums come from cumsums inside blocks of width w = tau - 1
    aligned at index 0 (van Herk / Gil-Werman): a window is a suffix of one
    block plus a prefix of the next. Every term is nonnegative and nothing
    is subtracted, so tails far below the head keep their relative
    accuracy; each entry reads only acc[k-tau..k] in a fixed order, so a
    truncated fold is a bitwise prefix of the full one. The numerator is
    built in count space and divided once, so folding into the delta
    reproduces the single-disturber pmf exactly.

    Every untruncated step and every step of a fold truncated at tau - 1
    or above spans two rows or more. Folds truncated below tau - 1 never
    call it: _fold runs those as one loop.
    """
    n0, c0, n_tau, den = kernel
    m = acc.shape[0]
    num = np.zeros(out_len)
    num[:m] = n0 * acc
    if out_len > tau:
        num[tau:] += n_tau * acc[: out_len - tau]
    w = tau - 1
    if w:
        # Row q holds acc[qw .. qw+w-1] behind a zero column. With
        # B = k // w and j = k % w, window k is row B up to column j
        # (x runs j + 1 - column) and, for B >= 1, row B - 1 from column
        # j + 1 on (x runs w + 1 - column + j).
        rows = (out_len - 1) // w + 1
        flat = np.zeros(rows * w)
        flat[:m] = acc
        blocks = np.zeros((rows, w + 1))
        blocks[:, 1:] = flat.reshape(rows, w)
        # np.add.accumulate: np.cumsum's loop, same bits, one dispatch less
        pre = np.add.accumulate(blocks, axis=1)  # columns <= c
        # columns <= c, times c + 1 - column
        pre_x = np.add.accumulate(pre, axis=1)
        head = blocks[:-1, ::-1]  # reversed, so column w - h is at h
        suf = np.add.accumulate(head, axis=1)[:, -2::-1]  # columns > c
        # columns > c, times w + 1 - column
        suf_x = np.add.accumulate(head * np.arange(1, w + 2), axis=1)[:, -2::-1]
        w0 = pre[:, :w].copy()
        w0[1:] += suf
        r = pre_x[:, :w].copy()
        r[1:] += suf_x + np.arange(w) * suf
        num += (c0 * w0 + 6 * r).ravel()[:out_len]
    return num / den


def _fold(
    config: SystemConfig, n_dp: int, trunc_len: int | None
) -> Iterator[np.ndarray]:
    """The disturber fold: yields the probs for 1..n_dp disturbers, each
    truncated at ``trunc_len`` when it is set. Every yielded array is
    fresh; the fold never writes into one it has yielded.

    A fold truncated below tau - 1 (every benchmark geometry: budget 450
    at tau 500, 900 at tau 1000) runs as one loop. Each of its steps has
    trunc_len + 1 entries, so all windows lie in the one block row that
    starts at index 0: W0 and R are the shifted prefix sums ``pre`` and
    ``pre_x``, and n_tau never reaches the output. ``acc`` is kept
    zero-padded to that length from the delta on, the prefix sums and one
    product term reuse their buffers across steps, and each call goes
    straight to a ufunc, so a step costs eight ufunc calls and one
    allocation, the array it yields: 7-11 us at 451 entries on a 2-core
    x86 host. The sum is ``(c0 pre + 6 pre_x) + n0 acc`` with one
    division, the terms and order of _fold_step's sum, and the padding
    adds exact zeros, so every entry equals the matching entry of an
    untruncated fold bit for bit. Every other fold calls _fold_step once
    per disturber.
    """
    _require_analytic(config)
    tau = config.burst_len
    kernel = _fold_kernel(config.frame_len, tau)
    if trunc_len is not None and trunc_len <= tau - 2:
        # exact as floats (below 2**53); numpy would convert them per call
        n0, c0, den = float(kernel.n0), float(kernel.c0), float(kernel.den)
        size = trunc_len + 1
        acc = np.zeros(size)
        acc[0] = 1.0
        # sums[k] = sum acc[:k]; sums[0] stays 0 and pre drops the full sum
        sums = np.zeros(size + 1)
        pre, sums_tail = sums[:-1], sums[1:]
        pre_x = np.empty(size)
        term = np.empty(size)
        # ufuncs called directly: the cumsum method and the in-place
        # operators run the same loops behind one more Python-level dispatch
        accumulate, add, multiply, divide = (
            np.add.accumulate, np.add, np.multiply, np.divide
        )
        for _ in range(n_dp):
            accumulate(acc, out=sums_tail)
            accumulate(pre, out=pre_x)
            out = multiply(pre, c0)
            add(out, multiply(pre_x, 6.0, out=term), out=out)
            add(out, multiply(acc, n0, out=term), out=out)
            divide(out, den, out=out)
            acc = out
            yield out
        return
    acc = np.ones(1)
    for n in range(1, n_dp + 1):
        limit = n * tau if trunc_len is None else min(n * tau, trunc_len)
        acc = _fold_step(acc, kernel, tau, limit + 1)
        yield acc


def _require_fold_bound(n_dp: int) -> None:
    if n_dp > MAX_FOLD_STEPS:
        raise WorkBoundError(
            f"{n_dp} disturbers need {n_dp} fold steps, over the bound of "
            f"{MAX_FOLD_STEPS} fold steps"
        )


def interference_distribution(
    config: SystemConfig, n_dp: int, trunc_len: int | None = None
) -> InterferencePmf:
    """Overlap pmf from ``n_dp`` independent disturbers.

    Left fold of the single-disturber pmf, the same fold analytic_curve
    runs, at O(support) per disturber: the kernel is affine in the overlap,
    so each step needs only two sliding window sums. With ``trunc_len`` set,
    every intermediate is truncated as well, so the cost per disturber is
    O(trunc_len) however large n_dp * burst_len grows; every retained entry
    equals its untruncated value bit for bit. More than MAX_FOLD_STEPS
    disturbers raise WorkBoundError before the first step.
    """
    if n_dp < 0:
        raise InvalidParameterError(f"n_dp must be >= 0, got {n_dp}")
    if trunc_len is not None and trunc_len < 0:
        raise InvalidParameterError(f"trunc_len must be >= 0, got {trunc_len}")
    _require_fold_bound(n_dp)
    if n_dp == 0:
        return delta_pmf(config)
    for probs in _fold(config, n_dp, trunc_len):
        pass
    limit = probs.shape[0] - 1
    full_support = n_dp * config.burst_len
    return InterferencePmf(
        config, n_dp, probs, None if limit == full_support else limit
    )


def p_copy_decoded(pmf: InterferencePmf, budget: DecodeBudget) -> float:
    """Probability one tagged copy decodes: overlap cdf at the budget,
    exactly 1 when the budget covers the whole support, dp_count *
    burst_len. A pmf truncated below the budget is refused first, so a
    truncated pmf never reaches that rule."""
    if not budget.decodable:
        return 0.0
    x_dec = budget.max_interference
    if pmf.truncated_at is not None and pmf.truncated_at < x_dec:
        raise InsufficientSupportError(
            f"pmf truncated at {pmf.truncated_at} cannot answer a cdf query "
            f"at {x_dec}"
        )
    if pmf.dp_count * pmf.config.burst_len <= x_dec:
        # the whole support decodes; the summed pmf would be 1 +- a few ulp
        return 1.0
    return float(np.add.reduce(pmf.probs[:x_dec + 1]))


def p_packet_decoded(p_ccd: float) -> float:
    """Probability at least one of a packet's two copies decodes.

    Copy failures are treated as independent, which the overlap model makes
    exact at the per-copy marginal level.
    """
    if not 0.0 <= p_ccd <= 1.0:
        raise InvalidParameterError(f"p_ccd must be in [0, 1], got {p_ccd}")
    return 1.0 - (1.0 - p_ccd) ** 2


def n_tx_for_load(config: SystemConfig, load: float) -> int:
    """Transmitter count giving normalized load ``load``.

    Ties round half away from zero so the analytic and simulated paths agree
    on the same packet count at every grid value. It is the one check of
    the load domain: a load that is not finite and >= 0, or whose packet
    count overflows a float, is refused.
    """
    if not (math.isfinite(load) and load >= 0.0):
        raise InvalidParameterError(f"load must be finite and >= 0, got {load}")
    packets = load * config.frame_len / config.burst_len + 0.5
    if not math.isfinite(packets):
        raise InvalidParameterError(
            f"load {load} puts more packets in a frame than a float can count"
        )
    return int(math.floor(packets))


@dataclass(frozen=True)
class CurvePoint:
    """Analytic operating point at one load."""

    load: float
    n_tx: int
    p_ccd: float
    plr: float
    throughput: float


def analytic_curve(
    config: SystemConfig, link: LinkModel, loads: Sequence[float]
) -> list[CurvePoint]:
    """Packet loss ratio and throughput at each load.

    A disturber count n whose whole support the budget covers (n *
    burst_len <= budget, zero disturbers included) decodes with
    probability exactly 1 and is not folded. The other counts come from
    one fold up to the largest of them, sampled along the way, by the same
    fold as interference_distribution, so every point equals the per-load
    fold exactly. Intermediates are truncated at the decode budget, which
    the loss probability only ever reads the cdf up to, so each disturber
    costs O(budget) and a row's sum is its cdf at the budget. A link that
    cannot decode loses every copy and runs no fold. An empty frame loses
    nothing, so n_tx = 0 reports plr 0 (and p_ccd 1 to keep the packet
    identity).

    Refusal order: the geometry (_require_analytic), then every load
    through n_tx_for_load, then the largest load's n_tx - 1 against
    MAX_FOLD_STEPS (WorkBoundError), all before any fold step.
    """
    _require_analytic(config)
    n_by_load = [n_tx_for_load(config, g) for g in loads]
    # the largest load needs the most steps; refuse it before any step
    _require_fold_bound(max(n_by_load, default=0) - 1)

    # p_ccd by disturber count; none on a link that cannot decode
    budget = link.budget
    p_ccd_at = {}
    if budget.decodable:
        x_dec = budget.max_interference
        needed = {n - 1 for n in n_by_load if n >= 1}
        p_ccd_at = {n: 1.0 for n in needed if n * config.burst_len <= x_dec}
        folded = needed - p_ccd_at.keys()
        fold = _fold(config, max(folded, default=0), x_dec)
        for n_dp, probs in enumerate(fold, start=1):
            if n_dp in folded:
                p_ccd_at[n_dp] = float(np.add.reduce(probs))

    points = []
    for g, n in zip(loads, n_by_load):
        if n == 0:
            points.append(CurvePoint(g, 0, 1.0, 0.0, 0.0))
            continue
        p_ccd = p_ccd_at.get(n - 1, 0.0)
        plr = (1.0 - p_ccd) ** 2
        points.append(CurvePoint(g, n, p_ccd, plr, g * (1.0 - plr)))
    return points
