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
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .config import SystemConfig
from .errors import (
    ConfigError,
    InsufficientSupportError,
    InvalidParameterError,
    WorkBoundError,
    as_int,
    short_int,
)
from .link import DecodeBudget, LinkModel

_SUM_TOL = 1e-9
_EXACT_INT_LIMIT = 2**53

# Work bound: a fold of more disturbers than this is refused before its
# first step. It counts steps, not entries: at small budgets a step's cost
# is numpy call overhead (10-13 us at tau 2 on a 2-core host), so 2**16
# steps take about a second; the paper's grids need at most a few hundred.
MAX_FOLD_STEPS = 1 << 16


def _require_analytic(config: SystemConfig) -> None:
    """The counting model is specific to two copies, needs room for every
    event class to have a nonnegative count, and keeps every count and the
    denominator A*B exact in a float."""
    if config.copies != 2:
        raise ConfigError(
            "interference model is defined for 2 copies per packet, got "
            f"{short_int(config.copies)}"
        )
    if config.frame_len < 5 * config.burst_len - 2:
        raise ConfigError(
            f"frame_len ({short_int(config.frame_len)}) must be >= 5*burst_len "
            f"- 2 ({short_int(5 * config.burst_len - 2)}) for the interference model"
        )
    a, b, _ = _event_space(config.frame_len, config.burst_len)
    if a * b >= _EXACT_INT_LIMIT:
        raise ConfigError(
            f"frame_len ({short_int(config.frame_len)}) gives {short_int(a * b)} "
            "placements, beyond the 2**53 the interference model counts exactly"
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
    an int of at least 0 stored as the int it equals, so full support is
    0..dp_count*burst_len. The truncation is the length: ``probs`` with
    fewer than dp_count*burst_len + 1 entries holds only indices
    0..truncated_at and the upper tail is dropped; every retained entry
    still equals its untruncated value, and the retained mass is at most 1.
    ``probs`` is a read-only copy of the array it was built from.
    """

    config: SystemConfig
    dp_count: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.array(self.probs, dtype=float)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "dp_count", as_int(self.dp_count, "dp_count", 0))
        if probs.ndim != 1:
            raise InvalidParameterError("probs must be one-dimensional")
        # NaN compares False against every bound below, so it is refused here
        if not np.isfinite(probs).all():
            raise InvalidParameterError("pmf entries must be finite")
        if (probs < 0.0).any():
            raise InvalidParameterError("pmf entries must be nonnegative")
        full_len = self.dp_count * self.config.burst_len + 1
        if not 1 <= probs.shape[0] <= full_len:
            raise InvalidParameterError(
                f"pmf needs 1 to {full_len} entries, got {probs.shape[0]}"
            )
        total = float(np.add.reduce(probs))
        low = 1.0 - _SUM_TOL if self.truncated_at is None else 0.0
        if not low <= total <= 1.0 + _SUM_TOL:
            raise InvalidParameterError(
                f"pmf of {probs.shape[0]} entries sums to {total}, expected "
                f"{'1' if low else 'at most 1'}"
            )

    @property
    def support_len(self) -> int:
        return self.probs.shape[0]

    @property
    def truncated_at(self) -> int | None:
        """The last overlap ``probs`` holds, or None when it holds them all."""
        top = self.probs.shape[0] - 1
        return None if top == self.dp_count * self.config.burst_len else top


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

    ``trunc_len`` caps the result support at that overlap value, and so does
    each operand's own truncation; the result holds entries up to the
    lowest cap, so its length is its truncation. A prefix of a convolution
    depends only on the operand prefixes, so every retained entry equals
    the untruncated value exactly; mass above the cap is dropped, not
    redistributed. It costs one numpy call per support entry of ``b``, so
    pass the shorter pmf (typically ``single_dp_pmf``) second.
    """
    if a.config != b.config:
        raise ConfigError("cannot convolve pmfs built for different configs")
    if trunc_len is not None:
        trunc_len = as_int(trunc_len, "trunc_len", 0)
    dp_count = a.dp_count + b.dp_count
    caps = (dp_count * a.config.burst_len, a.truncated_at, b.truncated_at, trunc_len)
    limit = min(cap for cap in caps if cap is not None)
    out = _conv_prefix(a.probs, b.probs, limit + 1)
    return InterferencePmf(a.config, dp_count, out)


def _fold(
    config: SystemConfig, n_dp: int, trunc_len: int | None
) -> Iterator[np.ndarray]:
    """The disturber fold: yields the probs for 1..n_dp disturbers, each
    truncated at ``trunc_len`` when it is set, at O(support + tau) per
    disturber. Every yielded array is fresh; the fold never writes into
    one it has yielded.

    A step is out[k] = (c0 W0[k] + 6 R[k] + n0 acc[k] + n_tau acc[k-tau])
    / den, with W0[k] = sum acc[k-x] and R[k] = sum x acc[k-x] over x =
    1..tau-1. ``acc`` is held zero-padded in block rows of w = tau - 1
    entries aligned at index 0. Window k = Bw + j is row B up to column j,
    read off the prefix sums ``pre`` and ``pre_x``, plus from row 1 on the
    suffix of row B - 1 from column j (van Herk / Gil-Werman). The suffix
    term runs only when a step spans more than one row (and tau > 1), the
    n_tau term only when the support passes tau. A fold that never leaves
    row 0 (truncated below tau - 1: every benchmark geometry) is one row
    of its own length, trunc_len + 1. The buffers are rebuilt only while
    the support grows, the first ceil(top / tau) steps (top is trunc_len,
    or n_dp * tau untruncated), and each call goes straight to a ufunc
    with array operands only, so a one-row step costs eight ufunc calls
    and one allocation, the array it yields: 6-7 us at 451 entries on a
    2-core x86 host. A step over several rows adds seven calls for the
    suffix term, two for the n_tau term and the zeroing of its padding.

    Bits: the numerator is summed in count space as (c0 W0 + 6 R) + (n0
    acc + n_tau acc[k-tau]) and divided once, so folding into the delta
    gives the single-disturber pmf correctly rounded. Every term is
    nonnegative and nothing is subtracted, so tails far below the head
    keep their relative accuracy. Each entry reads only acc[k-tau..k], in
    an order fixed by k and tau, and the padding adds exact zeros, so a
    truncated fold is a bitwise prefix of the untruncated one.
    """
    _require_analytic(config)
    tau = config.burst_len
    w = tau - 1
    # 0-d float64 arrays, exact below 2**53, as decode_frame's budget is:
    # numpy takes such an operand as it is, but converts a Python float on
    # every ufunc call
    kernel = (*_fold_kernel(config.frame_len, tau), 6)
    n0, c0, n_tau, den, six = (np.array(float(v)) for v in kernel)
    top = n_dp * tau if trunc_len is None else trunc_len
    # j and w - c by column, for the suffix part of R
    x_at, x_up = np.arange(float(w)), np.arange(1.0, tau)
    # ufuncs called directly, ``out`` by position: the cumsum method, the
    # in-place operators and the keyword run the same loops behind more
    # Python-level work
    accumulate, add, multiply, divide = np.add.accumulate, np.add, np.multiply, np.divide
    # the support grows, and acc is laid out again, in the first steps only
    grows = max(1, -(-top // tau))
    size, flat = 1, np.ones(1)
    for n in range(n_dp):
        if n < grows:
            size = min(size + tau, top + 1)
            width = size if size <= w else max(w, 1)
            rows = -(-size // width)
            shape = (rows, width) if rows > 1 else (size,)
            flat = np.concatenate((flat, np.zeros(rows * width - flat.shape[0])))
            acc = flat.reshape(shape)
            # sums[..., c] = sum of a row's columns < c; column 0 stays 0
            sums = np.zeros((*shape[:-1], width + 1))
            pre, tail = sums[..., :-1], sums[..., 1:]
            pre_x, term, w0 = np.empty(shape), np.empty(shape), pre
            shift = term.reshape(-1)[tau:size]
            if rows > 1 and w:
                # suffix sums of the row before, reversed; row 0 has none
                w0, suf, suf_x = np.empty(shape), np.zeros(shape), np.zeros(shape)
        accumulate(acc, -1, None, tail)
        accumulate(pre, -1, None, pre_x)
        multiply(acc, n0, term)
        if rows > 1:
            if size > tau:
                add(shift, multiply(flat[: size - tau], n_tau), shift)
            if w:
                # column c of row B - 1 is x = (w - c) + j back from k = Bw
                # + j; w0 is scratch until it takes W0
                head = acc[:-1, ::-1]
                accumulate(head, -1, None, suf[1:])
                accumulate(multiply(head, x_up, w0[1:]), -1, None, suf_x[1:])
                suf_f = suf[:, ::-1]
                add(suf_x[:, ::-1], multiply(suf_f, x_at, w0), w0)
                add(pre_x, w0, pre_x)
                add(pre, suf_f, w0)
        out = multiply(w0, c0)
        add(out, multiply(pre_x, six, pre_x), out)
        add(out, term, out)
        divide(out, den, out)
        acc = flat = out
        if rows > 1:
            flat = out.reshape(-1)
            flat[size:] = 0.0
            out = flat[:size]
        yield out


def _require_fold_bound(n_dp: int) -> None:
    if n_dp > MAX_FOLD_STEPS:
        raise WorkBoundError(
            f"{short_int(n_dp)} disturbers need {short_int(n_dp)} fold steps, "
            f"over the bound of {MAX_FOLD_STEPS} fold steps"
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
    equals its untruncated value bit for bit. The result holds
    min(trunc_len, n_dp * burst_len) + 1 entries, so a trunc_len at or past
    the full support gives the untruncated pmf. More than MAX_FOLD_STEPS
    disturbers raise WorkBoundError before the first step, and an n_dp or
    trunc_len that is not an int, or is negative, raises
    InvalidParameterError.
    """
    n_dp = as_int(n_dp, "n_dp", 0)
    if trunc_len is not None:
        trunc_len = as_int(trunc_len, "trunc_len", 0)
    _require_fold_bound(n_dp)
    if n_dp == 0:
        return delta_pmf(config)
    for probs in _fold(config, n_dp, trunc_len):
        pass
    return InterferencePmf(config, n_dp, probs)


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
    config: SystemConfig, link: LinkModel, loads: Iterable[float]
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
    identity). ``loads`` is read once, as a tuple, so any iterable serves.

    Refusal order: the geometry (_require_analytic), then every load
    through n_tx_for_load, then the largest load's n_tx - 1 against
    MAX_FOLD_STEPS (WorkBoundError), all before any fold step.
    """
    loads = tuple(loads)
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
