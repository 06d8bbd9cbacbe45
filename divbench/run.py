"""divaloha benchmark: four workloads across the analytic fold and the
per-frame simulator, end to end and per layer.

Run from the repository root:

    python3 divbench/run.py --workload compare-r100 --seed 1 --seconds 20 --trace 0

The benchmark drives divaloha from outside, through its public functions,
with the sources under ``src/``; it changes nothing in the library.

``--trace 0`` measures the end-to-end metrics with nothing wrapped:

- ``wall_rel``: median over warm in-process runs of the workload's command
  (through ``divaloha.harness.main``, from argv to rendered output) of the
  run's wall time divided by the mean time of ``reference_work`` measured
  just before and just after it. The raw median wall time is printed as
  ``wall_s`` but not gated: on a shared host it drifts with the machine's
  speed far more than the ratio does (divbench/noise.json records both
  spreads side by side).
- ``setup_s``: median over fresh interpreters of importing divaloha, parsing
  the spec, building the LinkModel and, for workloads that run the analytic
  model, the first cold ``single_dp_pmf`` call.
- ``peak_rss_mib``: peak RSS of a fresh process that runs the command once.

``--trace 1`` is a separate run for the per-layer metrics (PER_LAYER). It
wraps the calls into each layer in spans while it runs the command, times
each layer's public functions at the workload's geometry, and rebuilds both
chains from those functions to cross-check them against the library's own
results, so a per-layer number never measures code that is off the hot path.
The simulator's per-call times come from spans around the four per-frame
calls inside ``estimate_point``'s own loop, so they and ``frame_us`` cover the
same frames; ``loop_overhead_us`` is the rest, the spans' own cost included.

Every output row is checked: analytic rows against reference.json (rows made
at the commit that added the benchmark) to 1e-12, simulated rows with
``harness.row_passes`` under the policy ``resolve_policy`` picks, against the
same references. ``attempted`` counts checked rows and cross-checks,
``failed`` those that failed; error_rate = failed / attempted. The last line
of stdout is the JSON result; the lines before it give the run context and
every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import glob
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Link and process settings shared by every workload. At --mod 4 --rate 0.5
# --snr-db 10 the interference budget is 900 symbols at tau=1000 and 450 at
# tau=500. One worker: with 2 cores a process pool has no scaling to show.
COMMON = ["--mod", "4", "--rate", "0.5", "--snr-db", "10", "--copies", "2", "--workers", "1"]
LOADS = "0.1:1.5:0.1"

ANALYTIC_TOL = 1e-12
P_CCD_TOL = 1e-13


@dataclass(frozen=True)
class Workload:
    """One divaloha command. ``rounds`` is frames per load for every sweep
    made at this geometry: the command's own for simulate/compare, and for
    ``analytic`` the traced run's sweep that gives simulator.frames_per_s."""

    name: str
    mode: str
    tf: int
    tau: int
    rounds: int

    @property
    def geometry(self) -> str:
        return f"{self.tf}/{self.tau}"


# Rounds keep each command short (0.5-2 s on a 2-core Xeon) so a run holds
# many repetitions, but no shorter than the row checks need: at 400 rounds
# the tight policy's 0.02 floor on compare-r100 is about 5 sigma past the
# model's bias, and simulate-r20 keeps 1000 so the one-sided lower-bound
# check stays far from its 2-sigma edge at low loads.
WORKLOADS = {
    w.name: w
    for w in (
        # paper's headline regime; the only one that runs both chains
        Workload("compare-r100", "compare", 100000, 1000, 400),
        # fold-dominated, no simulator: a simulator change must read no change
        Workload("analytic-r400", "analytic", 200000, 500, 50),
        # tiny frames: per-call numpy overhead, worst placement redraws
        Workload("simulate-r20", "simulate", 20000, 1000, 1000),
        # big frames: sweep arithmetic, cache-sensitive batching
        Workload("simulate-r400", "simulate", 200000, 500, 150),
    )
}


@dataclass(frozen=True)
class Size:
    loads: str | None  # None: the full LOADS grid
    rounds: int | None  # None: the workload's own rounds
    probe_frames: int  # frames of the rebuilt simulator chain per round
    setup_reps: int  # fresh interpreters timed for setup_s per run


FULL = Size(None, None, 400, 9)
# --tiny: every code path at a few seconds a run, for the self-test
TINY = Size("0.1,0.5", 20, 20, 2)

# the calls simulator's per-frame loop makes, in order
PER_FRAME = ("frame_rng", "draw_frame", "per_copy_interference", "decode_frame")

END_TO_END = {"wall_rel": "x", "setup_s": "s", "peak_rss_mib": "MiB"}

# name: (unit, which end-to-end metric it should move, on which workloads)
PER_LAYER = {
    "analytic.fold_step_us": ("us", "wall_rel on analytic-r400 and compare-r100; not on simulate-*"),
    "analytic.interference_distribution_ms": ("ms", "as analytic.fold_step_us"),
    "analytic.curve_ms": ("ms", "as analytic.fold_step_us"),
    "analytic.convolve_us": ("us", "as analytic.fold_step_us"),
    "analytic.cdf_us": ("us", "as analytic.fold_step_us"),
    "analytic.single_dp_pmf_cold_ms": ("ms", "setup_s on analytic-r400 and compare-r100"),
    "analytic.fold_steps": ("count", "count: fold steps to the top load"),
    "analytic.support_len": ("count", "count: pmf entries kept by the truncated fold"),
    "simulator.frame_rng_us": ("us", "wall_rel on simulate-* and compare-r100; not on analytic-r400"),
    "simulator.draw_frame_us": ("us", "as simulator.frame_rng_us"),
    "simulator.sweep_us": ("us", "as simulator.frame_rng_us"),
    "simulator.decode_us": ("us", "as simulator.frame_rng_us"),
    "simulator.frame_us": ("us", "as simulator.frame_rng_us"),
    "simulator.loop_overhead_us": ("us", "simulator.frames_per_s; includes the four spans' own cost"),
    "simulator.frames_per_s": ("1/s", "wall_rel on simulate-* and compare-r100"),
    "simulator.frames": ("count", "count: frames of the rebuilt chain"),
    "simulator.copies_placed": ("count", "count"),
    "simulator.positions_drawn": ("count", "count"),
    "simulator.placement_accept_ratio": ("ratio", "simulator.draw_frame_us on simulate-r20"),
    "link.from_parameters_us": ("us", "setup_s"),
    "harness.parse_spec_us": ("us", "wall_rel and setup_s"),
    "harness.render_us": ("us", "wall_rel"),
    "harness.self_ms": ("ms", "wall_rel; build_rows minus analytic_curve minus sweep"),
    "trace.wall_s": ("s", "none: the traced command's median total"),
    "trace.overhead_ms": ("ms", "none: traced total minus untraced wall time"),
}


class BenchError(Exception):
    """The benchmark cannot run here."""


class Checks:
    """Tally of checked rows and cross-checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str, count: int = 1) -> bool:
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


class CountingGenerator:
    """Stands in for a numpy Generator: forwards every attribute and counts
    the values returned by each method call, whichever draw method it is."""

    def __init__(self, rng) -> None:
        self._rng = rng
        self.values = 0

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            out = attr(*args, **kwargs)
            if isinstance(out, (int, float, np.generic, np.ndarray)):
                self.values += int(np.size(out))
            return out

        return counted


class Tracer:
    """In-memory spans: [name, parent index, start, end]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            sid = len(self.spans)
            self.spans.append([name, parent, time.perf_counter(), None])
            self._stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[sid][3] = time.perf_counter()

        return traced

    def total(self, name: str) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[0] == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def names(self) -> set[str]:
        return {s[0] for s in self.spans}

    @contextlib.contextmanager
    def wrapping(self, targets):
        """Wrap each (module, function name) in spans, then restore. The
        library looks these names up in its module globals at call time, so
        its own calls go through the wrappers."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr in targets]
        try:
            for mod, attr, fn in saved:
                setattr(mod, attr, self.wrap(attr, fn))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every call the harness makes into a layer, then restore."""
        targets = [
            (harness, "parse_spec"),
            (harness, "build_rows"),
            (harness, "analytic_curve"),
            (harness, "sweep"),
            (simulator, "estimate_point"),
            (harness, "render_json"),
        ]
        link_orig = link.LinkModel.__dict__["from_parameters"]
        try:
            with self.wrapping(targets):
                link.LinkModel.from_parameters = classmethod(
                    self.wrap("from_parameters", link_orig.__func__)
                )
                yield self
        finally:
            link.LinkModel.from_parameters = link_orig


def load_divaloha() -> None:
    """Import divaloha from this checkout's sources, and nothing else."""
    global analytic, config, harness, link, simulator
    if not os.path.isfile(os.path.join(SRC, "divaloha", "__init__.py")):
        raise BenchError(f"no divaloha sources under {SRC}")
    sys.path.insert(0, SRC)
    from divaloha import analytic, config, harness, link, simulator

    where = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    if where != SRC:
        raise BenchError(f"imported divaloha from {where}, not {SRC}")


def command(w: Workload, seed: int, size: Size) -> list[str]:
    argv = [w.mode, "--tf", str(w.tf), "--tau", str(w.tau), *COMMON,
            "--loads", size.loads or LOADS, "--format", "json", "--seed", str(seed)]
    if w.mode != "analytic":
        argv += ["--rounds", str(size.rounds or w.rounds)]
    return argv


def references(w: Workload, loads) -> list[dict]:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        by_load = {r["G"]: r for r in json.load(fh)[w.geometry]}
    return [by_load[g] for g in loads]


def run_command(argv) -> tuple[float, int | None, str]:
    """One in-process run of the CLI; (seconds, exit code, stdout)."""
    buf = io.StringIO()
    gc.collect()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = harness.main(argv)
    return time.perf_counter() - t0, rc, buf.getvalue()


class OutputChecker:
    """Checks every row a command prints; an exception or a bad exit fails
    them all. Repeats of one command must print the same rows."""

    def __init__(self, w: Workload, spec, checks: Checks) -> None:
        self.w = w
        self.refs = references(w, spec.loads)
        self.policy = harness.resolve_policy(spec)
        self.checks = checks
        self.first_rows = None

    def run(self, argv) -> tuple[float | None, dict | None]:
        """Run the command once; (seconds, parsed output) or None for a part
        that is missing."""
        n = len(self.refs)
        try:
            elapsed, rc, text = run_command(argv)
            doc = json.loads(text)
            rows = doc["rows"]
        except Exception as exc:  # the program under test failed; record it
            self.checks.check(False, f"{self.w.name}: {type(exc).__name__}: {exc}", n)
            return None, None
        if not self.checks.check(rc == 0 and len(rows) == n, f"{self.w.name}: exit {rc}, {len(rows)} rows", n):
            return elapsed, None
        if self.first_rows is None:
            self.first_rows = rows
        for i, (row, ref) in enumerate(zip(rows, self.refs)):
            self.checks.check(self._row_ok(row, ref) and row == self.first_rows[i],
                              f"{self.w.name}: row G={ref['G']}: {row}")
        return elapsed, doc

    def _row_ok(self, row: dict, ref: dict) -> bool:
        try:
            ok = row["G"] == ref["G"] and row["n_tx"] == ref["n_tx"]
            if self.w.mode in ("analytic", "compare"):
                ok = ok and abs(row["plr_analytic"] - ref["plr"]) <= ANALYTIC_TOL
                ok = ok and abs(row["thr_analytic"] - ref["thr"]) <= ANALYTIC_TOL
            if self.w.mode in ("simulate", "compare"):
                judged = dict(row, plr_analytic=ref["plr"], thr_analytic=ref["thr"],
                              abs_diff=abs(ref["plr"] - row["plr_sim"]))
                ok = ok and harness.row_passes(judged, self.policy)
            if self.w.mode == "compare":
                ok = ok and row["pass"] is True
            return bool(ok)
        except (KeyError, TypeError):
            return False


def probe(kind: str, argv) -> dict:
    """Run probe.py in a fresh interpreter and return its JSON line."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), kind, *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=False,
    )
    if out.returncode != 0:
        raise BenchError(f"probe {kind} exited {out.returncode}: {out.stderr.strip()[-500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def setup_probes(argv, reps: int) -> list[dict]:
    probe("setup", argv)  # the first import may still write bytecode caches
    return [probe("setup", argv) for _ in range(reps)]


def reference_work() -> float:
    """Fixed work, independent of divaloha, timed next to every repetition of
    the command: the same kinds of call the program makes (Philox generators,
    small-array sorts and searches, windowed dot products, interpreter
    loops). On a shared host the speed of the machine drifts by tens of
    percent over tens of seconds; a command's time divided by this work's
    time, taken moments apart, drifts far less."""
    rng0 = np.random.Generator(np.random.Philox(key=7))
    a = rng0.random(901)
    b = rng0.random(1001)[::-1].copy()
    acc = 0.0
    for i in range(800):
        rng = np.random.Generator(np.random.Philox(key=i))
        x = rng.integers(0, 19001, size=60)
        s = x[np.argsort(x, kind="stable")]
        lo = np.searchsorted(s, s - 999)
        hi = np.searchsorted(s, s + 999, side="right")
        acc += float(np.cumsum(s)[-1]) + int((hi - lo).sum())
        for k in range(0, 901, 60):
            acc += float(np.add.reduce(a[: k + 1] * b[-(k + 1):]))
    return acc


def timed(fn) -> float:
    gc.collect()
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def untraced(w: Workload, seed: int, seconds: int, size: Size, checks: Checks) -> tuple[dict, dict]:
    argv = command(w, seed, size)
    rss = probe("rss", argv)  # first, as it may still write bytecode caches
    checks.check(rss["rc"] == 0, f"{w.name}: rss run exit {rss['rc']}")

    out = OutputChecker(w, harness.parse_spec(argv), checks)
    out.run(argv)  # warm-up: lazy caches fill, first rows are kept
    reference_work()
    times, ratios, setups = [], [], []
    reps = 0
    before = timed(reference_work)
    start = time.perf_counter()
    while reps < 3 or time.perf_counter() - start < seconds:
        reps += 1
        elapsed, _ = out.run(argv)
        after = timed(reference_work)
        if elapsed is not None:
            times.append(elapsed)
            ratios.append(2 * elapsed / (before + after))
        before = after
        # set-up probes spread evenly over the run, so that their median
        # samples the whole run's machine speed rather than one moment of it
        if len(setups) < size.setup_reps * (time.perf_counter() - start) / seconds:
            setups.append(probe("setup", argv))
    if not times:
        raise BenchError(f"{w.name}: no run of the command completed")
    with_pmf = w.mode != "simulate"
    setup_s = statistics.median(
        s["base_s"] + (s["single_dp_pmf_cold_s"] if with_pmf else 0.0) for s in setups
    )
    info = {
        "wall_s": (statistics.median(times), "s"),
        "repetitions": (len(times), "count"),
        "setup_probes": (len(setups), "count"),
    }
    return {
        "wall_rel": statistics.median(ratios),
        "setup_s": setup_s,
        "peak_rss_mib": rss["peak_rss_mib"],
    }, info


def per_call(fn, reps: int) -> float:
    t0 = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - t0) / reps


def layer_round(w: Workload, seed: int, size: Size, spec, rows, metadata, checks: Checks) -> dict:
    """Time every layer's public functions at this geometry once, rebuilding
    the analytic and simulator chains and cross-checking them."""
    argv = command(w, seed, size)
    config = spec.system_config()
    lm = spec.link_model()
    budget = lm.budget
    m = {}

    m["link.from_parameters_us"] = 1e6 * per_call(
        lambda: link.LinkModel.from_parameters(
            spec.modulation_order, spec.code_rate, spec.snr_db, spec.burst_len, spec.snir_dec_db
        ), 200)
    m["harness.parse_spec_us"] = 1e6 * per_call(lambda: harness.parse_spec(argv), 20)
    m["harness.render_us"] = 1e6 * per_call(lambda: harness.render_json(rows, metadata), 20)

    # analytic chain: the library's curve, then the same fold step by step
    t0 = time.perf_counter()
    points = analytic.analytic_curve(config, lm, spec.loads)
    m["analytic.curve_ms"] = 1e3 * (time.perf_counter() - t0)
    needed = {p.n_tx - 1 for p in points if p.n_tx >= 1}
    top = max(needed)
    single = analytic.single_dp_pmf(config)
    acc = analytic.delta_pmf(config)
    p_at = {0: analytic.p_copy_decoded(acc, budget)}
    conv_t, cdf_t = [], []
    for k in range(1, top + 1):
        t0 = time.perf_counter()
        acc = analytic.convolve(acc, single, budget.max_interference)
        conv_t.append(time.perf_counter() - t0)
        if k in needed:
            t0 = time.perf_counter()
            p_at[k] = analytic.p_copy_decoded(acc, budget)
            cdf_t.append(time.perf_counter() - t0)
    for p in points:
        if p.n_tx >= 1:
            checks.check(abs(p_at[p.n_tx - 1] - p.p_ccd) <= P_CCD_TOL,
                         f"{w.name}: rebuilt fold p_ccd at G={p.load}")
    t0 = time.perf_counter()
    folded = analytic.interference_distribution(config, top, budget.max_interference)
    dt = time.perf_counter() - t0
    checks.check(abs(analytic.p_copy_decoded(folded, budget) - p_at[top]) <= P_CCD_TOL,
                 f"{w.name}: interference_distribution p_ccd at {top} disturbers")
    m["analytic.interference_distribution_ms"] = 1e3 * dt
    m["analytic.fold_step_us"] = 1e6 * dt / top
    m["analytic.convolve_us"] = 1e6 * statistics.median(conv_t)
    m["analytic.cdf_us"] = 1e6 * statistics.median(cdf_t)
    m["analytic.fold_steps"] = top
    m["analytic.support_len"] = folded.support_len

    # simulator chain at the top load: estimate_point with spans around the
    # four per-frame calls its loop makes, so frame_us and its four parts
    # come from the same frames; then the same frames rebuilt from those
    # functions, untimed, to cross-check estimate_point's losses
    i_top = max(range(len(spec.loads)), key=lambda i: spec.loads[i])
    load = spec.loads[i_top]
    n_tx = analytic.n_tx_for_load(config, load)
    pseed = simulator.point_seed(seed, i_top)
    frames = size.probe_frames
    tracer = Tracer()
    gc.collect()
    with tracer.wrapping([(simulator, name) for name in PER_FRAME]):
        t0 = time.perf_counter()
        res = simulator.estimate_point(config, lm, load, frames, pseed)
        frame_s = (time.perf_counter() - t0) / frames
    for name in PER_FRAME:
        checks.check(tracer.count(name) == frames,
                     f"{w.name}: estimate_point made {tracer.count(name)} {name} calls for {frames} frames")
    lost = np.empty(frames, dtype=np.int64)
    starts = []
    for f in range(frames):
        frame = simulator.draw_frame(simulator.frame_rng(pseed, f), n_tx, config)
        interference = simulator.per_copy_interference(frame, config)
        lost[f] = simulator.decode_frame(interference, budget, config.copies)
        starts.append(frame.starts)
    checks.check(int(lost.sum()) == round(res.plr_mean * frames * n_tx),
                 f"{w.name}: rebuilt frames lose {int(lost.sum())} packets, estimate_point says plr {res.plr_mean}")
    stderr = float((lost / n_tx).std(ddof=1) / math.sqrt(frames))
    checks.check(abs(stderr - res.plr_stderr) <= 1e-12 * max(stderr, 1e-300) + 1e-300,
                 f"{w.name}: rebuilt frames stderr {stderr} != {res.plr_stderr}")

    drawn = placed = 0
    same = True
    for f in range(frames):
        counter = CountingGenerator(simulator.frame_rng(pseed, f))
        frame = simulator.draw_frame(counter, n_tx, config)
        drawn += counter.values
        placed += frame.starts.size
        same = same and np.array_equal(frame.starts, starts[f])
    checks.check(same, f"{w.name}: counting proxy changed the frames")

    calls = [1e6 * tracer.total(name) / frames for name in PER_FRAME]
    m["simulator.frame_rng_us"], m["simulator.draw_frame_us"], m["simulator.sweep_us"], m["simulator.decode_us"] = calls
    m["simulator.frame_us"] = 1e6 * frame_s
    m["simulator.loop_overhead_us"] = 1e6 * frame_s - sum(calls)
    m["simulator.frames"] = frames
    m["simulator.copies_placed"] = placed
    m["simulator.positions_drawn"] = drawn
    m["simulator.placement_accept_ratio"] = placed / drawn

    if w.mode == "analytic":
        # the command does not simulate; sweep this geometry's grid instead
        n = size.rounds or w.rounds
        t0 = time.perf_counter()
        simulator.sweep(config, lm, spec.loads, n, seed)
        m["simulator.frames_per_s"] = n * len(spec.loads) / (time.perf_counter() - t0)
    return m


def traced(w: Workload, seed: int, seconds: int, size: Size, checks: Checks) -> tuple[dict, dict]:
    argv = command(w, seed, size)
    spec = harness.parse_spec(argv)
    setups = setup_probes(argv, size.setup_reps)
    cold_ms = 1e3 * statistics.median(s["single_dp_pmf_cold_s"] for s in setups)

    out = OutputChecker(w, spec, checks)
    _, doc = out.run(argv)  # warm-up
    expected = {"parse_spec", "build_rows", "render_json", "from_parameters"}
    if w.mode != "simulate":
        expected.add("analytic_curve")
    if w.mode != "analytic":
        expected |= {"sweep", "estimate_point"}

    # alternate untraced and traced runs of the command for the overhead
    plain, totals, self_s, fps = [], [], [], []
    pairs = 0
    start = time.perf_counter()
    while pairs < 2 or time.perf_counter() - start < 0.4 * seconds:
        pairs += 1
        untraced_s, _ = out.run(argv)
        tracer = Tracer()
        with tracer.installed():
            elapsed, _ = out.run(argv)
        if elapsed is None or untraced_s is None:
            continue
        plain.append(untraced_s)
        missing = expected - tracer.names()
        checks.check(not missing, f"{w.name}: layer calls not on the command's path: {sorted(missing)}")
        totals.append(elapsed)
        self_s.append(tracer.total("build_rows") - tracer.total("analytic_curve") - tracer.total("sweep"))
        if w.mode != "analytic":
            fps.append(len(spec.loads) * (size.rounds or w.rounds) / tracer.total("sweep"))
    if not (totals and doc):
        raise BenchError(f"{w.name}: no run of the command completed")

    rounds_m = []
    round_s = 0.0
    while not rounds_m or time.perf_counter() - start + round_s < seconds:
        t0 = time.perf_counter()
        rounds_m.append(layer_round(w, seed, size, spec, doc["rows"], doc["metadata"], checks))
        round_s = time.perf_counter() - t0
    m = {
        k: (statistics.median_low if PER_LAYER[k][0] == "count" else statistics.median)(r[k] for r in rounds_m)
        for k in rounds_m[0]
    }
    m["analytic.single_dp_pmf_cold_ms"] = cold_ms
    m["harness.self_ms"] = 1e3 * statistics.median(self_s)
    if fps:
        m["simulator.frames_per_s"] = statistics.median(fps)
    m["trace.wall_s"] = statistics.median(totals)
    m["trace.overhead_ms"] = 1e3 * statistics.median(t - p for t, p in zip(totals, plain))
    return m, {"command_pairs": (len(totals), "count"), "layer_rounds": (len(rounds_m), "count")}


def run_context(seed: int) -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    caches = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(d, "level")) as lv, open(os.path.join(d, "type")) as ty, \
                    open(os.path.join(d, "size")) as sz:
                level, kind, value = lv.read().strip(), ty.read().strip(), sz.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = value
    copies = {
        w.name: 2 * analytic.n_tx_for_load(config.SystemConfig(w.tf, w.tau), 1.5)
        for w in WORKLOADS.values()
    }
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "copies_per_frame_at_G1.5": copies,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="divaloha benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="smallest sizes, for the self-test")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    try:
        load_divaloha()
        w = WORKLOADS[args.workload]
        size = TINY if args.tiny else FULL
        checks = Checks()
        if args.trace:
            values, info = traced(w, args.seed, args.seconds, size, checks)
            units = {k: u for k, (u, _) in PER_LAYER.items()}
        else:
            values, info = untraced(w, args.seed, args.seconds, size, checks)
            units = END_TO_END
        context = run_context(args.seed)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"divbench: {exc}", file=sys.stderr)
        return 2

    print("context " + json.dumps(context, sort_keys=True))
    for note in checks.notes:
        print(f"FAILED {note}")
    for name in units:
        print(f"{w.name} {name} {values[name]:.6g} {units[name]}")
    for name, (value, unit) in info.items():
        print(f"{w.name} {name} {value:.6g} {unit} (reported, not gated)")
    print(f"{w.name} error_rate {checks.failed / checks.attempted:.6g} ratio "
          f"({checks.failed} of {checks.attempted} checks failed)")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
