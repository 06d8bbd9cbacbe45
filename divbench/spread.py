"""Run the benchmark on sets of seeds and report each metric's spread.

    python3 divbench/spread.py --runs 10 --sets 101,201 [--out divbench/noise.json]

Each set runs every workload untraced, for BENCHMARK.json's run_seconds,
once per seed from its first seed on (``--sets 101,201`` with ``--runs 10``:
seeds 101-110, then 201-210), cycling through the workloads so a slow drift
of the machine touches all of them alike. For each end-to-end metric, and for
the raw ``wall_s`` that run.py reports but does not gate, it prints the
median and the interquartile range as a share of the median
(``statistics.quantiles(values, n=4)``), next to the bound and a third of it,
and each later set's median against the first set's. With ``--runs 1`` it
prints every metric of every workload once, with error_rate.

``--out`` also makes one traced run per workload, at the first seed of the
first set, and writes everything as the evidence file divbench/noise.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
UNGATED = {"wall_s": "s"}  # reported by run.py on its info lines, not gated


def run_once(bench, workload, seed, trace):
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run([sys.executable if c == "python3" else c for c in cmd],
                         cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    res["context"] = json.loads(next(ln for ln in lines if ln.startswith("context "))[8:])
    for ln in lines:
        parts = ln.split()
        if len(parts) >= 4 and parts[0] == workload and parts[1] in UNGATED:
            res["metrics"][parts[1]] = {"value": float(parts[2]), "unit": parts[3]}
    return res


def summarise(results, bounds):
    """{metric: {unit, median, spread, bound}} plus error_rate, for one
    workload's runs in one set."""
    attempted = sum(r["attempted"] for r in results)
    out = {"error_rate": sum(r["failed"] for r in results) / attempted}
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        row = {"unit": m["unit"], "bound": bounds.get(name), "median": med, "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            row["spread"] = (q3 - q1) / abs(med)
        out[name] = row
    return out


def note(layout, labels, bounds):
    """One paragraph on what the recorded spreads and drifts mean."""
    above_third, above = [], []
    for w, rows in layout.items():
        for name, bound in bounds.items():
            if name == "setup_s":
                continue
            for s in labels:
                v = rows[name].get(f"spread_{s}", 0.0)
                if v > bound:
                    above.append(f"{w} {name} set {s} {v:.3f}")
                elif v > bound / 3:
                    above_third.append(f"{w} {name} set {s} {v:.3f}")
    setup = max(rows["setup_s"][f"spread_{s}"] for rows in layout.values() for s in labels)
    wall = [rows["wall_s"][f"spread_{s}"] for rows in layout.values() for s in labels]
    rel = [rows["wall_rel"][f"spread_{s}"] for rows in layout.values() for s in labels]
    text = [
        "Spreads of gated metrics other than setup_s above their bound: "
        + (", ".join(above) or "none") + "; above a third of it: " + (", ".join(above_third) or "none") + ".",
        f"setup_s is gated on its median (bound {bounds['setup_s']}), not on its spread; its largest "
        f"single-set spread is {setup:.3f}, so a setup_s regression smaller than about that reads as unresolved.",
        f"Raw wall_s spreads {min(wall):.3f}-{max(wall):.3f} against {min(rel):.3f}-{max(rel):.3f} for wall_rel.",
    ]
    if len(labels) > 1:
        drift = max((abs(rows[n][f"{s}_vs_{labels[0]}"]), f"{w} {n} set {s}")
                    for w, rows in layout.items() for n in bounds for s in labels[1:])
        text.append(f"Largest move of a median between sets: {drift[0]:.3f} ({drift[1]}).")
    return " ".join(text)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", default="1", help="first seed of each set, comma-separated")
    ap.add_argument("--out", help="write the evidence file here")
    args = ap.parse_args()

    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    firsts = [int(s) for s in args.sets.split(",")]
    labels = [chr(ord("A") + i) for i in range(len(firsts))]
    sets, context = {}, None
    for label, seed0 in zip(labels, firsts):
        results = {w: [] for w in workloads}
        for seed in range(seed0, seed0 + args.runs):
            for w in workloads:
                res = run_once(bench, w, seed, 0)
                context = context or res["context"]
                results[w].append(res)
                print(f"# set {label} {w} seed {seed}: correct={res['correct']} "
                      f"{res['failed']}/{res['attempted']} failed", file=sys.stderr, flush=True)
        sets[label] = {w: summarise(results[w], bounds) for w in workloads}

    layout = {}
    for w in workloads:
        rows = layout[w] = {}
        for name in [*bounds, *UNGATED]:
            first = sets[labels[0]][w][name]
            row = rows[name] = {"unit": first["unit"], "bound": first["bound"]}
            for s in labels:
                got = sets[s][w][name]
                row[f"median_{s}"] = got["median"]
                if "spread" in got:
                    row[f"spread_{s}"] = got["spread"]
                if s != labels[0]:
                    row[f"{s}_vs_{labels[0]}"] = got["median"] / first["median"] - 1
                line = f"{w:14s} {name:13s} set {s} median {got['median']:10.6g} {row['unit']:4s}"
                if "spread" in got:
                    line += f" spread {got['spread']:.4f}"
                if row["bound"] is not None:
                    line += f"  bound {row['bound']}  bound/3 {row['bound'] / 3:.4f}"
                else:
                    line += "  (not gated)"
                if s != labels[0]:
                    line += f"  vs set {labels[0]} {row[f'{s}_vs_{labels[0]}']:+.4f}"
                print(line)
        rows["error_rate"] = {s: sets[s][w]["error_rate"] for s in labels}
        print(f"{w:14s} error_rate    " + "  ".join(f"set {s} {rows['error_rate'][s]:.3g}" for s in labels))
    if not args.out:
        return

    traced = {}
    for w in workloads:
        res = run_once(bench, w, firsts[0], 1)
        traced[w] = {"attempted": res["attempted"], "failed": res["failed"],
                     "metrics": {k: [v["value"], v["unit"]] for k, v in res["metrics"].items()}}
    doc = {
        "how": f"python3 divbench/spread.py --runs {args.runs} --sets {args.sets} --out {args.out}",
        "machine": {k: context[k] for k in ("nproc", "cpu_model", "caches", "python", "numpy")},
        "run_seconds": bench["run_seconds"],
        "sets": {s: [f, f + args.runs - 1] for s, f in zip(labels, firsts)},
        "spread": "(q3 - q1) / median over a set's runs, quartiles from statistics.quantiles(values, n=4)",
        "workloads": layout,
        f"traced_seed_{firsts[0]}": {
            "how": f"python3 divbench/run.py --workload <w> --seed {firsts[0]} "
                   f"--seconds {bench['run_seconds']} --trace 1",
            "workloads": traced,
        },
    }
    if args.runs >= 2:
        doc["note"] = note(layout, labels, bounds)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
