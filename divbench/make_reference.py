"""Write reference.json: the analytic plr/thr rows the benchmark checks against.

Run from the repository root as ``python3 divbench/make_reference.py``. The
stored rows were made at the commit that introduced the benchmark; rerunning
it later overwrites them with whatever the current code computes, so only do
that on purpose.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from divaloha.harness import parse_spec  # noqa: E402
from divaloha.analytic import analytic_curve  # noqa: E402

from run import COMMON, LOADS, WORKLOADS  # noqa: E402


def main() -> None:
    ref = {}
    for w in WORKLOADS.values():
        if w.geometry in ref:
            continue
        spec = parse_spec(["analytic", "--tf", str(w.tf), "--tau", str(w.tau),
                           *COMMON, "--loads", LOADS])
        points = analytic_curve(spec.system_config(), spec.link_model(), spec.loads)
        ref[w.geometry] = [
            {"G": p.load, "n_tx": p.n_tx, "plr": p.plr, "thr": p.throughput}
            for p in points
        ]
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
