"""One fresh-interpreter measurement for the benchmark, run as a child process.

    python3 divbench/probe.py setup <divaloha argv...>
    python3 divbench/probe.py rss <divaloha argv...>

``setup`` times importing divaloha, parsing the spec and building the
LinkModel, then times the first (cold) ``single_dp_pmf`` call on its own.
``rss`` runs the command once through ``divaloha.harness.main`` and reports
the process's peak resident set size. Either prints one JSON line.
"""

import time

_t0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def setup(argv):
    from divaloha.analytic import single_dp_pmf
    from divaloha.harness import parse_spec

    spec = parse_spec(argv)
    config = spec.system_config()
    spec.link_model()
    t1 = time.perf_counter()
    single_dp_pmf(config)
    t2 = time.perf_counter()
    return {"base_s": t1 - _t0, "single_dp_pmf_cold_s": t2 - t1}


def rss(argv):
    import contextlib
    import resource

    from divaloha.harness import main

    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        rc = main(argv)
    # ru_maxrss is in KiB on Linux
    return {"rc": rc, "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


if __name__ == "__main__":
    import json

    kind, argv = sys.argv[1], sys.argv[2:]
    result = {"setup": setup, "rss": rss}[kind](argv)
    print(json.dumps(result))
