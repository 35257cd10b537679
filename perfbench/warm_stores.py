"""Fill an AnalysisStore and a ResultStore from a set of seeded traffic traces.

The ``trace-restart`` set-up runs this as a separate process, so the serving
process meets the stores the way a restarted server does.  It runs
``repro.service.warm.warm_trace`` — the pass behind ``python -m
repro.service.warm --trace-seed`` — once per seed, in one interpreter::

    python3 perfbench/warm_stores.py --analysis-store A --result-store R \\
        --trace-requests 64 SEED [SEED ...]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.service import AnalysisStore, ResultStore  # noqa: E402
from repro.service.warm import warm_trace  # noqa: E402
from repro.traffic import TrafficProfile, generate_traffic  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--analysis-store", required=True)
    parser.add_argument("--result-store", required=True)
    parser.add_argument("--trace-requests", type=int, required=True)
    parser.add_argument("seeds", type=int, nargs="+")
    options = parser.parse_args(argv)
    store = AnalysisStore(options.analysis_store)
    result_store = ResultStore(options.result_store)
    for seed in options.seeds:
        trace = generate_traffic(TrafficProfile(seed=seed, requests=options.trace_requests))
        warm_trace(trace, store=store, result_store=result_store)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
