"""Closed-loop benchmark of `escobar` certified I_k bounds.

Run from the repository root:

    python3 perfbench/run.py --workload regular-refine --seed 1 --seconds 24 --trace 0

One process, one thread, one caller: each case starts only after the previous
one has finished and been checked.  A pass runs every case of the workload
once on freshly built domains; passes repeat while another one still fits in
``--seconds`` (at least one always runs).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one untraced
pass and then one traced pass, and prints the per-layer metrics of the traced
pass (see ``tracing.py``) and the tracing overhead; its times are inflated by
the wrappers and are never used as end-to-end numbers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
describe the run.  Each run also writes
``perfbench/out/<workload>-seed<n>-trace<t>.json`` (machine, per-case values
as repr, value digest) and, when traced, its spans to
``perfbench/out/spans-<workload>-seed<n>.npz``.

This file imports only the standard library, so that a set-up probe can time
the import of NumPy and `escobar`; the measuring code is in ``bench.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("regular-refine", "nonconvex-refine", "corner-chains", "cli-pipeline")

#: BLAS/OpenMP pools pinned to one thread, in this process and its children.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Reference chunks a set-up probe times before and after its timed part.
SETUP_REFERENCE_CHUNKS = 10


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup_probe(workload: str, seed: int) -> None:
    """Child process: time importing `escobar` and building the domains.

    Prints the raw seconds and the seconds at reference speed, from the
    median of reference chunks timed just before and just after.
    """
    import reference

    chunks = [reference.chunk_seconds() for _ in range(SETUP_REFERENCE_CHUNKS)]
    t0 = time.perf_counter()
    import workloads

    workloads.build_domains(workloads.make_cases(workload, seed))
    seconds = time.perf_counter() - t0
    chunks += [reference.chunk_seconds() for _ in range(SETUP_REFERENCE_CHUNKS)]
    chunk_s = statistics.median(chunks)
    print(json.dumps({"raw": seconds, "ref": seconds * reference.NOMINAL_CHUNK_S / chunk_s}))


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "escobar" / "__init__.py").is_file():
        print(f"error: no escobar sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    import bench

    return bench.run(args)


if __name__ == "__main__":
    sys.exit(main())
