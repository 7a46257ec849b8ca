"""Run one benchmark workload and print its result as the last line of output.

    python3 perfbench/run.py --workload static-dof4 --seed 0 --seconds 30 --trace 0

Run it from the root of a source tree: fastron is imported from ``src/``
beside this directory, never from an installed copy. With ``--trace 0`` the
JSON line holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics, and the spans are written to ``.bench_out/``. A summary
for people goes to standard error. Exit code 0 on a finished run, 2 when
the source tree or an argument is missing or wrong.
"""

from __future__ import annotations

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("static-dof4", "dynamic-dof2", "plan-gap-dof2")

# The workloads make small matrix-vector products; one BLAS thread keeps the
# timings steady and never asks for more threads than the machine has.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30,
                        help="scales the repeated timing work (at 30: about 30 s of measuring)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "fastron" / "__init__.py").is_file():
        print(f"benchmark: no fastron sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import numpy  # noqa: F401
    import fastron

    if Path(fastron.__file__).resolve().parent != (src / "fastron").resolve():
        print(f"benchmark: imported fastron from {fastron.__file__}, not {src}", file=sys.stderr)
        return 2
    from perfbench import workloads

    import_s = perf_counter() - _T0
    trace_path = None
    if args.trace:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        trace_path = out / f"trace-{args.workload}-seed{args.seed}.json"
    t0 = perf_counter()
    result, problems, speed, raw = workloads.run(args.workload, args.seed, args.seconds,
                                                 bool(args.trace), import_s, trace_path)
    wall = perf_counter() - t0
    for msg in problems[:20]:
        print(f"benchmark: {msg}", file=sys.stderr)
    print(f"benchmark: {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} operations, {result['failed']} failed, "
          f"{wall:.2f} s after imports, speed factors {speed[0]:.4f} {speed[1]:.4f}",
          file=sys.stderr)
    print("benchmark: unscaled " + json.dumps({k: v for k, (v, _) in raw.items()}),
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
