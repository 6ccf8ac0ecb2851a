"""One fresh process per measurement: set up, optionally run one workload.

    python3 perfbench/worker.py --workload NAME --config FILE --result FILE
        [--out FILE --run-id ID [--trace]]

Without ``--out`` it only measures set-up (``import soliton_stability`` plus
``cli.load_config``) and records the package, numpy and BLAS versions.  With
``--out`` it then calls ``cli.main`` on the workload's argv, re-checks the
output and records wall time, CPU time and the process's own peak RSS.  With
``--trace`` the span recorder wraps the package first and its spans go into
the result file.  The package is imported from ``src/`` next to this
directory, never from anywhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _versions(package) -> dict:
    import numpy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "package_version": getattr(package, "__version__", None),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--config", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--out")
    ap.add_argument("--run-id", default="")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    if not (SRC / "soliton_stability" / "__init__.py").is_file():
        sys.stderr.write(f"no package source under {SRC}\n")
        return 3
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import soliton_stability
    from soliton_stability import cli

    cli.load_config(args.config)
    setup_s = time.perf_counter() - t0

    if Path(soliton_stability.__file__).resolve().parent != (SRC / "soliton_stability").resolve():
        sys.stderr.write(f"imported soliton_stability from {soliton_stability.__file__}\n")
        return 3
    result: dict = {"setup_s": setup_s}
    if args.out is None:
        result["versions"] = _versions(soliton_stability)
    else:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
        recorder = None
        if args.trace:
            recorder = spans.Recorder(args.run_id)
            recorder.install()
        argv = workloads.argv(args.workload, args.config, args.out)
        cpu0 = _cpu_s()
        t1 = time.perf_counter()
        code = cli.main(argv)
        try:
            data = Path(args.out).read_bytes()
        except OSError:
            data = None
        text = None if data is None else data.decode("utf-8", errors="replace")
        check = workloads.check_output(args.workload, config, code, text)
        wall_s = time.perf_counter() - t1
        result.update(
            wall_s=wall_s,
            cpu_s=_cpu_s() - cpu0,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            exit_code=code,
            sha256=None if data is None else hashlib.sha256(data).hexdigest(),
            check=vars(check),
            trace=None if recorder is None else recorder.to_json(),
        )
    tmp = args.result + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, args.result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
