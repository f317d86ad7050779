"""Benchmark of the eia package: one workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload exact_fig2 --seed 1 --seconds 20 --trace 0

Workloads: exact_fig2, dicke_scan, cli_ramsey_beam (see perfbench/NOTES.md).
--trace 0 prints the end-to-end metrics (wall_s, setup_s, peak_rss_mb);
--trace 1 prints the per-layer metrics from a separate traced run.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Each workload runs in a fresh single process with the
BLAS/OpenMP thread counts pinned to the CPUs this process may use; set-up
is timed in SETUP_SAMPLES fresh processes and reported as their median.
wall_s and setup_s are the program's times rescaled to a reference host
speed with the probe in probe.py, because the speed of a shared host
drifts; the times as measured are printed next to them and kept in the
result file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("exact_fig2", "dicke_scan", "cli_ramsey_beam")
SETUP_SAMPLES = 5
BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKDIR = ".perfbench_work"


def _worker(env, deadline, *argv):
    """Run one worker process to completion; kill it at the run's deadline."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("benchmark time budget used up")
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *argv], env=env,
                   stdout=sys.stderr.fileno(), check=True, timeout=remaining)


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + BUDGET_S

    if not os.path.isfile(os.path.join("src", "eia", "__init__.py")):
        print("error: no eia package at src/eia; run from the repository root",
              file=sys.stderr)
        return 2

    workdir = os.path.join(WORKDIR, args.workload)
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    nproc = str(len(os.sched_getaffinity(0)))
    env.update({k: nproc for k in THREAD_VARS})

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--workdir", workdir]
    result_path = os.path.join(workdir, f"result-seed{args.seed}-trace{args.trace}.json")
    try:
        setup = []
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                path = os.path.join(workdir, f"setup-{i}.json")
                _worker(env, deadline, *common, "--result", path, "--setup-only")
                setup.append(_load(path))
        _worker(env, deadline, *common, "--result", result_path)
    except (subprocess.SubprocessError, TimeoutError) as exc:
        print(f"error: workload process failed: {exc}", file=sys.stderr)
        return 1

    res = _load(result_path)
    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in res["per_layer"].items()}
    else:
        setup.append(res)
        res["setup_samples"] = [s["setup"] for s in setup]
        metrics = {
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
        }
    res["metrics"] = metrics
    res["failed_frac"] = failed / attempted
    with open(result_path, "w") as fh:
        json.dump(res, fh, indent=1)

    env_rec = res["environment"]
    traced = sum(p["traced"] for p in res["passes"])
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(res['passes']) - traced} untraced and {traced} traced passes, "
          f"{attempted} operations, {failed} failed, outputs "
          f"{'byte-identical' if res['outputs_identical'] else 'DIFFER'} across passes")
    print(f"environment: python {env_rec['python']}, numpy {env_rec['numpy']}, "
          f"scipy {env_rec['scipy']}, {env_rec['blas']}, nproc {env_rec['nproc']}")
    for f in res["failures"][:10]:
        print(f"failed: pass {f['pass']} {f['op']}: {f['reason']}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:<24.6g} {m['unit']}")
    print(f"{'failed_frac':48s} {res['failed_frac']:<24.6g} ratio")
    if not args.trace:
        # wall_s and setup_s above are rescaled to the reference host speed
        raw_setup = statistics.median(s["setup"]["wall_raw_s"] for s in setup)
        print(f"{'wall_s, as timed':48s} {res['wall_raw_s']:<24.6g} s")
        print(f"{'setup_s, as timed':48s} {raw_setup:<24.6g} s")
    print(f"result file: {result_path}")
    correct = failed == 0 and res["outputs_identical"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("bytes", "bytes_written")):
        return "bytes"
    if name.endswith(("rel_change", "rel_dev", "max_condition")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
