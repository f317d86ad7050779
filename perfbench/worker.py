"""One workload in one process: set-up, timed passes, output checks.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and the
BLAS/OpenMP thread counts pinned.  Writes its result as JSON to --result;
everything it prints goes to the benchmark's standard error.

Untraced (--trace 0): the host-speed probe (probe.py) runs from the start
of set-up to the end of the last pass, and set-up and every pass are
reported as measured and rescaled to the probe's reference speed.  Passes
run back to back until --seconds are used up; wall_s is the median rescaled
pass time.  Traced (--trace 1): no probe; passes alternate untraced /
traced, and the per-layer metrics are the median over the traced passes of
the per-pass values derived from the span log.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# floor on the rounds behind each median; a traced round is two passes
MIN_ROUNDS = {0: 3, 1: 2}


def _args():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args()


class Verdicts:
    """Counts operations and checks each distinct output once.

    Every pass runs the same inputs, so an operation whose output digest was
    already checked gets the same verdict; a digest that differs from the
    operation's first one is a failure (outputs must be byte-identical
    across passes, traced or not).
    """

    def __init__(self, workload):
        self.workload = workload
        self.first_digest = {}
        self.seen = {}
        self.attempted = 0
        self.failed = 0
        self.identical = True
        self.max_rel_dev = 0.0
        self.failures = []

    def judge(self, pass_index, outputs):
        for op, out in outputs:
            self.attempted += 1
            ok, msg = self._judge_one(op, out)
            if not ok:
                self.failed += 1
                self.failures.append({"pass": pass_index, "op": op, "reason": msg})

    def _judge_one(self, op, out):
        if isinstance(out, BaseException):
            return False, f"raised {out!r}"
        if isinstance(out, int) and out != 0:
            return False, f"exit code {out}"
        try:
            digest = self.workload.digest(op, out)
            if digest not in self.seen:
                ok, dev, msg = self.workload.check(op, out)
                self.max_rel_dev = max(self.max_rel_dev, dev)
                self.seen[digest] = (ok, msg)
        except Exception as exc:  # an unreadable output fails its operation
            return False, f"output check raised {exc!r}"
        if self.first_digest.setdefault(op, digest) != digest:
            self.identical = False
            return False, "output differs from the first pass's"
        return self.seen[digest]


def _measure(host, t0: float, t1: float, exponent: float = 1.0) -> dict:
    """An interval's program time as measured (wall_raw_s) and as reported (wall_s).

    Without the probe the two are the same; with it, wall_raw_s leaves out
    the probe's own time and wall_s is that rescaled (probe.Probe.measure).
    """
    if host is None:
        return {"raw_s": t1 - t0, "wall_raw_s": t1 - t0, "wall_s": t1 - t0}
    m = host.measure(t0, t1, exponent)
    return {"raw_s": t1 - t0, "wall_raw_s": m["own_s"], "wall_s": m["ref_s"],
            "probe_s": m["probe_s"], "probe_samples": m["samples"]}


def main() -> int:
    args = _args()
    sys.path.insert(0, HERE)
    with open(os.path.join(HERE, "refs", args.workload + ".json")) as fh:
        ref = json.load(fh)

    # set-up: what a user pays once per process
    t0 = time.perf_counter()
    host = None
    if not args.trace:
        import numpy  # noqa: F401  (the probe needs it; eia imports it first thing)
        t1 = time.perf_counter()
        import probe
        host = probe.Probe()
        host.start()
        t0 += time.perf_counter() - t1  # the probe's own set-up is not the program's
    import workloads
    tracer = None
    if args.trace:
        import eia
        import spans
        tracer = spans.Tracer()
        tracer.install(eia)
        tracer.enabled, tracer.op = True, "setup"
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir, ref)
    wl.setup()
    setup = _measure(host, t0, time.perf_counter())
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_s": setup["wall_s"], "setup": setup}
    if args.setup_only:
        if host is not None:
            host.stop()
        return _write(args.result, result)

    setup_end = 0
    if tracer is not None:
        tracer.enabled = False
        setup_end = len(tracer.spans)
    verdicts = Verdicts(wl)
    passes = []

    def begin_op(op):
        if tracer is not None:
            tracer.op = f"{len(passes)}/{op}"

    modes = (False, True) if tracer is not None else (False,)
    deadline = time.perf_counter() + args.seconds
    rounds = []
    while True:
        r0 = time.perf_counter()
        for traced in modes:
            wl.prepare()
            lo = len(tracer.spans) if tracer is not None else 0
            if tracer is not None:
                tracer.enabled = traced
            c0, t = time.process_time(), time.perf_counter()
            outputs = wl.run_pass(begin_op)
            times = _measure(host, t, time.perf_counter(), wl.SPEED_EXPONENT)
            times["cpu_s"] = time.process_time() - c0 - (times["raw_s"] - times["wall_raw_s"])
            if tracer is not None:
                tracer.enabled = False
            passes.append({"traced": traced, **times,
                           "spans": (lo, len(tracer.spans) if tracer is not None else 0)})
            verdicts.judge(len(passes) - 1, outputs)
        rounds.append(time.perf_counter() - r0)
        # stop once the next round would overrun, with a floor for the medians
        if len(rounds) >= MIN_ROUNDS[args.trace] and \
                time.perf_counter() + statistics.median(rounds) > deadline:
            break
    if host is not None:
        host.stop()

    plain = [p for p in passes if not p["traced"]]
    result.update({
        "passes": passes, "attempted": verdicts.attempted, "failed": verdicts.failed,
        "failures": verdicts.failures, "outputs_identical": verdicts.identical,
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "wall_raw_s": statistics.median(p["wall_raw_s"] for p in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": _environment(),
    })
    if tracer is not None:
        result["per_layer"] = _per_layer(tracer, passes, plain, setup_end, verdicts)
        tracer.write(os.path.join(args.workdir, f"spans-seed{args.seed}.tsv"))
    return _write(args.result, result)


def _per_layer(tracer, passes, plain, setup_end, verdicts) -> dict:
    import spans
    traced = [p for p in passes if p["traced"]]
    rows = [spans.layer_metrics(tracer, *p["spans"]) for p in traced]
    out = {}
    for key in rows[0]:
        values = [r[key] for r in rows]
        if key in ("spectrum_solver.doubling_rel_change", "spectrum_solver.max_condition"):
            out[key] = max(values)
        elif isinstance(values[0], int):
            out[key] = statistics.median_low(values)  # a count stays a whole number
        else:
            out[key] = statistics.median(values)
    own = tracer.self_times()
    out["velocity_integrals.make_grid.self_s"] = sum(
        own[i] for i in range(setup_end)
        if tracer.spans[i][0] == "velocity_integrals.make_grid")
    out["accuracy.max_rel_dev"] = verdicts.max_rel_dev
    out["process.cpu_s"] = statistics.median(p["cpu_s"] for p in plain)
    # passes alternate untraced, traced: difference within each adjacent pair
    out["tracing.overhead_s"] = statistics.median(
        t["wall_s"] - u["wall_s"] for u, t in zip(passes[::2], passes[1::2]))
    return out


def _environment() -> dict:
    """Interpreter, library and thread settings of this process."""
    import platform

    import numpy as np
    import scipy

    import eia
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "eia": eia.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "machine": platform.machine(),
    }


def _write(path, result) -> int:
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
