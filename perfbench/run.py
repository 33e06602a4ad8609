"""Benchmark of the fig8 solver: one workload per run, one closed-loop caller.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Run from the root of a fig8 checkout; the package is imported from its
`src/` directory. The run draws its inputs from --seed, runs whole
rounds of the workload's operations back to back until another round
would pass --seconds (at least one round), checks the outputs against
computations made apart from fig8, and prints one JSON object as the
last line of standard output: correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones, in calibrated
seconds (see calib.py). With --trace 1 the run makes one untraced and
one traced round and reports the per-layer metrics of the traced one,
with the tracing overhead; the spans go to perfbench/out/.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"


def load_fig8():
    """Put the checkout's src/ first on the path; refuse to run without it."""
    if not (SRC / "fig8" / "__init__.py").is_file():
        sys.exit(f"error: no fig8 package under {SRC}")
    sys.path.insert(0, str(SRC))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("scan", "family", "solve"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_round(make_ops, inputs, clock, tracer=None):
    """One round of operations; returns (outputs, items, errors, raw, cal).

    An operation is a sequence of calls into fig8, each timed between its
    own reference timings; its time is the sum of its calls' times. A call
    that raises fails its operation, and the operation's later calls are
    skipped.
    """
    ops, outputs = make_ops(inputs)
    items, errors, raw, cal = 0, [], [], []
    for calls in ops:
        n0 = len(clock.cal_s)
        for call in calls:
            if tracer is not None:
                tracer.begin_op()
            done, error = clock.call(_attempt, call)
            if tracer is not None:
                tracer.end_op(clock.last_scale)
            items += done
            if error is not None:
                errors.append(error)
                break
        raw.append(sum(clock.raw_s[n0:]))
        cal.append(sum(clock.cal_s[n0:]))
    return outputs, items, errors, raw, cal


def _attempt(call):
    try:
        return call(), None
    except Exception as exc:  # one failed operation must not end the run
        return 0, f"{type(exc).__name__}: {exc}"


def main(argv=None):
    args = parse_args(argv)
    load_fig8()
    import numpy as np

    import calib

    ref_start = calib.time_reference()
    import tracing
    import workloads

    make_inputs, make_ops = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(np.random.default_rng(args.seed))
    # warm-up: one shooting residual at the published first crossing
    workloads.shooting.residuals(
        workloads.ShootingParams(workloads.published.X0_SCAN,
                                 *workloads.published.FIRST_CROSSING),
        workloads.LJ, workloads.CFG)
    clock = calib.CalibratedClock()
    # imports slow down about half as much as the reference computation when
    # the host slows, so set-up is scaled by the square root of the ratio;
    # README.md has the measurements
    setup_s = (time.perf_counter() - T_START) * math.sqrt(
        clock.scale(ref_start, clock.last_ref))

    rounds = []         # (items, operation errors, raw s, calibrated s)
    digests = set()
    tracer = None
    t0 = time.perf_counter()
    while True:
        if args.trace and rounds:
            tracer = tracing.Tracer()
            tracer.install()
        outputs = None      # only the last round's outputs are kept
        try:
            outputs, *result = run_round(make_ops, inputs, clock, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        rounds.append(result)
        digests.add(workloads.digest(args.workload, outputs))
        elapsed = time.perf_counter() - t0
        if args.trace:
            if tracer is not None:
                break
        elif elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(len(r[2]) for r in rounds)
    op_errors = [e for r in rounds for e in r[1]]
    errors = []
    if len(digests) != 1:
        errors.append("rounds on the same inputs gave different outputs")
    errors += workloads.check(args.workload, outputs,
                              np.random.default_rng([args.seed, 1]))

    if args.trace:
        layer = tracer.metrics()
        untraced, traced = sum(rounds[0][3]), sum(rounds[1][3])
        layer["trace.overhead_pct"] = (100.0 * (traced / untraced - 1.0), "%")
        errors += trace_path_errors(args.workload, layer, tracer.calls, inputs)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}.json")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        # each operation's median over rounds, so that a slow spell of the
        # host in one round moves neither metric
        per_op = [statistics.median(op) for op in zip(*(r[3] for r in rounds))]
        items = sum(r[0] for r in rounds) / len(rounds)
        metrics = {
            "work_per_s": {"value": items / sum(per_op), "unit": "items/s"},
            "op_p50_s": {"value": statistics.median(per_op), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        raw_per_op = [statistics.median(op) for op in zip(*(r[2] for r in rounds))]
        print(f"{args.workload}: {len(rounds)} round(s), {attempted} operations; "
              f"raw work_per_s {items / sum(raw_per_op):.4f}, op_p50_s "
              f"{statistics.median(raw_per_op):.4f}; first round calibrated "
              f"{' '.join(f'{c:.3f}' for c in rounds[0][3])}", file=sys.stderr)
    for e in op_errors[:20]:
        print(f"OPERATION FAILED: {e}", file=sys.stderr)
    for e in errors[:20]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": len(op_errors),
                      "metrics": metrics}))


def trace_path_errors(workload, m, calls, inputs):
    """Counts that two independent paths through the trace must agree on."""
    if "integrate.calls" not in m:
        return []
    errs = []
    n_int = m["integrate.calls"][0]
    if n_int != calls("shooting.residuals") + calls("analysis.orbit_from_record"):
        errs.append(f"trace: {n_int} integrations, {calls('shooting.residuals')} "
                    f"residuals and {calls('analysis.orbit_from_record')} orbits")
    if workload == "scan" and n_int != sum(b.cells for b in inputs):
        errs.append(f"trace: {n_int} integrations for "
                    f"{sum(b.cells for b in inputs)} requested cells")
    if workload == "solve" and "shooting.newton.integrations" in m:
        want = m["shooting.newton.integrations"][0] + calls("analysis.orbit_from_record")
        if n_int != want:
            errs.append(f"trace: {n_int} integrations, newton and orbits need {want}")
    return errs


if __name__ == "__main__":
    main()
