"""formcalc benchmark: one workload, one process, one caller, one timed pass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; formcalc is imported from ``src/``.
The seed fixes every input, ``--seconds`` fixes how many ops the pass has
(the workload's op blocks are sized so that a pass on the reference code
takes about that long, never fewer than 100 ops), and the pass runs its
fixed op list to the end in a closed loop: each op starts when the previous
one returns.  Results are checked exactly after the pass, by routes the ops
did not take.  Times are scaled to a reference machine speed by the probe of
``speed.py``, because the speed of a shared host drifts.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  A summary
(digests, op mix, failures, top self-time layers) goes to stderr, and a
traced run writes its spans to ``.perfbench/``.

``setup_s`` is the median of ``SETUP_SAMPLES`` cold set-ups, each in a fresh
process started with ``--setup-only`` and timed from its start to the point
where it would begin the first op.  A traced run takes the untraced pass
time for ``trace.overhead_ratio`` from an untraced run of the same seed in
a fresh process.  The child processes run one at a time, before the timed
pass, and each is waited for.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

from speed import SpeedProbe  # noqa: E402

import layers  # noqa: E402
import wl_dense  # noqa: E402
import wl_power  # noqa: E402
import wl_scenarios  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = {
    "power-brackets": wl_power,
    "dense-symplectic": wl_dense,
    "scenario-corpus": wl_scenarios,
}
MIN_OPS = 100
# cold set-ups timed in fresh processes; their median is setup_s, so one
# slow start does not decide it
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_formcalc():
    """Import formcalc from ``src/``."""
    sys.path.insert(0, SRC)
    try:
        import formcalc
        import formcalc.cli  # noqa: F401
    except ImportError as exc:
        _fail(f"cannot import formcalc from {SRC}: {exc}")
    if not os.path.abspath(formcalc.__file__).startswith(os.path.join(SRC, "formcalc")):
        _fail(f"formcalc was imported from {formcalc.__file__}, not from {SRC}")
    return formcalc


def _digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _run_pass(ops, probe, tracer=None):
    """Time each op once, in order; an op that raises yields its exception.

    Returns each op's ``(start, end, seconds)`` and the results.  The
    seconds leave out the probe's readings taken during the op.
    """
    results, timings = [], []
    perf = time.perf_counter
    for index, op in enumerate(ops):
        busy = probe.busy
        start = perf()
        try:
            result = op.run() if tracer is None else tracer.run_op(index, op.kind, op.run)
        except Exception as exc:  # an op that raises counts as failed
            result = exc
        end = perf()
        timings.append((start, end, end - start - (probe.busy - busy)))
        results.append(result)
    return timings, results


def _scaled(probe, timings):
    """Seconds at the reference speed, one per timing."""
    return [seconds * probe.scale(start, end) for start, end, seconds in timings]


def _check(ops, results):
    """Indices of failed ops: raised, or rejected by the exact oracle."""
    failed = []
    for index, (op, result) in enumerate(zip(ops, results)):
        try:
            ok = not isinstance(result, Exception) and op.check(result)
        except Exception:  # a result the oracle cannot handle is wrong
            ok = False
        if not ok:
            failed.append(index)
    return failed


def _child(args, *extra):
    """Run ``run.py`` for the same workload and seed in a fresh process; its stdout."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _fail(f"child run {extra} took more than {CHILD_TIMEOUT_S} s")
    if done.returncode != 0:
        _fail(f"child run {extra} exited {done.returncode}: {done.stderr.strip()}")
    return done.stdout


def _cold_setups(args):
    """``SETUP_SAMPLES`` set-ups, each a fresh process timed from spawn to its first op.

    Returns unscaled and scaled seconds.  The child scales by its own speed
    probe, which runs in the busy process.  ``time.perf_counter`` is the
    system-wide monotonic clock on Linux, so the child's reading is
    comparable with ours.
    """
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        child = json.loads(_child(args, "--setup-only").strip().splitlines()[-1])
        seconds = child["ready"] - start - child["busy"]
        raw.append(seconds)
        scaled.append(seconds * child["scale"])
    return raw, scaled


def _untraced_wall(args):
    """``wall_s`` of an untraced run of the same workload and seed, in a fresh process."""
    result = json.loads(_child(args, "--trace", "0").strip().splitlines()[-1])
    return result["metrics"]["wall_s"]["value"]


def _render(op, result):
    return repr(result) if isinstance(result, Exception) else op.render(result)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # used by this script for its cold set-up samples: set up, print the
    # clock, exit
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except OSError as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")
    if not os.path.isfile(os.path.join(SRC, "formcalc", "__init__.py")):
        _fail(f"no formcalc sources under {SRC}")

    workload = WORKLOADS[args.workload]
    blocks = max(math.ceil(MIN_OPS / workload.OPS_PER_BLOCK),
                 round(args.seconds / workload.BLOCK_SECONDS))

    probe = SpeedProbe()
    with probe:
        fc = _import_formcalc()
        inputs = workload.make_inputs(random.Random(args.seed), blocks)
        ops = workload.build_ops(fc, inputs)
        gc.collect()
        ready = time.perf_counter()
        if args.setup_only:
            print(json.dumps({"ready": ready, "busy": probe.busy, "scale": probe.scale(_T0, ready)}))
            return
        own_setup = ready - _T0

        if args.trace:
            plain_wall = _untraced_wall(args)
            import tracer

            trace = tracer.Tracer(fc)
            trace.install()
            timings, results = _run_pass(ops, probe, trace)
            trace.uninstall()
            layers.assert_pristine(fc, SRC)
        else:
            setup_raw, setup_times = _cold_setups(args)
            layers.assert_pristine(fc, SRC)
            timings, results = _run_pass(ops, probe)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if "tracer" in sys.modules:
                raise RuntimeError("the untraced run imported the tracer")
            layers.assert_pristine(fc, SRC)

    latencies = _scaled(probe, timings)
    raw = [seconds for _, _, seconds in timings]
    wall = sum(latencies)
    failed = _check(ops, results)
    described = workload.describe(inputs)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": len(ops),
        "blocks": blocks,
        "input_digest": _digest([repr(inputs)]),
        "result_digest": _digest(_render(op, r) for op, r in zip(ops, results)),
        "op_mix": dict(sorted(Counter(kind for kind, _ in described).items())),
        "sizes": dict(sorted(Counter(f"{kind} {size}" for kind, size in described).items())),
        "fail_ratio": len(failed) / len(ops),
        "failed_ops": [f"{i}:{ops[i].size}" for i in failed[:10]],
        "own_setup_s_unscaled": round(own_setup, 4),
        "wall_s_unscaled": sum(raw),
        "probe_readings": len(probe.readings),
        "probe_median_s": probe.median_reading(),
    }
    if args.trace:
        # both passes are scaled by their probes for the overhead ratio; span
        # times are not scaled and include probe readings, so their base is
        # the unscaled time of the traced ops, readings included
        traced = sum(end - start for start, end, _ in timings)
        values = trace.metrics(traced, wall / plain_wall)
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        trace.write(os.path.join(ROOT, ".perfbench", f"spans-{args.workload}-seed{args.seed}.jsonl"))
        claim, share, confirmed = trace.attribution(args.workload, values, traced)
        summary["top_self_time"] = [[n, round(s, 4), round(f, 4)]
                                    for n, s, f in trace.top_self_time(traced)]
        summary["attribution"] = {"claim": claim, "share": round(share, 4),
                                  "verdict": "confirmed" if confirmed else "refuted"}
        summary["spans"] = len(trace.spans)
        wanted = spec["per_layer"]
    else:
        summary["setup_s_each"] = [round(t, 4) for t in setup_times]
        summary["setup_s_each_unscaled"] = [round(t, 4) for t in setup_raw]
        cuts = statistics.quantiles(latencies, n=10, method="inclusive")
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": cuts[8] * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]
    print(json.dumps(summary), file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
