"""Check that the benchmark's inputs and results are fixed by the seed.

    python3 perfbench/check_determinism.py

For each workload of ``BENCHMARK.json`` this runs ``run.py`` three times,
one after another, from the checkout root and with the file's
``run_seconds``: twice with ``DEFAULT_SEED`` and once with ``HELDOUT_SEED``.
The two default-seed runs must report byte-identical input and result
digests; the held-out run must report the same op count, op mix and size
distribution with different inputs.  Op mix and sizes are measured on the
generated inputs (each workload's ``describe``).  Every run must be
correct.  Exits 1 on any difference.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
# kept for re-checking claims on inputs no change was tuned on
HELDOUT_SEED = 7919


def _run(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    summary = json.loads(done.stderr.strip().splitlines()[-1])
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return summary, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        first, r1 = _run(workload, DEFAULT_SEED, seconds)
        second, r2 = _run(workload, DEFAULT_SEED, seconds)
        held, r3 = _run(workload, HELDOUT_SEED, seconds)
        checks = {
            "all runs correct": all(r["correct"] for r in (r1, r2, r3)),
            "same input digest": first["input_digest"] == second["input_digest"],
            "same result digest": first["result_digest"] == second["result_digest"],
            "held-out seed draws other inputs": held["input_digest"] != first["input_digest"],
            "held-out seed: same op count": held["ops"] == first["ops"],
            "held-out seed: same op mix": held["op_mix"] == first["op_mix"],
            "held-out seed: same size distribution": held["sizes"] == first["sizes"],
        }
        for name, passed in checks.items():
            print(f"{workload}: {name}: {'ok' if passed else 'FAILED'}")
            ok = ok and passed
        print(f"{workload}: digests seed {DEFAULT_SEED} {first['input_digest']}/{first['result_digest']},"
              f" seed {HELDOUT_SEED} {held['input_digest']}/{held['result_digest']}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
