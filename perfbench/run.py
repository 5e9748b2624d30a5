"""Benchmark of scvihmm: training, evaluation and generation throughput.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload short-seqs --seed 1 --seconds 50 --trace 0

The workload's inputs are drawn from ``--seed`` and written as text files
under ``.perfbench_work/``; the library sees only those files.  Set-up time
is measured in several fresh processes and reported as their median.  The
workload itself runs in one more fresh process with BLAS pinned to one
thread, so the only threads are those the workload's config asks for.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  Every metric is printed with its unit; the last line of standard
output is a JSON object with keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``attempted`` and ``failed`` count operations (training runs,
evaluations, checkpoint round trips, generations and the checks on them),
so ``failed / attempted`` is the error rate.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, write_inputs

ROOT = Path(__file__).resolve().parent.parent
# numpy here links threaded OpenBLAS; pinned, the workload's own pool is the only parallelism
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 5  # set-up-only processes, besides the workload process itself
DEADLINE_S = 170.0


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def run_worker(args, work, extra, started):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_THREADS)
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--dir", str(work),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--t0", repr(time.monotonic()),
    ] + extra
    remaining = DEADLINE_S - (time.monotonic() - started)
    out = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                         timeout=max(remaining, 1.0), check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    started = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "scvihmm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no scvihmm sources under {ROOT / 'src'}")

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        write_inputs(WORKLOADS[args.workload], args.seed, work)
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_worker(args, work, ["--setup-only"], started)["setup_s"])
        result = run_worker(args, work, [], started)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        sys.exit(f"perfbench: workload process failed: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    metrics = result["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
    env = dict(result["env"], git_sha=git_sha(), workload=args.workload, seed=args.seed,
               rounds=result["rounds"])
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload:>10}  {name:<52} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
