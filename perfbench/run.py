"""Benchmark of the ``skalc`` command line, run from the repository root.

    python3 perfbench/run.py --workload exact-partition --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0 --out result.json

One process drives a closed loop with one client: it calls
``skalc.cli.main(argv)`` in-process with stdout captured, one job at a
time, on JSON sources it generated from ``--seed``.  Output checks run
after the timed loop.  With ``--trace 0`` it prints the end-to-end metrics;
with ``--trace 1`` it replays a fixed prefix of the jobs untraced and then
traced, checks that both runs print the same bytes, and prints the
per-layer metrics.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
GOLDEN = os.path.join(BENCH_DIR, "golden_two_user.json")

if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 4  # this process's own set-up plus three fresh interpreters
COLD_REPEATS = 5
TAIL_BEYOND = 10
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"jobs_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s",
                    "cli_cold_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Set-up in a fresh interpreter, timed the same way as in this process.
PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
         "print(run.setup(sys.argv[2], int(sys.argv[3]), sys.argv[4])[2])")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def setup(name: str, seed: int, workdir: str):
    """Import skalc, generate the workload's jobs and write their inputs.

    Returns (jobs, argvs, elapsed seconds).
    """
    t0 = time.perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import skalc
    if os.path.dirname(os.path.abspath(skalc.__file__)) != os.path.join(SRC, "skalc"):
        raise SystemExit(f"skalc imported from {skalc.__file__}, not from {SRC}")
    jobs = workloads.make_jobs(workloads.WORKLOADS[name], seed)
    argvs = workloads.write_jobs(jobs, workdir)
    return jobs, argvs, time.perf_counter() - t0


def call_cli(argv: list[str]):
    """One job through ``skalc.cli.main``; returns (status, stdout, seconds).

    Status is the exit code, or a traceback when the job raised."""
    from skalc import cli
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code
    except Exception:
        status = traceback.format_exc(limit=4)
    elapsed = time.perf_counter() - t0
    if status != 0:
        print(f"job {argv} failed: {status} {err.getvalue().strip()}", file=sys.stderr)
    return status, out.getvalue(), elapsed


def job_loop(argvs, seconds=None, count=None, cycle=1, before_job=None, breaks=()):
    """Run jobs in pool order (cycling through the pool).

    Stops after ``count`` jobs, or at the end of the first ``cycle``-job
    template cycle that ends after ``seconds``, so every run holds whole
    cycles of the same job mix.  ``breaks`` are called outside the timed
    loop at evenly spaced points of it.  Returns ([(index, status,
    stdout, seconds)], wall seconds of the timed loop).
    """
    results = []
    pending = list(breaks)
    paused = 0.0
    t_start = time.perf_counter()
    while True:
        k = len(results)
        if before_job is not None:
            before_job(k)
        index = k % len(argvs)
        results.append((index, *call_cli(argvs[index])))
        if count is not None and len(results) >= count:
            break
        if seconds is None:
            continue
        elapsed = time.perf_counter() - t_start - paused
        if pending and elapsed >= seconds * (len(breaks) - len(pending) + 1) / (len(breaks) + 1):
            t0 = time.perf_counter()
            pending.pop(0)()
            paused += time.perf_counter() - t0
        if elapsed >= seconds and not pending and len(results) % cycle == 0:
            break
    return results, time.perf_counter() - t_start - paused


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND samples above its
    nearest-rank value, and never below the median: a run of fewer than
    2 * TAIL_BEYOND jobs reports its median as the tail."""
    fits = [p for p in range(50, 100) if n - math.ceil(p * n / 100) >= TAIL_BEYOND]
    return max(fits, default=50)


def nearest_rank(values, p: int) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered) / 100), 1) - 1]


def load_golden(name: str, seed: int):
    if name != "two-user-sweep" or seed != workloads.DEFAULT_SEED:
        return None
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["values"]


def check_results(name, jobs, argvs, results, seed):
    """Failed job count and problems; exit status, then output checks."""
    outputs = {index: out for index, status, out, _ in results if status == 0}

    def run_untimed(index, kind):
        argv = workloads.MMI_ARGV if kind == "mmi" else workloads.RCO_ARGV
        return call_cli([a.format(src=argvs[index][1]) for a in argv])[1]

    problems = checks.check_outputs(name, jobs, outputs, run_untimed, load_golden(name, seed))
    failed = sum(1 for index, status, _, _ in results if status != 0 or index in problems)
    return failed, problems


def cold_run(argv: list[str]):
    """``python -m skalc`` in a fresh interpreter: (seconds, exit code, stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "skalc", *argv], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True, timeout=150)
    return time.perf_counter() - t0, proc.returncode, proc.stdout


def setup_probe(name: str, seed: int, workdir: str) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", PROBE, BENCH_DIR, name, str(seed), workdir],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=150, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def git_commit():
    """The checked-out commit read from .git, or None outside a git checkout."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if "ratio" in metric or "_per_" in metric:
        return "ratio"
    return "count"


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    jobs, argvs, own_setup = setup(name, seed, workdir)
    workload = workloads.WORKLOADS[name]
    details = {"workload": name, "why": workload.why, "seed": seed, "pool_jobs": len(jobs)}
    if trace:
        from tracing import Tracer
        count = sum(1 for job in jobs if job.group < workload.trace_groups)
        plain, plain_wall = job_loop(argvs, count=count)
        tracer = Tracer()
        with tracer:
            traced, traced_wall = job_loop(argvs, count=count,
                                           before_job=lambda k: setattr(tracer, "job_id", k))
        failed, problems = check_results(name, jobs, argvs, plain, seed)
        differ = [i for (i, _, a, _), (_, _, b, _) in zip(plain, traced) if a != b]
        if differ:
            problems["stdout differs between untraced and traced runs"] = differ
        metrics = tracer.layer_metrics(traced_wall / plain_wall)
        span_file = os.path.relpath(os.path.join(WORK, f"trace-{name}-seed{seed}.tsv.gz"), ROOT)
        tracer.write(os.path.join(ROOT, span_file))
        details.update(jobs=count, spans=len(tracer.name), span_file=span_file,
                       untraced_wall_s=plain_wall, traced_wall_s=traced_wall)
        attempted = count
    else:
        # Cold runs and set-up probes are spread through the timed loop (and
        # kept out of its time) so they sample the machine at several moments.
        cold_group = workloads.cold_group(workload)
        cold_argvs = workloads.write_jobs(cold_group, os.path.join(workdir, "cold"))
        cold, setups = [], [own_setup]
        colds = [lambda: cold.append(cold_run(cold_argvs[0]))] * COLD_REPEATS
        probes = [lambda k=k: setups.append(setup_probe(name, seed, os.path.join(workdir, f"probe{k}")))
                  for k in range(SETUP_REPEATS - 1)]
        breaks = [b for pair in itertools.zip_longest(colds, probes) for b in pair if b]
        cycle = sum(1 for job in jobs if job.group < workload.cycle)
        results, wall = job_loop(argvs, seconds=seconds, cycle=cycle, breaks=breaks)
        times = [dt for _, _, _, dt in results]
        failed, problems = check_results(name, jobs, argvs, results, seed)
        cold_failed, cold_problems = check_results(
            name, cold_group, cold_argvs, [(0, rc, out, dt) for dt, rc, out in cold], None)
        if cold_problems:
            problems["cold"] = cold_problems[0]
        failed += cold_failed
        attempted = len(results) + len(cold)
        pct = tail_percentile(len(times))
        metrics = {
            "jobs_per_s": len(results) / wall,
            "job_p50_s": statistics.median(times),
            "job_tail_s": nearest_rank(times, pct),
            "cli_cold_s": statistics.median(dt for dt, _, _ in cold),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        details.update(jobs=len(results), loop_wall_s=wall, tail_percentile=pct,
                       tail_samples=len(times), cold_samples=[dt for dt, _, _ in cold],
                       setup_samples=setups)
    details["failed_ratio"] = failed / attempted
    details["problems"] = {str(k): v for k, v in problems.items()}
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "details": details,
    }


def report(result: dict) -> None:
    d = result["details"]
    print(f"workload {d['workload']}: {d['why']}")
    print(f"  seed {d['seed']}, {d['jobs']} jobs of a pool of {d['pool_jobs']}, "
          f"failed_ratio {d['failed_ratio']:.4g} ({result['failed']}/{result['attempted']})")
    if "tail_percentile" in d:
        print(f"  job_tail_s is p{d['tail_percentile']} of {d['tail_samples']} job times")
    if "spans" in d:
        print(f"  {d['spans']} spans written to {d['span_file']}")
    for k, m in result["metrics"].items():
        print(f"  {k:38s} {m['value']:>14.6g} {m['unit']}")
    for k, v in d["problems"].items():
        print(f"  problem at job {k}: {v}")


def run_all(args) -> int:
    """Each workload in its own process; one combined table and file."""
    combined = {"env": None, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "workloads": {}}
    ok = True
    os.makedirs(WORK, exist_ok=True)
    for name in workloads.WORKLOADS:
        part = os.path.join(WORK, f"all-{name}-{os.getpid()}.json")
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace), "--out", part], cwd=ROOT)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            ok = False
            continue
        with open(part, encoding="utf-8") as fh:
            doc = json.load(fh)
        os.remove(part)
        combined["env"] = doc["env"]
        combined["workloads"][name] = doc["result"]
        ok = ok and doc["result"]["correct"]
    names = list(combined["workloads"])
    print()
    print("metric".ljust(39) + "unit".ljust(7) + "".join(n.rjust(17) for n in names))
    rows = {}
    for name in names:
        for k, m in combined["workloads"][name]["metrics"].items():
            rows.setdefault(k, {"unit": m["unit"]})[name] = m["value"]
        fr = combined["workloads"][name]["details"]["failed_ratio"]
        rows.setdefault("failed_ratio", {"unit": "ratio"})[name] = fr
    for k, row in rows.items():
        print(k.ljust(39) + row["unit"].ljust(7)
              + "".join(f"{row.get(n, float('nan')):17.6g}" for n in names))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(combined, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the result with its environment record here")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "skalc", "cli.py")):
        print(f"no skalc sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    report(result)
    if args.out:
        doc = {"env": env, "seconds": args.seconds, "trace": args.trace, "result": result}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
