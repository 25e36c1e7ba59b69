"""Run one workload of the benchmark and print its metrics as one JSON line.

    python3 perfbench/run.py --workload codec-triangle --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout; the package is imported from its ``src``.
The run is split over ``WORKERS`` worker processes started one after the
other, each with its own set-up and an equal share of ``--seconds``.  Within
a worker the workload is a closed loop with one client: the next operation
starts when the last one has finished and its output has been checked.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics.  README.md says what each one means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKERS = 5
RUN_LIMIT_S = 170

# String hashing is salted per process, and the program iterates hash-ordered
# sets, so the exact work of an operation follows the salt: five `openness`
# runs on the triangle took 411,815 generator steps under one salt and
# 412,050 under another.  Every run uses the same salts, one per worker, so
# every run does the same work.
HASH_SEEDS = [str(k) for k in range(1, WORKERS + 1)]

# The machine's speed for the same interpreter work swings by up to two
# times within seconds (a fixed loop of fraction sums ran at 6.5 ms and at
# 13 ms a call in one process), so every time reported is scaled by a
# calibration kernel run next to it: seconds at the speed where one kernel
# call takes KERNEL_REF_S.
KERNEL_REF_S = 0.002
CALIBRATION_CALLS = 3
CALIBRATE_EVERY_S = 0.02


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- worker -------------------------------------------------------------------


def check(fn, problems, where):
    """Run one check; any exception means the output is wrong."""
    try:
        fn()
    except Exception as exc:
        problems.append(f"{where}: {type(exc).__name__}: {exc}")


def kernel():
    """A fixed slice of interpreter work like the program's: fractions, tuples, dicts."""
    acc, seen = Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(i % 7 + 1, i % 11 + 2)
        key = tuple(sorted((str(i % 13), str(i % 5), str(i % 3))))
        seen[key] = seen.get(key, 0) + 1
        ",".join(key)
    return acc, len(seen)


def calibrate():
    """Seconds one kernel call takes now: the median of a few calls."""
    times = []
    for _ in range(CALIBRATION_CALLS):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def run_loop(wl, seconds, problems, tracer=None):
    """Whole rounds of operations until ``seconds`` have passed.

    Returns the op times, scaled to the reference speed, of untraced and of
    traced rounds.  A calibration is taken between operations whenever
    ``CALIBRATE_EVERY_S`` has passed since the last one, and each op time is
    scaled by the mean of the calibrations on either side of it.  With a
    tracer, every other round runs with its spans installed, so the two sets
    of rounds see the same machine and their difference is the tracing cost.
    """
    raw, attempted, failed, i, r = [], 0, 0, 0, 0
    cals = [calibrate()]
    last_cal = perf_counter()
    deadline = perf_counter() + seconds
    while True:
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.install()
            wl.tracer = tracer
        try:
            for _ in range(wl.round_size):
                if perf_counter() - last_cal >= CALIBRATE_EVERY_S:
                    cals.append(calibrate())
                    last_cal = perf_counter()
                attempted += 1
                t0 = perf_counter()
                try:
                    out = wl.op(i)
                except Exception:
                    failed += 1
                    if failed == 1:
                        traceback.print_exc(file=sys.stderr)
                else:
                    raw.append((perf_counter() - t0, len(cals) - 1, traced))
                    check(lambda: wl.check(i, out), problems, f"operation {i}")
                i += 1
        finally:
            if traced:
                wl.tracer = None
                tracer.uninstall()
        r += 1
        if perf_counter() >= deadline and (tracer is None or r % 2 == 0):
            break
    cals.append(calibrate())
    times = ([], [])
    for seconds_, k, traced in raw:
        times[traced].append(seconds_ * 2 * KERNEL_REF_S / (cals[k] + cals[k + 1]))
    return times, attempted, failed, [t for t, _, _ in raw]


def worker(args):
    """One process: set up, loop, and report raw figures as JSON on stdout."""
    sys.path.insert(0, SRC)
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    before = calibrate()
    t0 = perf_counter()
    wl.setup()
    setup_s = perf_counter() - t0
    setup_s *= 2 * KERNEL_REF_S / (before + calibrate())
    problems = []
    check(wl.check_setup, problems, "set-up")
    report = {"setup_s": setup_s, "problems": problems}
    if args.trace == 0:
        (report["times"], _), report["attempted"], report["failed"], report["wall"] = run_loop(
            wl, args.seconds, problems)
    else:
        import spans

        tracer = spans.Tracer()
        (report["plain"], report["traced"]), report["attempted"], report["failed"], _ = run_loop(
            wl, args.seconds, problems, tracer)
        if args.probe:
            tracer.install()
            try:
                check(lambda: spans.probe(wl.probe_context(), tracer, args.seed, args.workdir,
                                          workloads.traced_cli_script),
                      problems, "traced layer calls")
            finally:
                tracer.uninstall()
        report.update(total=tracer.total, calls=tracer.calls, counters=tracer.counters)
    report["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))


# -- parent -------------------------------------------------------------------


def run_workers(args, workdir):
    reports = []
    deadline = perf_counter() + RUN_LIMIT_S
    for k, hash_seed in enumerate(HASH_SEEDS):
        cmd = [sys.executable, os.path.abspath(__file__), "--worker",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds / WORKERS), "--trace", str(args.trace),
               "--workdir", workdir]
        if k == WORKERS - 1:
            cmd.append("--probe")
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             env=dict(os.environ, PYTHONHASHSEED=hash_seed),
                             timeout=max(1.0, deadline - perf_counter()))
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            raise RuntimeError(f"worker {k} exited with status {res.returncode}")
        reports.append(json.loads(res.stdout.splitlines()[-1]))
    return reports


def metric_block(names_units, values):
    missing = [n for n, _ in names_units if n not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {n: {"value": values[n], "unit": u} for n, u in names_units}


def summarize(args, reports):
    bench = spec()
    if args.trace == 0:
        times = [t for r in reports for t in r["times"]]
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in reports),
            "op_p50_s": statistics.median(times),
            "op_p90_s": statistics.quantiles(times, n=10, method="inclusive")[8],
            "ops_per_s": len(times) / sum(times),
            "peak_rss_mib": statistics.median(r["rss_mib"] for r in reports),
        }
        names = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
        wall = [t for r in reports for t in r["wall"]]
        print(f"{args.workload}: {len(times)} operations, unscaled op_p50_s "
              f"{statistics.median(wall):.6g}", file=sys.stderr)
    else:
        total, calls, values = {}, {}, {}
        for r in reports:
            for name, seconds in r["total"].items():
                total[name] = total.get(name, 0.0) + seconds
                calls[name] = calls.get(name, 0) + r["calls"][name]
            values.update(r["counters"])
        values.update({name: total[name] / calls[name] for name in total})
        plain = [t for r in reports for t in r["plain"]]
        traced = [t for r in reports for t in r["traced"]]
        values["trace.overhead_pct"] = 100 * (statistics.mean(traced) / statistics.mean(plain) - 1)
        names = [(m["name"], m["unit"]) for m in bench["per_layer"]]
        print(f"{args.workload}: {len(plain)} untraced and {len(traced)} traced operations",
              file=sys.stderr)
    problems = [p for r in reports for p in r["problems"]]
    for p in problems[:10]:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    return {"correct": not problems,
            "attempted": sum(r["attempted"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
            "metrics": metric_block(names, values)}


def self_test():
    """Every workload, both modes, a single round per worker; then a bare checkout."""
    bench = spec()
    ok = True
    for wl in (w["name"] for w in bench["workloads"]):
        for trace_flag, key in ((0, "end_to_end"), (1, "per_layer")):
            res = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", wl, "--seed", "7",
                 "--seconds", "0", "--trace", str(trace_flag)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            try:
                result = json.loads(res.stdout.strip().splitlines()[-1])
                want = {m["name"]: m["unit"] for m in bench[key]}
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                good = (res.returncode == 0 and result["correct"] and result["failed"] == 0
                        and result["attempted"] >= 1 and got == want)
            except (IndexError, KeyError, ValueError):
                good = False
            print(f"self-test {wl} trace={trace_flag}: {'ok' if good else 'FAILED'}")
            if not good:
                ok = False
                sys.stdout.write(res.stderr[-3000:])
    bare = os.path.join(OUT, f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        res = subprocess.run(
            [sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
             "--workload", "codec-triangle", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    good = res.returncode != 0 and not res.stdout.strip()
    print(f"self-test without the package: {'ok' if good else 'FAILED'}")
    return 0 if ok and good else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if not os.path.isfile(os.path.join(SRC, "poset_tower", "__init__.py")):
        print(f"perfbench: no package at {os.path.relpath(SRC)}/poset_tower", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.worker:
        worker(args)
        return 0
    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        result = summarize(args, run_workers(args, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
