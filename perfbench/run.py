"""hyplq benchmark: end-to-end and per-layer numbers of three CLI workloads.

    python3 perfbench/run.py --workload field-solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all           # every workload, one after another
    python3 perfbench/run.py --smoke                  # seconds-long check at tiny sizes

Run from the root of a checkout.  Each cycle of a workload is one fresh
child interpreter (perfbench/child.py) that imports hyplq from src/, writes
its seeded inputs and calls `hyplq.cli.main` once per operation; cycles run
one after another until --seconds have passed.  This process times the
set-up, reads each child's resource usage when it exits, and checks every
output against references that do not come from the timed path (checks.py).

--trace 0 prints the end-to-end metrics (medians over cycles).  --trace 1
runs every draw twice, untraced and traced, and prints the per-layer
metrics from the traced children plus trace.overhead_s.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Results, and the spans of a traced run, go to perfbench/_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
CLOCK = time.CLOCK_MONOTONIC

# No child may outlive the 180 s a run is allowed.
RUN_LIMIT_S = 170.0
MIN_CYCLES = 3
# The sweep pool uses 2 workers; keep native libraries from adding threads.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class HarnessError(RuntimeError):
    """The benchmark cannot produce a result here (no sources, no cycle completed)."""


class ChildFailed(RuntimeError):
    """A cycle's interpreter died (killed, out of memory) before reporting."""


def machine() -> dict:
    import numpy
    import scipy

    mem_kb = None
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {
        "cores": os.cpu_count(),
        "mem_total_gb": round(mem_kb / 2**20, 2) if mem_kb else None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


def run_child(workload, seed, cycle, out: Path, trace: bool, smoke: bool, timeout: float) -> dict:
    """Start one cycle, wait for it, return its report plus its own rusage."""
    result = out / "report.json"
    out.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--cycle", str(cycle), "--out", str(out),
    ]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    spawned = time.clock_gettime(CLOCK)
    proc = subprocess.Popen(cmd, env={**os.environ, **CHILD_ENV}, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted or terminated: leave no child behind
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result.is_file():
        raise ChildFailed(
            f"{workload} cycle {cycle} child exited with {proc.returncode} and no report"
        )
    report = json.loads(result.read_text())
    report["setup_s"] = report.pop("ready") - spawned
    report["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    report["child_cpu_s"] = usage.ru_utime + usage.ru_stime
    return report


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check_ops(report, out: Path, d, sizes, smoke: bool) -> list:
    """(op, problems) for every operation of one cycle."""
    verdicts = []
    for rec in report["ops"]:
        op = rec["op"]
        if op.startswith("check-domain:"):
            layout = json.loads((out / "inputs" / f"layout-{op.split(':')[1]}.json").read_text())
            want = checks.expected_check_domain_exit(layout["control_domain"])
            problems = [] if rec["exit"] == want else [f"exit {rec['exit']}, certify_rates says {want}"]
        elif rec["exit"] != 0:
            problems = [f"exit {rec['exit']}: {rec['stderr'].strip()[-300:]}"]
        elif op == "solve-ocp":
            problems = checks.check_field_solve(out / "field", d, sizes)
            if smoke and not problems:
                problems = corrupted_table_accepted(out / "field", d, sizes)
        elif op == "plot":
            problems = checks.svg_problems(out / "field" / "x-plot.svg")
        elif op == "sweep":
            problems = checks.check_sweep_pool(out / "sweep", d, sizes)
        else:
            eq = op.split(":")[1]
            problems = checks.SIMULATE_CHECKS[eq](out / eq, d, sizes)
        verdicts.append((op, problems))
    return verdicts


def corrupted_table_accepted(field: Path, d, sizes) -> list:
    """Smoke mode: a NaN written into x.csv must fail the field check."""
    lines = (field / "x.csv").read_text().splitlines()
    t, w, _ = lines[-1].split(",")
    lines[-1] = f"{t},{w},nan"
    (field / "x-corrupt.csv").write_text("\n".join(lines) + "\n")
    if checks.check_field_solve(field, d, sizes, x_table="x-corrupt.csv"):
        return []
    return ["a NaN in x.csv passed the field check"]


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def tail(samples: list) -> tuple:
    """Highest percentile with at least 10 samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 11
    return 100.0 * k / (n - 1), sorted(samples)[k]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    sizes = inputs.SMOKE if smoke else inputs.FULL
    work = WORK / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    started = time.monotonic()
    deadline = started + seconds
    plain, traced, failures, attempted = [], [], [], 0
    cycle = 0
    try:
        while cycle < (1 if smoke else MIN_CYCLES) or (not smoke and time.monotonic() < deadline):
            d = inputs.draw(seed, cycle)
            pair = []
            for is_traced in (False, True) if trace else (False,):
                left = RUN_LIMIT_S - (time.monotonic() - started)
                if left < 5.0:
                    raise HarnessError(f"{workload}: out of time after {cycle} cycles")
                out = work / f"c{cycle}{'-traced' if is_traced else ''}"
                try:
                    report = run_child(workload, seed, cycle, out, is_traced, smoke, left)
                except ChildFailed as exc:
                    n_ops = len(inputs.operations(workload, out, out))
                    attempted += n_ops
                    failures += [f"cycle {cycle}: {exc}"] * n_ops
                    continue
                for op, problems in check_ops(report, out, d, sizes, smoke):
                    attempted += 1
                    failures += [f"cycle {cycle} {op}: {p}" for p in problems[:1]]
                pair.append(report)
                shutil.rmtree(out)
            if len(pair) == (2 if trace else 1):
                plain.append(pair[0])
                traced += pair[1:]
            cycle += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not plain:
        raise HarnessError(f"{workload}: no cycle completed; {failures[:1]}")
    return {"plain": plain, "traced": traced, "failures": failures, "attempted": attempted}


def end_to_end(plain: list) -> dict:
    return {name: statistics.median(r[name] for r in plain) for name in E2E_UNITS}


def per_layer(plain: list, traced: list) -> dict:
    out = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    out["trace.overhead_s"] = statistics.median(t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
    return out


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def load_spec() -> dict:
    """BENCHMARK.json's metric names, end to end and per layer."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: [m["name"] for m in spec[key]] for key in ("end_to_end", "per_layer")}


E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "cpu_s": "s"}
UNITS = {**E2E_UNITS, **spans.UNITS, "trace.overhead_s": "s"}


def print_block(title: str, metrics: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:38s} {value:>16.6g} {UNITS[name]}")


def report_workload(workload, seed, trace, smoke, res, spec, mach) -> dict:
    """Print one workload's metrics, save its results, return its JSON summary."""
    plain, traced = res["plain"], res["traced"]
    failed = len(res["failures"])
    e2e = end_to_end(plain)
    walls = [r["wall_s"] for r in plain]
    t = tail(walls)
    print(f"workload {workload}  seed {seed}  cycles {len(plain)}  trace {int(trace)}")
    print_block("end to end (median over cycles)", e2e)
    print(f"  {'wall_s tail':38s} " + (f"p{t[0]:.0f} = {t[1]:.6g} s" if t else
                                       f"n/a: {len(walls)} samples, a tail needs 11"))
    print(f"  {'fail_ratio':38s} {failed}/{res['attempted']} = {failed / res['attempted']:.6g}")
    for msg in res["failures"]:
        print(f"  FAILED {msg}")
    results = {
        "workload": workload, "seed": seed, "trace": int(trace), "machine": mach,
        "samples": {k: [r[k] for r in plain] for k in ("wall_s", "setup_s", "peak_rss_mb", "cpu_s", "child_cpu_s")},
        "end_to_end": e2e, "wall_s_tail": t, "attempted": res["attempted"], "failures": res["failures"],
    }
    metrics, names = dict(e2e), spec["end_to_end"]
    if trace:
        layers = per_layer(plain, traced)
        print_block("per layer (median over traced cycles; times are self times)", layers)
        results["per_layer"] = layers
        metrics, names = {**metrics, **layers}, (names if smoke else []) + spec["per_layer"]
    stem = WORK / "results" / f"{workload}-seed{seed}-trace{int(trace)}"
    stem.parent.mkdir(parents=True, exist_ok=True)
    Path(f"{stem}.json").write_text(json.dumps(results, indent=1) + "\n")
    if trace:
        recorded = [dict(s, cycle=i) for i, r in enumerate(traced) for s in r["spans"]]
        Path(f"{stem}-spans.json").write_text(json.dumps(recorded) + "\n")
    return {
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]} for name in names},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hyplq benchmark")
    ap.add_argument("--workload", default="all", choices=inputs.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, every workload once untraced and once traced")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "hyplq" / "cli.py").is_file():
        print(f"error: no hyplq sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = inputs.WORKLOADS if args.workload == "all" or args.smoke else (args.workload,)
    trace = bool(args.trace) or args.smoke
    spec = load_spec()
    mach = machine()
    print(f"machine: {mach}")
    outcomes = {}
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, trace, args.smoke)
            outcomes[name] = report_workload(name, args.seed, trace, args.smoke, res, spec, mach)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = outcomes[names[0]]
    else:
        final = {
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {f"{n}.{m}": v for n, o in outcomes.items() for m, v in o["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
