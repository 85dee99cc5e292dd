"""One cycle of a workload in a fresh interpreter.

Sets up (imports hyplq from the checkout, writes the seeded inputs, parses
the plans), then runs the cycle's CLI calls through `hyplq.cli.main` in this
process and writes a JSON report.  `run.py` starts one of these per cycle and
reads the process's own resource usage when it exits.

    python3 perfbench/child.py --workload field-solve --seed 1 --cycle 0 \
        --out <dir> [--trace] [--smoke]      # report: <dir>/report.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

import inputs
from spans import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent

# System-wide on Linux, so run.py can subtract its spawn time from `ready`.
CLOCK = time.CLOCK_MONOTONIC


def import_hyplq(root: Path):
    """Import the package from the checkout's src/, never from elsewhere."""
    src = (root / "src").resolve()
    if not (src / "hyplq" / "cli.py").is_file():
        raise SystemExit(f"no hyplq sources under {src}")
    sys.path.insert(0, str(src))
    import hyplq.cli

    if Path(hyplq.cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported hyplq from {hyplq.cli.__file__}, not from {src}")
    return hyplq.cli


def parse_plans(cli, paths: dict) -> None:
    """Parse every generated config the way the CLI will read it."""
    for path in paths.values():
        cfg = json.loads(path.read_text())
        if "equation" in cfg:  # simulate configs: the plan fields minus the equation
            cli.plan_from_config({k: v for k, v in cfg.items() if k != "equation"})
        elif set(cfg) == {"control_domain"}:
            cli.domain_from_config(cfg["control_domain"])
        else:
            cli.plan_from_config(cfg)


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_cycle(cli, ops: list, tracer) -> list:
    records = []
    for name, argv in ops:
        out, err = io.StringIO(), io.StringIO()
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        if tracer is not None:
            tracer.install()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as exc:  # an escaped exception is a failed operation, not a harness error
            code, err = None, io.StringIO(f"{type(exc).__name__}: {exc}")
        finally:
            if tracer is not None:
                tracer.uninstall()
        records.append(
            {
                "op": name,
                "exit": code,
                "wall_s": time.perf_counter() - t0,
                "cpu_s": cpu_seconds() - cpu0,
                "stderr": err.getvalue()[-2000:],
            }
        )
    return records


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cycle", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    cli = import_hyplq(ROOT)
    sizes = inputs.SMOKE if args.smoke else inputs.FULL
    out = Path(args.out)
    d = inputs.draw(args.seed, args.cycle)
    paths = inputs.write_inputs(args.workload, d, sizes, out / "inputs")
    parse_plans(cli, paths)
    ready = time.clock_gettime(CLOCK)

    tracer = Tracer() if args.trace else None
    ops = inputs.operations(args.workload, out / "inputs", out)
    records = run_cycle(cli, ops, tracer)

    report = {
        "ready": ready,
        "ops": records,
        "wall_s": sum(r["wall_s"] for r in records),
        "cpu_s": sum(r["cpu_s"] for r in records),
    }
    if tracer is not None:
        report["layers"] = layer_metrics(tracer.spans)
        report["spans"] = [asdict(s) for s in tracer.spans]
    (out / "report.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
