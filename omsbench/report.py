"""Print every end-to-end metric, one row per workload, with the machine.

    python3 omsbench/report.py [--seed 7] [--seconds 50] [--trace]

Runs omsbench/run.py once per workload (and, with --trace, a traced run
too), then prints a table of the end-to-end metrics with their units, as
run.py reports them (90th percentile of the pass times for run_s, run_mt_s
and eval_s, median for other timings), with median [q1, q3] (n samples),
and writes everything to .omsbench/report_seed<seed>.json. Exits nonzero if any run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".omsbench"

COLUMNS = [("run_s", "s"), ("run_mt_s", "s"), ("eval_s", "s"), ("frame_p50_ms", "ms"),
           ("frame_p90_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
           ("mean_iou_pct", "%"), ("detection_rate_pct", "%"), ("failed_frac", "frac")]


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {"cpu": cpu, "affinity_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def cells(d: dict) -> dict[str, tuple[float, str]]:
    """Metric -> (value, spread note) from one run's details file."""
    out = {}
    reported = d["result"]["metrics"]
    for name, st in d["stats"].items():
        out[name] = (reported[name]["value"] if name in reported else st["median"],
                     f"median {st['median']:.4g} [{st['q1']:.4g}, {st['q3']:.4g}] n={st['n']}")
    f = d["frame_ms"]
    for key in ("p50", "p90"):
        out[f"frame_{key}_ms"] = (f[key], f"n={f['n']}, {f['beyond_p90']} beyond p90")
    if d["report"] is not None:
        out["mean_iou_pct"] = (d["report"]["mean_iou"], "")
        out["detection_rate_pct"] = (d["report"]["detection_rate"], "")
    out["failed_frac"] = (d["failed_frac"], f"{d['failed']}/{d['attempted']}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", action="store_true", help="also make a traced run per workload")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    status = 0
    details = {}
    for w in WORKLOADS:
        for trace in ((0, 1) if args.trace else (0,)):
            path = OUT / "results" / f"{w}_seed{args.seed}_trace{trace}.json"
            path.unlink(missing_ok=True)
            proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", w,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(trace)], cwd=ROOT)
            status = status or proc.returncode
            if path.is_file():
                details[(w, trace)] = json.loads(path.read_text())

    info = machine()
    print(f"\nmachine: {info['cpu']}; {info['affinity_cores']} cores in affinity; "
          f"python {info['python']}; numpy {info['numpy']}; blas {json.dumps(info['blas'])}")
    print(f"seed {args.seed}, {args.seconds:g} s measured per workload; "
          "pass times are 90th percentiles over the run, other timings medians\n")
    print(f"{'workload':10s} " + " ".join(f"{f'{n} ({u})':>20s}" for n, u in COLUMNS))
    rows = {w: cells(details[(w, 0)]) for w in WORKLOADS if (w, 0) in details}
    for w in WORKLOADS:
        row = rows.get(w, {})
        print(f"{w:10s} " + " ".join(f"{row[n][0]:20.6g}" if n in row else f"{'missing':>20s}"
                                     for n, _ in COLUMNS))
    print("\nquartiles [q1, q3] and sample counts")
    for w, row in rows.items():
        print(f"  {w}: " + "; ".join(f"{n} {row[n][1]}" for n, _ in COLUMNS if n in row and row[n][1]))
    traced = [w for w in WORKLOADS if (w, 1) in details]
    if traced:
        print("\nper-layer, median over traced passes: " + "  ".join(f"{w:>12s}" for w in traced))
        layers = [details[(w, 1)]["result"]["metrics"] for w in traced]
        for name, m in layers[0].items():
            values = "  ".join(f"{layer[name]['value']:12.5g}" for layer in layers)
            print(f"  {name:28s} ({m['unit']}) {values}")
    doc = {"machine": info, "seed": args.seed, "seconds": args.seconds,
           "runs": {f"{w}_trace{t}": d for (w, t), d in details.items()}}
    (OUT / f"report_seed{args.seed}.json").write_text(json.dumps(doc, indent=2) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
