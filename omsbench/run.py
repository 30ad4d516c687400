"""End-to-end and per-layer benchmark of the OMS pipeline.

    python3 omsbench/run.py --workload {br1,br3_burst,dense30} --seed 7 --seconds 50 --trace 0

Run from the repository root. The benchmark generates the workload's
dataset from --seed (untimed), then drives the real `oms run` and
`oms eval` commands in-process, at alpha = 0.13 (at the default 0.96 no
pixel can fire, so masks would be all zero and the checks would prove
nothing). For --seconds it repeats rounds of:

    oms run --threads 1       -> run_s
    oms run --threads N       -> run_mt_s   (N = CPUs in this process's affinity)
    oms eval on run_s's masks -> eval_s
    accumulate_frame + oms_frame on the next 10 in-memory windows, one caller
    in a closed loop          -> frame_p90_ms (pooled over rounds; p50 in details)

run_s, run_mt_s and eval_s are the 90th percentile of their pass times.

With --trace 0 it also times set-up (`import oms.cli`, DatasetManifest.load,
OmsParams.make_kernels) and peak RSS of one `oms run` in fresh interpreters.
With --trace 1 it then replays `oms run` and `oms eval` layer by layer,
recording one span per call into `dataset_io`, `events`, `kernels`,
`engine` and `metrics`, and reports per-layer totals per traced pass.

Every pass's masks are checked, outside the timed region, against an
independent shifted-sum reference (reference.py); `oms run`, threaded and
streaming masks must be equal; `oms eval`'s mIoU and detection rate must
match an independent recount; at seed 7 the digests of the mask stack and
the report must match digests.json.
The last stdout line is one JSON object {correct, attempted, failed,
metrics}; details (quartiles, sample counts, digests, check notes) go to
.omsbench/results/ and the span file to .omsbench/spans/. Exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".omsbench"

# frame_p50_ms, detection_rate_pct and failed_frac go to the details file and
# report.py only: the p50 of per-frame latency jumps between the host's fast
# and slow modes (10 vs 17 ms here), and the other two are 0 on most runs.
E2E_UNITS = {"run_s": "s", "run_mt_s": "s", "eval_s": "s", "frame_p90_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB", "mean_iou_pct": "%"}
# The pass times report the 90th percentile over the run, not the median: a
# shared 2-vCPU Xeon VM runs in a fast and a slow mode (an `oms run` pass takes
# up to ~1.8x longer in the slow one) and switches every few seconds. With a
# few dozen passes per run the median lands in either mode and the mean moves
# with the share of slow time, while the 90th percentile stays in the slow mode
# whenever that mode holds a tenth of the run. Medians, means and quartiles
# stay in the details file.
P90_OF_RUN = ("run_s", "run_mt_s", "eval_s")
PER_LAYER_UNITS = {
    "engine.px_scored": "count", "engine.nonzero_score_frac": "frac", "engine.spikes": "count",
    "engine.max_score": "score", "events.windows": "count", "events.events_in": "count",
    "events.events_per_frame": "events", "events.active_px_frac": "frac",
    "dataset_io.read_events_mb": "MB", "dataset_io.masks_read": "count",
    "dataset_io.masks_written": "count", "metrics.frames_evaluated": "count",
    "metrics.frames_skipped": "count", "kernels.builds": "count", "trace.overhead_pct": "%",
}  # every other per-layer metric is a time in ms


def percentile(values: list[float], q: float) -> float | None:
    return float(np.percentile(values, q)) if values else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "oms" / "__init__.py").is_file():
        print(f"omsbench: program source not found at {SRC / 'oms'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import oms
    if Path(oms.__file__).resolve().parent != SRC / "oms":
        print(f"omsbench: imported oms from {oms.__file__}, not {SRC / 'oms'}", file=sys.stderr)
        return 2
    from harness import ALPHA, Bench, summary
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"omsbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    b = Bench(args.workload, args.seed, OUT / "work" / f"{args.workload}_seed{args.seed}_trace{args.trace}")
    o = b.outcomes
    samples = b.measure(args.seconds)
    run_s_mean = statistics.fmean(samples["run_s"]) if samples["run_s"] else None
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "threads": b.threads, "alpha": ALPHA, "rounds": b.rounds,
              "generate_ms": b.ds.generate_ms, "events": len(b.ds.events), "frames": b.n,
              "tie_px": b.ref.tie_count}

    if not args.trace:
        samples.update(b.probes())
        lat = samples.pop("frame_ms")
        stats = {k: summary(v) for k, v in samples.items() if v}
        p50, p90 = percentile(lat, 50), percentile(lat, 90)
        values = {k: stats[k]["p90" if k in P90_OF_RUN else "median"] if k in stats else None
                  for k in E2E_UNITS}
        values.update(frame_p90_ms=p90, mean_iou_pct=b.report["mean_iou"] if b.report else None)
        metrics = {k: (values[k], u) for k, u in E2E_UNITS.items()}
        detail.update(samples=samples, stats=stats,
                      frame_ms={"p50": p50, "p90": p90, "n": len(lat),
                                "beyond_p90": sum(v > p90 for v in lat) if lat else 0},
                      detection_rate_pct=b.report["detection_rate"] if b.report else None)
    else:
        passes, tr = b.per_layer(run_s_mean) if run_s_mean else ([], None)
        metrics = {k: (statistics.median(p[k] for p in passes), PER_LAYER_UNITS.get(k, "ms"))
                   for k in (passes[0] if passes else {})}
        if tr is not None:
            spans_path = OUT / "spans" / f"{args.workload}_seed{args.seed}.json"
            tr.dump(spans_path, {"workload": args.workload, "seed": args.seed,
                                 "clock": "time.perf_counter, seconds"})
            detail["spans"] = str(spans_path.relative_to(ROOT))
        detail["per_pass"] = passes

    # Every pass of one seed must give one mask stack and one report; at a
    # recorded seed they must also match the recorded digests.
    recorded = json.loads((BENCH / "digests.json").read_text()).get(str(args.seed), {})
    expected = recorded.get(args.workload)
    o.expect(len(b.digests["masks"]) == 1, f"{len(b.digests['masks'])} distinct mask stacks")
    o.expect(len(b.digests["report"]) == 1, f"{len(b.digests['report'])} distinct eval reports")
    if expected is not None:
        o.expect(b.digests["masks"] == {expected["masks_sha256"]}, "mask digest differs from digests.json")
        o.expect(b.digests["report"] == {expected["report_sha256"]}, "report digest differs from digests.json")
        for key in ("mean_iou", "detection_rate"):
            if key in expected:
                got = b.report and b.report[key]
                o.expect(got == expected[key], f"{key} {got} != recorded {expected[key]}")
    detail.update(digests={k: sorted(v) for k, v in b.digests.items()}, report=b.report,
                  attempted=o.attempted, failed=o.failed, failed_frac=o.failed / o.attempted,
                  notes=o.notes)

    correct = o.failed == 0
    result = {"correct": correct, "attempted": o.attempted, "failed": o.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    detail["result"] = result
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2) + "\n")
    shutil.rmtree(b.work, ignore_errors=True)

    for note in o.notes:
        print(f"omsbench: FAILED {note}", file=sys.stderr)
    for k, (v, u) in metrics.items():
        print(f"{args.workload:10s} {k:28s} {v if v is None else f'{v:14.6g}'} {u}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
