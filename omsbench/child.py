"""Fresh-interpreter probes, started by run.py as child processes.

    python3 child.py <src_dir> setup <manifest>
        time `import oms.cli`, DatasetManifest.load and OmsParams.make_kernels
    python3 child.py <src_dir> rss <manifest> <out_dir> <alpha>
        run one `oms run --threads 1` pass and report this process's peak RSS
        (VmHWM: ru_maxrss would also count the parent's resident set, which
        the kernel carries into a child across fork/vfork and exec)

Prints one JSON object.
"""

import contextlib
import io
import json
import sys
import time


def main(argv):
    src, mode, manifest = argv[:3]
    sys.path.insert(0, src)
    if mode == "setup":
        t0 = time.perf_counter()
        import oms.cli  # noqa: F401
        from oms.dataset_io import DatasetManifest
        from oms.engine import OmsParams

        DatasetManifest.load(manifest)
        OmsParams(alpha=0.13).make_kernels()
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
    elif mode == "rss":
        out_dir, alpha = argv[3:5]
        from oms.cli import main as oms_main

        with contextlib.redirect_stdout(io.StringIO()):
            oms_main(["run", "--manifest", manifest, "--out", out_dir, "--alpha", alpha,
                      "--threads", "1"], standalone_mode=False)
        with open("/proc/self/status") as f:
            hwm_kib = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
        print(json.dumps({"peak_rss_mb": hwm_kib / 1024}))
    else:
        raise SystemExit(f"unknown probe {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
