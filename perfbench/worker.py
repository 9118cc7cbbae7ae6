"""One repetition of a workload, in a fresh process.

usage: python3 perfbench/worker.py SPAWN_TIME PLAN_JSON

SPAWN_TIME is the harness's time.monotonic() just before it started
this process (CLOCK_MONOTONIC is system-wide on Linux), so set-up time
covers interpreter start, `import lflow` and preparing the cache
directory.  The plan names the workload, its size, seed, thread count,
cache and output directories, whether to trace, and where to write the
result (and the spans).  With no workload the process only sets up;
the harness uses that to sample set-up time.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path


def _env_info() -> dict:
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in thread_vars},
    }


def _run(plan: dict, cli_main) -> list[list]:
    """Drive the workload's commands; returns [command, exit code] rows."""
    import workloads as wl

    out = plan["out_dir"]
    flags = wl.common_flags(plan["cache_dir"], plan["seed"], plan["threads"])
    size = wl.SIZES[plan["size"]]
    steps = []

    def cli(argv, stdout_path=None):
        buf = StringIO()
        with redirect_stdout(buf):
            rc = cli_main(argv)
        steps.append([argv[0], rc])
        if stdout_path is not None:
            Path(stdout_path).write_text(buf.getvalue(), encoding="ascii")

    name = plan["workload"]
    if name == "reproduce_sample1":
        cli(["reproduce", "--preset", "sample1", "--n-seeds", str(size["reproduce_seeds"]),
             "-o", out] + flags, stdout_path=f"{out}/stdout.txt")
    elif name in ("render_l11a1", "render_poly"):
        for i, image in enumerate(wl.images(name, plan["size"])):
            cli(wl.render_argv(image, i, out, flags))
    elif name == "tables_sample2":
        manifest = f"{out}/manifest.txt"
        cli(["sample", "--preset", "sample2", "-o", manifest] + flags)
        labels = wl.pick_labels(Path(manifest).read_text(encoding="ascii"), size["table_labels"])
        for pass_name in ("cold", "warm"):
            os.makedirs(f"{out}/{pass_name}")
            for label in labels:
                cli(["coeffs", label, "--coefficients", str(wl.TABLE_M)] + flags,
                    stdout_path=f"{out}/{pass_name}/{label}.an")
    else:
        raise SystemExit(f"unknown workload {name!r}")
    return steps


def main() -> int:
    spawned = float(sys.argv[1])
    plan = json.loads(Path(sys.argv[2]).read_text(encoding="utf-8"))
    import lflow.cli

    src = os.path.realpath(os.path.join(plan["root"], "src"))
    if not os.path.realpath(lflow.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported lflow from {lflow.__file__}, not from {src}")
    os.makedirs(plan["cache_dir"])
    result = {"setup_s": time.monotonic() - spawned}

    if plan["workload"]:
        recorder = None
        if plan["trace"]:
            import tracer

            recorder = tracer.install()
        try:
            result["steps"] = _run(plan, lflow.cli.main)
        finally:
            if recorder is not None:
                recorder.uninstall()
                recorder.dump(plan["spans"])
    if plan["record_env"]:
        result["env"] = _env_info()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
