"""Self-test of the benchmark: a tiny pass of every workload through the harness.

usage: python3 perfbench/selftest.py      (from the root of an lflow checkout)

For every workload and both trace modes it checks that the last line of
stdout is the result object, that it carries exactly the metrics
BENCHMARK.json names for that mode, each with its unit, that no
operation failed (fail_ratio 0, i.e. ok_ratio 1) and that the traced and
untraced runs give the same artifact digest.  It then checks that the
harness exits nonzero without a result in a directory that holds only
BENCHMARK.json and the benchmark.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent


def run_harness(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in wl.WORKLOADS:
        digests = set()
        for trace in (0, 1):
            proc = run_harness(root, workload, trace)
            where = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != expected[trace]:
                problems.append(f"{where}: metrics {printed} != {expected[trace]}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            if trace == 0 and result["metrics"]["ok_ratio"]["value"] != 1.0:
                problems.append(f"{where}: ok_ratio is not 1")
            digests.update(ln.split()[1] for ln in lines if ln.startswith("digest "))
            print(f"ok {where}")
        if len(digests) != 1:
            problems.append(f"{workload}: digests differ between traced and plain runs: {digests}")

    (root / ".perfbench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=root / ".perfbench_work"))
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_harness(bare, wl.WORKLOADS[0], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("harness did not refuse a directory without the program")
        else:
            print("ok refuses a directory without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            (root / ".perfbench_work").rmdir()
        except OSError:
            pass

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
