"""lflow benchmark harness.

usage: python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                                [--trace 0|1] [--size full|tiny]

Run from the root of an lflow checkout.  Each repetition of a workload
is a fresh process (worker.py) that imports lflow from the checkout's
`src/` and drives `lflow.cli.main`; repetitions run back to back (a
closed loop, one at a time) until --seconds have passed.  The harness
times each repetition from process start to exit, checks the artifacts
it wrote (checks.py) and prints one line per metric, then the result as
a JSON object on the last line of stdout.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates plain
and traced repetitions and reports the per-layer metrics of the traced
ones (tracer.py) together with the tracing overhead, which is the
median traced wall time minus the median plain wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import tracer
import workloads as wl

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 6  # set-up-only processes per run, after one discarded warm-up
RUN_LIMIT_S = 170  # a run must end within 180 s

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "ok_ratio": "ratio",
}
PER_LAYER_UNITS = {
    "lseries.eval_s": "s",
    "lseries.point_terms": "count",
    "lseries.ns_per_point_term": "ns",
    "lseries.nonzero_term_ratio": "ratio",
    "lseries.computed_bytes": "B",
    "lseries.build_s": "s",
    "lseries.tables_built": "count",
    "lseries.primes_counted": "count",
    "dynamics.iterate_s": "s",
    "dynamics.self_s": "s",
    "dynamics.evals": "count",
    "dynamics.fit_s": "s",
    "pipeline.cache_hits": "count",
    "pipeline.cache_misses": "count",
    "pipeline.cache_read_s": "s",
    "pipeline.cache_write_s": "s",
    "pipeline.cache_bytes": "B",
    "pipeline.pgm_s": "s",
    "pipeline.observe_idle_s": "s",
    "catalog.load_s": "s",
    "catalog.sample_s": "s",
    "formal_group.expand_s": "s",
    "stats.correlate_s": "s",
    "trace.overhead_s": "s",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Harness:
    def __init__(self, root: Path, work: Path, args):
        self.root, self.work, self.args = root, work, args
        self.t_begin = time.monotonic()
        self.count = 0
        self.env = {k: v for k, v in os.environ.items() if k not in ("LFLOW_CATALOG", "LFLOW_CACHE")}
        self.env["PYTHONPATH"] = str(root / "src")

    def spawn(self, workload: str | None, trace: bool = False, record_env: bool = False):
        """One fresh worker process; returns (rep dir, wall s, cpu s, result or None)."""
        self.count += 1
        rep = self.work / f"rep{self.count}"
        (rep / "out").mkdir(parents=True)
        plan = {
            "root": str(self.root), "workload": workload, "size": self.args.size,
            "seed": self.args.seed, "threads": nproc(), "trace": trace, "record_env": record_env,
            "cache_dir": str(rep / "cache"), "out_dir": str(rep / "out"),
            "result": str(rep / "result.json"), "spans": str(rep / "spans.json"),
        }
        (rep / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        timeout = max(5.0, RUN_LIMIT_S - (time.monotonic() - self.t_begin))
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(rep / "stderr.txt", "wb") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), repr(t0), str(rep / "plan.json")],
                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
            )
            # A blocking wait returns as soon as the child exits; wait(timeout)
            # would poll and round wall times up to 50 ms steps.
            deadline = threading.Timer(timeout, proc.kill)
            deadline.start()
            try:
                rc = proc.wait()
            finally:
                deadline.cancel()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            wall = time.monotonic() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        result = None
        if rc == 0 and (rep / "result.json").exists():
            result = json.loads((rep / "result.json").read_text(encoding="utf-8"))
        else:
            tail = (rep / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"worker exited with {rc}:\n{tail}", file=sys.stderr)
        return rep, wall, cpu, result

    def elapsed(self) -> float:
        return time.monotonic() - self.t_begin


def sample_basis(values) -> str:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    values = sorted(values)
    text = f"median of n={len(values)}"
    for q in (99, 90, 75):
        if len(values) * (100 - q) >= 1000:
            p = statistics.quantiles(values, n=100)[q - 1]
            return f"{text}, p{q}={p:.6g}"
    return text


def repeat(h: Harness, name: str, trace: bool) -> list[dict]:
    """Repetitions back to back until the run's time is up; with trace,
    plain and traced alternate and the run ends after a traced one."""
    kinds = (False, True) if trace else (False,)
    reps = []
    while True:
        traced = kinds[len(reps) % len(kinds)]
        rep_dir, wall, cpu, res = h.spawn(name, trace=traced)
        outcome = checks.check(name, rep_dir / "out", h.args.size)
        if res is None or any(rc != 0 for _, rc in res["steps"]):
            outcome.failed = outcome.ops
            outcome.notes.append(f"worker or command failed: {res and res['steps']}")
        layers = None
        if traced and res is not None:
            spans = json.loads((rep_dir / "spans.json").read_text(encoding="ascii"))
            layers = tracer.layer_metrics(spans)
        reps.append({"traced": traced, "wall": wall, "cpu": cpu, "res": res,
                     "outcome": outcome, "layers": layers})
        shutil.rmtree(rep_dir)
        typical = statistics.median(r["wall"] for r in reps)
        if len(reps) % len(kinds) == 0 and h.elapsed() + typical > h.args.seconds:
            return reps
        if h.elapsed() + typical > RUN_LIMIT_S:
            return reps


def end_to_end(plain: list[dict], setup: list[float], ok_ratio: float) -> dict:
    if not plain:
        return {key: 0.0 for key in END_TO_END_UNITS} | {"ok_ratio": ok_ratio}
    return {
        "wall_s": statistics.median(r["wall"] for r in plain),
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(r["cpu"] for r in plain),
        "peak_rss_mb": statistics.median(r["res"]["maxrss_kb"] / 1024 for r in plain),
        "work_per_s": statistics.median(r["outcome"].work / r["wall"] for r in plain),
        "ok_ratio": ok_ratio,
    }


def per_layer(name: str, plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Medians of the traced repetitions' layer metrics, the tracing
    overhead, and report lines with self time per layer."""
    metrics = {
        key: statistics.median(r["layers"][0][key] for r in traced) if traced else 0.0
        for key in PER_LAYER_UNITS if key != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall"] for r in traced) - statistics.median(r["wall"] for r in plain)
        if plain and traced else 0.0
    )
    if name != "tables_sample2" and any(r["layers"][0]["dynamics.evals"] != r["outcome"].work
                                        for r in traced):
        print("trace: dynamics.evals differs from the evaluations the artifacts imply",
              file=sys.stderr)
    lines = []
    self_by_layer: dict[str, list] = {}
    for r in traced:
        for layer, secs in r["layers"][1].items():
            self_by_layer.setdefault(layer, []).append(secs)
    for layer, values in sorted(self_by_layer.items()):
        lines.append(f"self time {layer:<13} {statistics.median(values):.6f} s  "
                     f"({sample_basis(values)})")
    curves = [d for r in traced for d in r["layers"][2]]
    if curves:
        lines.append(f"per-curve span {statistics.median(curves):.6f} s  "
                     f"({sample_basis(curves)} curves)")
    return metrics, lines


def run(args, root: Path, work: Path) -> dict:
    h = Harness(root, work, args)
    name = args.workload

    # The first process also compiles lflow's bytecode and warms the file
    # cache, which a user does not pay on every run: it is not a sample.
    _, _, _, probe = h.spawn(None, record_env=True)
    env = {"nproc": nproc(), "os_cpu_count": os.cpu_count(), "threads_passed": nproc(),
           **(probe or {}).get("env", {})}
    setup = []
    for _ in range(SETUP_PROBES):
        _, _, _, res = h.spawn(None)
        if res:
            setup.append(res["setup_s"])

    reps = repeat(h, name, bool(args.trace))
    digests = {r["outcome"].digest for r in reps}
    if len(digests) > 1:
        for r in reps:
            r["outcome"].failed = r["outcome"].ops
            r["outcome"].notes.append("artifact digests differ between repetitions")
    attempted = sum(r["outcome"].ops for r in reps)
    failed = sum(r["outcome"].failed for r in reps)
    for r in reps:
        for note in r["outcome"].notes[:5]:
            print(f"check: {note}", file=sys.stderr)

    plain = [r for r in reps if not r["traced"] and r["res"] is not None]
    traced = [r for r in reps if r["traced"] and r["res"] is not None]
    setup += [r["res"]["setup_s"] for r in plain]
    if args.trace:
        metrics, lines = per_layer(name, plain, traced)
        units, n_samples = PER_LAYER_UNITS, len(traced)
    else:
        metrics, lines = end_to_end(plain, setup, 1.0 - failed / attempted), []
        units, n_samples = END_TO_END_UNITS, len(plain)

    digest = reps[0]["outcome"].digest
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    if args.size == "full" and args.seed == recorded["seed"] and name in recorded["sha256"]:
        match = "matches" if recorded["sha256"][name] == digest else "DIFFERS FROM"
        digest_note = f"{match} the recorded digest for seed {recorded['seed']}"
    else:
        digest_note = "no recorded digest for this seed and size"

    print(f"perfbench {name} seed={args.seed} size={args.size} trace={args.trace} "
          f"repetitions={len(reps)} ({n_samples} measured) run={h.elapsed():.1f} s")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"digest sha256={digest} ({digest_note})")
    print(f"ops attempted={attempted} failed={failed} fail_ratio={failed / attempted}")
    for key, value in metrics.items():
        basis = {"setup_s": f"median of n={len(setup)}",
                 "ok_ratio": f"{attempted - failed} of {attempted} ops"}.get(key, f"median of n={n_samples}")
        print(f"metric {key:<28} {value:.6g} {units[key]}  ({basis})")
    print("repetition wall_s " + " ".join(
        f"{r['wall']:.4f}{'t' if r['traced'] else ''}" for r in reps))
    for line in lines:
        print(line)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",),
                   help="one workload, or all of them in turn")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(wl.SIZES), default="full")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    # SIGTERM unwinds like an exception, so the running worker is killed
    # and waited for and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    for needed in ("src/lflow/cli.py", wl.CATALOG):
        if not (root / needed).is_file():
            print(f"perfbench: {needed} not found; run from the root of an lflow checkout",
                  file=sys.stderr)
            return 2
    (root / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".perfbench_work"))
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            (work / name).mkdir()
            results[name] = run(argparse.Namespace(**{**vars(args), "workload": name}), root, work / name)
            if len(names) > 1:
                print(json.dumps(results[name]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".perfbench_work").rmdir()
        except OSError:
            pass
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:  # one object for all workloads, metric names prefixed with the workload
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
