"""Benchmark entry point.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

Run from the repository root. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). The line before it starts with ``perfbench-context`` and
holds the counts, sample sizes, host probes and the per-workload figures.
``--workload all`` runs every workload, untraced and traced, each in its
own process, and prints one table.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOAD_NAMES = ("serve", "batch_zipf", "ingest", "dedup")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_one(args) -> int:
    sys.path.insert(0, ROOT)
    try:
        import infidex_ray  # noqa: F401
    except ImportError as e:
        print(f"perfbench: cannot import the program from {ROOT}: {e}", file=sys.stderr)
        return 2
    # Ray workers start from a fresh interpreter: they find infidex_ray and
    # perfbench through this path
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    from perfbench import host, workloads
    from perfbench.trace import Tracer, instrument

    out_dir = os.path.join(ROOT, ".perfbench_out")
    work = os.path.join(ROOT, ".pbw", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    tracer = Tracer(bool(args.trace))
    run = workloads.Run(work, args.seed, tracer)
    setup_fn, once_fn, phase_fn = workloads.WORKLOADS[args.workload]
    probe_before = host.alu_probe()
    cpu_before = host.cpu_times()
    t_start = time.perf_counter()

    def log(what):
        print(f"perfbench: {what} at {time.perf_counter() - t_start:.1f}s", file=sys.stderr)

    try:
        ray_init_s = host.start_ray(work)
        run.rss.reset()
        rss_ray_mb = run.rss.mb  # Ray and this interpreter, before any program work
        with instrument(tracer) if args.trace else contextlib.nullcontext():
            setup_s = ray_init_s + run.setup(setup_fn, once_fn)
            log("set-up done")
            result = phase_fn(run, args.seconds)
            log("timed phase and checks done")
            peak_mb = run.rss.mb
            detail = dict(run.detail, rss_ray_start_mb=rss_ray_mb,
                          rss_phase_start_mb=run.rss.start_mb)
            if args.trace:
                workloads.sweep(run)
                log("layer sweep done")
        run.close()
    finally:
        host.stop_ray()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))  # only when no other run is using it
        log("ray stopped")
    steal = host.steal_share(cpu_before, host.cpu_times())
    probe_after = host.alu_probe()

    if args.trace:
        tracer.write(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json"))
        metrics = {k: metric(v, u) for k, (v, u) in workloads.layer_metrics(run).items()}
    else:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(peak_mb, "MB"),
            "throughput_per_s": metric(result["throughput"], "1/s"),
            "latency_p50_ms": metric(result["latency_ms"], "ms"),
        }
    counts = {k: (sorted(v) if isinstance(v, set) else v) for k, v in run.counts.items()}
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ray_init_s": ray_init_s, "detail": detail,
        "counts": counts, "failures": run.failures,
        "alu_mops_before": probe_before, "alu_mops_after": probe_after,
        "cpu_steal_share": steal,
    }
    print("perfbench-context " + json.dumps(context, default=float), flush=True)
    missing = [k for k, v in metrics.items() if v["value"] is None]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed, "metrics": metrics,
    }), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload untraced then traced, in fresh processes."""
    rows, ok = [], True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                ok = False
                continue
            ctx = json.loads(lines[-2].split(" ", 1)[1])
            rows.append((name, trace, json.loads(lines[-1]), ctx, time.perf_counter() - t0))
    traced_p50 = untraced_p50 = None
    for name, trace, res, ctx, wall in rows:
        print(f"== {name} trace={trace} correct={res['correct']} "
              f"failed/attempted={res['failed']}/{res['attempted']} wall={wall:.1f}s")
        for k, v in res["metrics"].items():
            print(f"   {k:34s} {v['value']:14.4f} {v['unit']}")
        if not trace:
            for k, v in ctx["detail"].items():
                if isinstance(v, (int, float)):
                    print(f"   detail.{k:27s} {v:14.4f}")
            print(f"   counts {json.dumps(ctx['counts'])}")
        if name == "serve":
            if trace:
                traced_p50 = res["metrics"]["query.executor.search_ms"]["value"]
            else:
                untraced_p50 = ctx["detail"]["query_p50_ms"]
    if traced_p50 is not None and untraced_p50 is not None:
        print(f"tracing overhead on query_p50_ms: {traced_p50 - untraced_p50:+.2f} ms "
              f"({traced_p50:.2f} traced vs {untraced_p50:.2f} untraced)")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
