#!/usr/bin/env python3
"""The etass benchmark: one closed-loop client, one solve at a time.

    python3 perfbench/run.py --workload verify64 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a source checkout; the package is imported from
its `src/`.  Each solve is a fresh child process (perfbench/solve.py)
with ETASS_THREADS removed from its environment.  The loop starts
another solve while the measured time plus the median solve time still
fits in --seconds, so a run holds at least one solve.  Set-up is also
measured by a few import-only children.

With --trace 0 the end-to-end metrics are medians over the run's
solves.  With --trace 1 the run alternates untraced and traced solves;
the metrics are the per-layer ones of the traced solves plus the
tracing overhead (traced minus untraced wall time).  Every solve's
output is checked; the last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  The full record
(environment, every sample, quartiles, failures, spans) is written
under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 7
# a run, set-up probes included, must end within 180 s
HARD_LIMIT_S = 165.0

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "etass_threads_in_parent": os.environ.get("ETASS_THREADS"),
        "etass_threads_in_child": None,
    }


def host_probe_s() -> float:
    """Seconds for a fixed pure-Python loop in this process.  It tells a
    host that ran slow (CPU shared with other tenants) from a program that
    got slower: the loop's code never changes."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ETASS_THREADS", None)
    return env


def run_child(args: list[str], out: Path, timeout: float) -> dict:
    """Spawn solve.py, wait for it, and return its timings and record."""
    cmd = [sys.executable, str(HERE / "solve.py"), *args, "--out", str(out)]
    with open(out.with_suffix(".stderr"), "wb") as err:
        spawned = time.time()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = json.loads(out.read_text()) if out.is_file() else {}
    sample = {
        "exit": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "setup_s": record["t_ready"] - spawned if "t_ready" in record else None,
        "error": record.get("error"),
    }
    if proc.returncode != 0 and not sample["error"]:
        tail = out.with_suffix(".stderr").read_text(errors="replace")[-2000:]
        sample["error"] = f"exit {proc.returncode}: {tail}"
    return {**record, **sample}


def quartiles(values: list[float]) -> dict:
    values = sorted(values)
    q1, _, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    )
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": values[0], "max": values[-1], "n": len(values)}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    run_dir = ROOT / ".bench_out" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = environment()
    env["loadavg_1m_start"] = os.getloadavg()[0]
    env["host_probe_s_start"] = host_probe_s()

    def left() -> float:
        return max(5.0, HARD_LIMIT_S - (time.perf_counter() - start))

    # the first import compiles bytecode; users pay that once, not per run
    run_child(["--setup-only"], run_dir / "probe-warm.json", left())
    probes = [
        run_child(["--setup-only"], run_dir / f"probe-{i}.json", left())
        for i in range(SETUP_PROBES)
    ]

    solves = []
    loop_start = time.perf_counter()
    while True:
        traced = trace and len(solves) % 2 == 1
        workdir = run_dir / "work"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir()
        i = len(solves)
        sample = run_child(
            ["--workload", name, "--seed", str(seed), "--trace", str(int(traced)),
             "--workdir", str(workdir)],
            run_dir / f"solve-{i}.json",
            left(),
        )
        sample["traced"] = traced
        sample["checks"] = sample.get("checks", []) + [
            (f"solve exited {sample['exit']}", sample["exit"] == 0)
        ]
        if name in workloads.OUTPUT_CHECKS:
            sample["checks"] += workloads.OUTPUT_CHECKS[name](workdir)
        if name in workloads.MIN_VERIFIED:
            least = workloads.MIN_VERIFIED[name]
            sample["checks"].append((
                f"gf2 replay covers at least {least} bidegrees",
                sample.get("verified_bidegrees", 0) >= least,
            ))
        sample["checks"] += [(p, False) for p in sample.get("trace_checks", [])]
        solves.append(sample)

        done = time.perf_counter()
        typical = statistics.median(s["wall_s"] for s in solves)
        need_traced = trace and len(solves) < 2
        if done + typical - start > HARD_LIMIT_S:
            break
        if not need_traced and done + typical - loop_start > seconds:
            break

    env["loadavg_1m_end"] = os.getloadavg()[0]
    env["host_probe_s_end"] = host_probe_s()
    untraced = [s for s in solves if not s["traced"]]
    traced_solves = [s for s in solves if s["traced"]]

    setups = [s["setup_s"] for s in probes + untraced if s["setup_s"] is not None]
    stats = {
        "wall_s": quartiles([s["wall_s"] for s in untraced]),
        "cpu_s": quartiles([s["cpu_s"] for s in untraced]),
        "setup_s": quartiles(setups) if setups else None,
        "peak_rss_mb": quartiles([s["peak_rss_mb"] for s in untraced]),
    }
    verified = [s.get("verified_bidegrees", 0) for s in untraced]
    if trace:
        layers = {}
        for key in PER_LAYER:
            values = [s["layers"][key] for s in traced_solves if key in s.get("layers", {})]
            if values:
                layers[key] = statistics.median(values)
        if traced_solves and untraced:
            layers["trace.untraced_wall_s"] = stats["wall_s"]["median"]
            layers["trace.traced_wall_s"] = statistics.median(s["wall_s"] for s in traced_solves)
            layers["trace.overhead_s"] = layers["trace.traced_wall_s"] - layers["trace.untraced_wall_s"]
        units = PER_LAYER
    else:
        layers = {k: stats[k]["median"] for k in END_TO_END if stats.get(k)}
        units = END_TO_END
    metrics = {k: {"value": layers[k], "unit": unit} for k, unit in units.items() if k in layers}
    checks = [c for s in solves for c in s["checks"]]
    checks += [(f"metric {k} measured", k in layers) for k in units]
    failures = [n for n, ok in checks if not ok]
    attempted, failed = len(checks), len(failures)
    failures += [f"solve error: {s['error']}" for s in solves if s.get("error")]
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "loop": "closed, 1 client, 1 solve in flight",
        "environment": env,
        "stats": stats,
        "verified_bidegrees": verified,
        "failed_ratio": {"failed": failed, "attempted": attempted,
                         "value": failed / attempted if attempted else 1.0},
        "failures": failures[:50],
        "metrics": metrics,
        "setup_probes": probes,
        "solves": [{k: v for k, v in s.items() if k not in ("trace", "checks")}
                   for s in solves],
        "elapsed_s": time.perf_counter() - start,
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    shutil.rmtree(run_dir / "work", ignore_errors=True)
    return result


def print_summary(r: dict) -> None:
    n = len(r["solves"])
    env = r["environment"]
    print(f"{r['workload']} seed={r['seed']}: {n} solves in {r['elapsed_s']:.1f} s "
          f"({r['loop']}), trace={int(r['trace'])}; host probe "
          f"{env['host_probe_s_start']:.3f} s at start, {env['host_probe_s_end']:.3f} s at end")
    for key, unit in END_TO_END.items():
        s = r["stats"][key]
        if s:
            print(f"  {key:<20} {s['median']:12.4f} {unit:<5} median of {s['n']}, "
                  f"q1 {s['q1']:.4f}, q3 {s['q3']:.4f}")
    fr = r["failed_ratio"]
    print(f"  {'failed_ratio':<20} {fr['value']:12.4f} {'1':<5} "
          f"{fr['failed']} failed of {fr['attempted']} checks")
    print(f"  {'verified_bidegrees':<20} {max(r['verified_bidegrees'], default=0):12d} "
          f"{'count':<5} per solve, min {min(r['verified_bidegrees'], default=0)}")
    if r["trace"]:
        for key, m in r["metrics"].items():
            print(f"  {key:<28} {m['value']:14.4f} {m['unit']}")
    for failure in r["failures"][:10]:
        print(f"  FAIL {failure[:300]}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "etass" / "cli.py").is_file():
        print(f"error: no etass source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        r = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_summary(r)
        results.append(r)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    attempted = sum(r["failed_ratio"]["attempted"] for r in results)
    failed = sum(r["failed_ratio"]["failed"] for r in results)
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
