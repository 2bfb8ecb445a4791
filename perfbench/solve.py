"""One solve of one workload, in its own process.

    python3 perfbench/solve.py --workload NAME --seed N --trace 0|1 \\
        --workdir DIR --out FILE
    python3 perfbench/solve.py --setup-only --out FILE

Set-up ends when `etass.cli` has been imported; the wall-clock time of
that moment goes into FILE, so the parent can subtract its spawn time.
The solve's checks, the bidegrees replayed through gf2, and with
--trace 1 the per-layer metrics and spans, are written to FILE as JSON.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import etass.cli  # noqa: E402  (set-up is this import)

T_READY = time.time()

import argparse  # noqa: E402
import json  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT_SPAN = "perfbench.solve"


def count_replays(counts: dict) -> None:
    """Sum what verify_transition returns, at both of its call sites."""
    from etass import adams, bockstein

    for mod in (bockstein, adams):
        fn = mod.verify_transition

        def counted(*args, _fn=fn, **kwargs):
            checked = _fn(*args, **kwargs)
            counts["verified_bidegrees"] += checked
            return checked

        mod.verify_transition = counted


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workdir", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    result: dict = {"t_ready": T_READY, "etass_file": etass.cli.__file__}
    src = (ROOT / "src").resolve()
    if not Path(etass.cli.__file__).resolve().is_relative_to(src):
        result["error"] = f"etass imported from {etass.cli.__file__}, not {src}"
    if args.setup_only or "error" in result:
        args.out.write_text(json.dumps(result), encoding="utf-8")
        return 0 if "error" not in result else 1

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    counts = {"verified_bidegrees": 0}
    count_replays(counts)
    span = tracer.span if tracer else (lambda name: nullcontext())
    try:
        with span(ROOT_SPAN):
            checks = workloads.WORKLOADS[args.workload](args.seed, args.workdir, span)
    except Exception:
        result["error"] = traceback.format_exc()
        checks = []
    result["checks"] = checks
    result.update(counts)
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, ROOT_SPAN)
        result["layers"]["verified_bidegrees"] = counts["verified_bidegrees"]
        result["trace_checks"] = tracer.check(ROOT_SPAN)
        result["trace"] = tracer.dump()
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0 if "error" not in result else 1


if __name__ == "__main__":
    sys.exit(main())
