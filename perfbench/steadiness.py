"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/steadiness.py --workload audit --seeds 1 2 3 4 5 --seconds 32
    python3 perfbench/steadiness.py --workload audit --seeds 7 7 --seconds 32 --trace 1

For each metric it prints the median and the spread, the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median.  With ``--trace 1`` it also reports whether the count
metrics (calls, iterations, failures) were identical across the runs,
which they must be when every seed is the same.  Raw results go to
``.perfbench_out/steadiness-<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import COUNT_METRICS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run failed (seed {seed}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=int, default=32)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    results = []
    for seed in args.seeds:
        res = run_once(args.workload, seed, args.seconds, args.trace)
        results.append(res)
        row = {k: round(v["value"], 4) for k, v in res["metrics"].items()}
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']} {row}",
              flush=True)
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        spread = None
        if len(values) >= 2 and med:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med)
        summary[name] = {"median": med, "spread": spread}
        shown = "n/a" if spread is None else f"{spread:.4f}"
        print(f"{name:45s} median {med:.6g}  spread {shown}")
    if args.trace and len(set(args.seeds)) == 1:
        differing = [
            m for m in COUNT_METRICS
            if len({r["metrics"][m]["value"] for r in results}) != 1
        ]
        summary["count_metrics_identical"] = not differing
        print("count metrics identical:", not differing, differing or "")
    out = ROOT / ".perfbench_out" / f"steadiness-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"args": vars(args), "results": results, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
