"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload ycsb_b_hot --seeds 1-10 --seconds 20

For every metric of the final JSON line it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, ``(q3 - q1) /
median``, next to the metric's bound from ``BENCHMARK.json`` and a third of
it.  ``--out FILE`` also writes every run's metrics and the summary as JSON.
Runs go one after another, so they do not compete for the CPU.
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


def _seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _bounds() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m.get("bound") for m in spec["end_to_end"]}


def summarize(runs, bounds) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else 0.0,
                         "bound": bounds.get(name)}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    runs = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        result["seed"] = seed
        records = [ln for ln in lines if ln.startswith("record: ")]
        if records:
            result["record"] = json.loads(records[-1][len("record: "):])
        runs.append(result)
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    summary = summarize(runs, _bounds())
    print(f"{'metric':28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound/3':>8}")
    worst = True
    for name, s in summary.items():
        third = s["bound"] / 3 if s["bound"] is not None else None
        ok = "" if third is None or name == "setup_s" else (
            "ok" if s["spread"] < third else "WIDE")
        worst = worst and ok != "WIDE"
        print(f"{name:28} {s['median']:14.6g} {s['q1']:14.6g} {s['q3']:14.6g} "
              f"{s['spread']:8.4f} {third if third is not None else float('nan'):8.4f} {ok}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seeds": args.seeds,
                                        "seconds": args.seconds, "trace": args.trace,
                                        "runs": runs, "summary": summary},
                                       indent=1, sort_keys=True) + "\n")
    return 0 if worst else 3


if __name__ == "__main__":
    sys.exit(main())
