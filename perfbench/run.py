"""The repository benchmark: one seeded, self-checking command per workload.

Run from the repository root::

    python3 perfbench/run.py --workload ycsb_b_hot --seed 1 --seconds 20 --trace 0

``--trace 0`` runs one boot-load-warm-measure trial of the workload and
reports the end-to-end metrics.  It then repeats the set-up (boot, load,
warm-up) until ``--seconds`` have passed, at least three set-ups in all,
reports their median as ``setup_s`` and asserts that every set-up reached
exactly the same virtual state.  ``--trace 1`` runs an untraced trial, a
trial with the layer wrappers of ``layers.py``, a second untraced trial and
one under ``cProfile``, asserts that all four are virtually identical, and
reports the per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every op succeeded and every read returned the
expected bytes.  Metric names and units, and each workload's one-line
reason, are read from ``BENCHMARK.json`` next to this directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
MIN_TRIALS = 3


def _latency(samples_ns) -> dict:
    """Mid-quantile median and p99 in us, the sample count, and how many
    samples lie beyond the p99 (it is only supported when ten do)."""
    from workloads import mid_quantile

    p99 = mid_quantile(samples_ns, 0.99)
    return {"p50_us": mid_quantile(samples_ns, 0.5) / 1e3, "p99_us": p99 / 1e3,
            "n": len(samples_ns), "beyond_p99": sum(1 for v in samples_ns if v > p99)}


def virtual_record(trial) -> dict:
    """Everything that depends only on the simulation (exact for a seed)."""
    w = trial.window
    window_s = (w.end - w.start) / 1e9
    epoch_rates = [n / (window_s / len(w.per_epoch)) for n in w.per_epoch]
    half = len(epoch_rates) // 2
    first, last = sum(epoch_rates[:half]), sum(epoch_rates[-half:])
    return {
        "virt_ops_per_s": w.ops / window_s,
        "window_ns": [w.start, w.end],
        "window_ops": w.ops,
        "latency": {fam: _latency(v) for fam, v in w.lat_ns.items() if v},
        "attempted": trial.attempted,
        "failed": trial.failed,
        "failed_op_ratio": trial.failed / max(1, trial.attempted),
        "epoch_virt_ops_per_s": epoch_rates,
        # Near 1 when the window holds no cold start or drift.
        "steady_last_over_first": last / first if first else 0.0,
    }


def _print_record(record: dict) -> None:
    print(f"  window: {record['window_ops']} ops in {record['window_ns']} ns, "
          f"{record['virt_ops_per_s']:.6g} virtual ops/s")
    print("  virtual ops/s per epoch: " + ", ".join(
        f"{r:.4g}" for r in record["epoch_virt_ops_per_s"]))
    print(f"  steady state: last-half / first-half = "
          f"{record['steady_last_over_first']:.4f}")
    for fam, lat in record["latency"].items():
        note = "" if lat["beyond_p99"] >= 10 else " (p99 unsupported: <10 beyond)"
        print(f"  {fam}: p50 {lat['p50_us']:.4f} us, p99 {lat['p99_us']:.4f} us, "
              f"n={lat['n']}, {lat['beyond_p99']} beyond p99{note}")
    print(f"  ops attempted {record['attempted']}, failed {record['failed']}, "
          f"failed_op_ratio {record['failed_op_ratio']}")


def _e2e_values(record: dict) -> dict:
    out = {"virt_ops_per_s": record["virt_ops_per_s"],
           "failed_op_ratio": record["failed_op_ratio"]}
    for fam, lat in record["latency"].items():
        if fam != "readback":
            out[f"{fam}_p50_us"] = lat["p50_us"]
            out[f"{fam}_p99_us"] = lat["p99_us"]
    return out


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _unit(name: str, units: dict) -> str:
    """Unit of a metric: from ``BENCHMARK.json``, else of a report-only one."""
    return units.get(name) or ("us" if name.endswith("_us") else "ratio")


def _select(values: dict, units: dict) -> dict:
    """The final JSON's metrics: exactly the ones ``BENCHMARK.json`` names."""
    missing = sorted(set(units) - set(values))
    if missing:
        raise SystemExit(f"perfbench: no value measured for {missing}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run_plain(wl, seed, seconds, run_trial, units):
    """``--trace 0``: one measured trial, then more set-ups until
    ``seconds`` have passed (at least ``MIN_TRIALS`` set-ups in all)."""
    start = time.perf_counter()
    trials = [run_trial(wl, seed)]
    while len(trials) < MIN_TRIALS or time.perf_counter() - start < seconds:
        trials.append(run_trial(wl, seed, measure=False))
    first = trials[0]
    deterministic = all(t.setup_signature == first.setup_signature for t in trials)
    record = virtual_record(first)
    values = _e2e_values(record)
    values["setup_s"] = statistics.median(t.setup_s for t in trials)
    values["host_ops_per_s"] = first.window.ops / first.window_cpu_s
    values["host_peak_rss_mb"] = _peak_rss_mb()
    record["setup_s_per_trial"] = [t.setup_s for t in trials]
    record["window_cpu_s"] = first.window_cpu_s

    print(f"set-ups: {len(trials)} (identical virtual state: {deterministic}); "
          "seconds: " + ", ".join(f"{t.setup_s:.3f}" for t in trials))
    print(f"  measured window: {first.window_cpu_s:.3f} s of CPU")
    _print_record(record)
    print("end-to-end:")
    for name in sorted(values):
        print(f"  {name} = {values[name]:.6g} {_unit(name, units)}")
    print("record: " + json.dumps(record, sort_keys=True))
    return first, deterministic, _select(values, units)


def run_traced(wl, seed, run_trial, units):
    """``--trace 1``: untraced, wrapped, untraced again and profiled trials,
    per-layer metrics.  The wrapped trial sits between the two untraced ones,
    so ``trace.overhead`` is not biased by trial order or by a steady drift
    of host speed; it still cannot resolve differences below the host's
    run-to-run noise."""
    from layers import LayerTrace, Profile

    base = run_trial(wl, seed)
    with LayerTrace() as layer:
        traced = run_trial(wl, seed, hooks=layer)
    base2 = run_trial(wl, seed)
    profile = Profile()
    profiled = run_trial(wl, seed, hooks=profile)
    record = virtual_record(base)
    # The wrappers must not have changed one simulated event.
    same = (len({t.signature for t in (base, traced, base2, profiled)}) == 1
            and virtual_record(traced) == record)

    m = dict(layer.metrics)
    m.update(profile.metrics)
    events = layer.window_events
    untraced_cpu_s = (base.window_cpu_s + base2.window_cpu_s) / 2
    m["host_ops_per_s"] = base.window.ops / untraced_cpu_s
    m["sim.host_ns_per_event"] = untraced_cpu_s * 1e9 / events if events else 0.0
    m["trace.overhead"] = traced.window_cpu_s / untraced_cpu_s
    record["utilization"] = layer.utilization
    record["window_cpu_s"] = {"untraced": [base.window_cpu_s, base2.window_cpu_s],
                              "traced": traced.window_cpu_s,
                              "profiled": profiled.window_cpu_s}

    print(f"traced run (virtual metrics identical to untraced: {same})")
    _print_record(record)
    print("utilization: " + json.dumps(layer.utilization, sort_keys=True))
    print("per-layer:")
    for name in sorted(m):
        print(f"  {name} = {m[name]:.6g} {_unit(name, units)}")
    print("record: " + json.dumps(record, sort_keys=True))
    return base, same, _select(m, units)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for path in (SRC / "repro", SPEC):
        if not path.exists():
            print(f"perfbench: {path} not found", file=sys.stderr)
            return 2
    spec = json.loads(SPEC.read_text())
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, run_trial

    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in WORKLOADS or args.workload not in why:
        parser.error(f"--workload must be one of {sorted(why)}")
    wl = WORKLOADS[args.workload]
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {why[wl.name]}")
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        trial, consistent, metrics = run_traced(wl, args.seed, run_trial, units)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        trial, consistent, metrics = run_plain(wl, args.seed, args.seconds, run_trial,
                                               units)
    for err in trial.errors:
        print("error: " + err.strip().replace("\n", "\n  "))
    correct = consistent and trial.failed == 0
    print(json.dumps({"correct": correct, "attempted": trial.attempted,
                      "failed": trial.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
