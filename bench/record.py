"""Steadiness check and trajectory record for the benchmark.

    python3 bench/record.py [--workloads W ...] [--seeds 1-10] [--sets 1] [--append]

Runs every workload once per seed, as ``run.py`` does, with ``run_seconds``
from BENCHMARK.json.  For each end-to-end metric it prints the median over
the seeds and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound.  With ``--sets 2`` the seeds run twice and the second
median is compared with the first.  ``--append`` also makes one traced run
per workload and appends one JSON line to ``bench/trajectory.jsonl``: the
commit, machine and library versions, the medians and spreads, the
per-layer numbers and the output digest of every seed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def machine(versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True)
    return {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "commit": git.stdout.strip() or "unknown",
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "versions": versions,
        "threads": run.THREAD_ENV,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=list(workloads.NAMES), choices=workloads.NAMES)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--append", action="store_true", help="append the first set to bench/trajectory.jsonl")
    args = ap.parse_args(argv)
    seconds = BENCHMARK["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    entry = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    worst = 0.0
    for name in args.workloads:
        sets = []
        for _ in range(args.sets):
            results = {seed: run.run_workload(name, seed, seconds, trace=False) for seed in args.seeds}
            sets.append(results)
        first = sets[0]
        record = {"end_to_end": {}, "digests": {s: r["digest"] for s, r in first.items()},
                  "attempted": sum(r["line"]["attempted"] for r in first.values()),
                  "failed": sum(r["line"]["failed"] for r in first.values())}
        print(f"{name}: {len(args.seeds)} seeds x {args.sets} set(s), {record['failed']} of "
              f"{record['attempted']} operations failed")
        for key, unit in run.END_TO_END.items():
            stats = [spread([r["line"]["metrics"][key]["value"] for r in s.values()]) for s in sets]
            record["end_to_end"][key] = dict(stats[0], unit=unit)
            shift = [st["median"] / stats[0]["median"] - 1.0 for st in stats[1:]]
            print(f"  {key:<18} median {stats[0]['median']:<12.6g} {unit:<4} spreads "
                  + " ".join(f"{st['spread']:.4f}" for st in stats)
                  + f"  bound {bounds[key]}" + (f"  set medians vs first {shift}" if shift else ""))
            print("    values " + " ".join(f"{r['line']['metrics'][key]['value']:.4g}" for s in sets for r in s.values()))
            if key != "setup_s":
                worst = max(worst, max(st["spread"] for st in stats) / bounds[key])
        if args.append:
            traced = run.run_workload(name, args.seeds[0], seconds, trace=True)
            record["per_layer"] = {k: v["value"] for k, v in traced["line"]["metrics"].items()}
            entry.setdefault("machine", machine(traced["first"]["versions"]))
        entry["workloads"][name] = record
    print(f"largest spread over bound (setup_s excluded): {worst:.3f}")
    if args.append:
        with open(run.TRAJECTORY, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry) + "\n")
        print(f"appended to {run.TRAJECTORY}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
