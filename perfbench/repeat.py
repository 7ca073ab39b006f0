"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workloads transduce compose --seeds 1-10 --out runs.jsonl

Each run is a separate process (`run.py` with its defaults, so with the
run_seconds of BENCHMARK.json), one after the other.  Every
result line is appended to `--out`; the summary gives, per workload and
metric, the median, the quartiles and the spread (interquartile range
over median, from `statistics.quantiles(values, n=4)`).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(rows):
    out = {}
    for name in rows[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in rows]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {
            "unit": rows[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="first-last")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    for workload in args.workloads:
        rows = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            row = json.loads(proc.stdout.strip().splitlines()[-1])
            row.update(workload=workload, seed=seed, trace=args.trace, wall_s=time.perf_counter() - start)
            with args.out.open("a") as fh:
                fh.write(json.dumps(row) + "\n")
            rows.append(row)
        ok = all(r["correct"] and r["failed"] == 0 for r in rows)
        walls = [r["wall_s"] for r in rows]
        print(f"{workload}: {len(rows)} runs, all correct and none failed: {ok}; "
              f"wall {min(walls):.1f}-{max(walls):.1f} s per run")
        for name, s in summarise(rows).items():
            print(f"  {name:24s} median {s['median']:12.5g} {s['unit']:6s} "
                  f"q1 {s['q1']:12.5g} q3 {s['q3']:12.5g} spread {s['spread']:.3f}")


if __name__ == "__main__":
    main()
