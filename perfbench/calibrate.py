"""Measure the reference table of one workload's population.

    python3 perfbench/calibrate.py --workload compose

Runs every unit of the population once, in order, untraced, and writes
perfbench/reference/<workload>.json: each unit's cost (the time of its
package calls, as a run times them; used only to draw balanced samples)
and the digests of its answers (the reference every benchmark run is
checked against).  A unit whose oracle rejects an answer, or that raises,
stops the calibration: the reference must come from answers that pass.
"""

import argparse
import json
import os
import platform
import sys

from run import HERE, Speed, import_package, run_unit


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["transduce", "compose", "certify", "trees"])
    args = ap.parse_args(argv)
    workloads, _, _ = import_package()
    from paritykit.errors import ParityKitError
    from spans import NullTracer

    tracer = NullTracer()
    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(tracer)
    speed = Speed()
    units = {}
    for unit in wl.units:
        label = wl.label(unit)
        answers = []
        cost = 0.0
        for kind, wall, _, _, payload in run_unit(wl, unit, tracer, ParityKitError, speed):
            cost += wall
            if kind == "error":
                sys.exit(f"calibrate: {label}#{len(answers)} raised {type(payload).__name__}: {payload}")
            if kind == "instance":
                ok, answer = payload()
                if not ok:
                    sys.exit(f"calibrate: oracle rejected {label}#{len(answers)}")
                answers.append(answer)
        units[label] = {"cost_ms": round(cost * 1000, 3), "answers": answers}
    out = {
        "workload": args.workload,
        "population_seed": workloads.ACCEPTANCE_SEED,
        "measured_on": {"python": platform.python_version(), "nproc": os.cpu_count()},
        "total_cost_s": round(sum(u["cost_ms"] for u in units.values()) / 1000, 3),
        "units": units,
    }
    path = HERE / "reference" / f"{args.workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    print(f"{args.workload}: {len(units)} units, {out['total_cost_s']} s, wrote {path}")


if __name__ == "__main__":
    main()
