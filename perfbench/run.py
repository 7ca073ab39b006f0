"""paritykit benchmark runner.

    python3 perfbench/run.py --workload transduce --seed 21057 --trace 0

Runs one workload in this process, single-threaded, as a closed loop (one
instance at a time).  The workload's population comes from the acceptance
seed; `--seed` draws the run's sample from it, stratified by reference
cost and balanced so that every run carries the heavy tail in proportion
(`sample_plan`; perfbench/README.md says why).  The sample is fixed work
that takes `--seconds` (default: run_seconds of BENCHMARK.json) at the
reference speed, so a faster or slower program runs the same instances.
Every time is scaled to the reference speed by a probe of the machine's
speed taken around and during each run (`Speed`).  Every answer is
checked by the benchmark's own oracle and against the stored reference
answers.

The last line of standard output is one JSON object: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
# set-up (import, population) is measured at least this many times, and up
# to three times as often while the repeats take under a second in all
SETUP_REPEATS = 3
# the speed probe's typical time on the baseline machine; every time metric
# is scaled to this speed (perfbench/README.md says why)
PROBE_REFERENCE_S = 2.0e-4
# the probe runs about this often (seconds): from a timer while package
# calls run, and between runs
PROBE_TICK_S = 0.025


def probe_graph(vertices=1000, seed=1):
    """A fixed random game graph for the speed probe: predecessor lists,
    owners and out-degrees of 1,000 vertices with two successors each."""
    rng = random.Random(seed)
    pred = [[] for _ in range(vertices)]
    for v in range(vertices):
        for _ in range(2):
            pred[rng.randrange(vertices)].append(v)
    owner = [rng.random() < 0.5 for _ in range(vertices)]
    return pred, owner, [2] * vertices


PROBE_GRAPH = probe_graph()


def probe_attractor():
    """The attractor of ten vertices in PROBE_GRAPH, in plain Python: the
    kind of work the solvers do, without calling paritykit and with three
    allocations only (so it does not drive the cyclic collector)."""
    pred, owner, degree = PROBE_GRAPH
    count = degree[:]
    attractor = set(range(10))
    queue = list(attractor)
    while queue:
        for v in pred[queue.pop()]:
            if v in attractor:
                continue
            count[v] -= 1
            if owner[v] or not count[v]:
                attractor.add(v)
                queue.append(v)
    return len(attractor)


def speed_probe():
    """(wall s, cpu s) of probe_attractor.  It runs twice and the second
    run is timed, so that the probe finds its data in the caches and its
    time follows the speed the machine gives this process at that moment,
    not the cache state the last instance left behind."""
    probe_attractor()
    t0, c0 = time.perf_counter(), time.process_time()
    probe_attractor()
    return time.perf_counter() - t0, time.process_time() - c0


class Speed:
    """Times runs of package calls and scales them to the reference speed.

    The probe runs before the first run, after a run when the last probe
    is at least PROBE_TICK_S old and, with `ticks`, every PROBE_TICK_S
    while a run is going (from a timer signal).  A run is scaled by the
    mean of the probes from the last one before it to the one after it, so
    a long run is scaled by the speed over its whole length; the time the
    probes inside a run took is taken out of its time."""

    def __init__(self, ticks=True):
        self.ticks = ticks
        self.before = speed_probe()
        self.probed_at = time.perf_counter()
        self.probes = [self.before]
        self.inside = []
        if ticks:
            signal.signal(signal.SIGALRM, self._on_tick)

    def _on_tick(self, signum, frame):
        t0, c0 = time.perf_counter(), time.process_time()
        probe = speed_probe()
        self.probed_at = time.perf_counter()
        self.inside.append((probe, self.probed_at - t0, time.process_time() - c0))

    def start(self):
        self.inside = []
        if self.ticks:
            signal.setitimer(signal.ITIMER_REAL, PROBE_TICK_S, PROBE_TICK_S)
        self.t0, self.c0 = time.perf_counter(), time.process_time()

    def stop(self):
        """(wall s, cpu s) of the run since `start`, at the reference speed,
        and its wall time as measured."""
        now, cpu = time.perf_counter(), time.process_time() - self.c0
        if self.ticks:
            signal.setitimer(signal.ITIMER_REAL, 0)
        inside = self.inside
        wall = now - self.t0 - sum(w for _, w, _ in inside)
        cpu -= sum(c for _, _, c in inside)
        probes = [self.before, *(p for p, _, _ in inside)]
        if now - self.probed_at >= PROBE_TICK_S:
            self.before = speed_probe()
            self.probed_at = time.perf_counter()
            probes.append(self.before)
        elif inside:
            self.before = probes[-1]
        self.probes += probes[1:]
        scale = [PROBE_REFERENCE_S / statistics.fmean(p[j] for p in probes) for j in (0, 1)]
        return wall * scale[0], cpu * scale[1], wall

    def slowdown(self):
        """The probes' median time over the reference time."""
        return statistics.median(w for w, _ in self.probes) / PROBE_REFERENCE_S


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["transduce", "compose", "certify", "trees"])
    ap.add_argument("--seed", type=int, default=21057)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def import_package():
    """Import paritykit from this checkout's src/ (never an installed copy).
    Returns (workloads module, import seconds: the median of repeated fresh
    imports of paritykit and the workloads built on it, as measured and at
    the reference speed)."""
    src = ROOT / "src"
    if not (src / "paritykit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no paritykit sources under {src}")
    sys.path.insert(0, str(src))
    speed, times, scaled = Speed(), [], []
    while len(times) < SETUP_REPEATS or (len(times) < 3 * SETUP_REPEATS and sum(times) < 1.0):
        for name in [m for m in sys.modules if m == "workloads" or m.partition(".")[0] == "paritykit"]:
            del sys.modules[name]
        speed.start()
        import workloads

        wall, _, raw = speed.stop()
        times.append(raw)
        scaled.append(wall)
    import paritykit

    if Path(paritykit.__file__).resolve().parent != (src / "paritykit").resolve():
        sys.exit(f"perfbench: imported paritykit from {paritykit.__file__}, not {src}")
    return workloads, statistics.median(times), statistics.median(scaled)


def sample_plan(costs, seconds, seed, tries=5000):
    """The run's seeded sample: (unit indices, k, passes).

    A population that costs at most `seconds` at reference speed is the
    sample itself, run in as many passes as make up `seconds`.  A larger
    one, sorted by reference cost, is cut into strata of k units (at least
    2, so that the seed has a choice), k chosen so that one pick per
    stratum costs about `seconds`, and runs in one pass.  The most costly
    stratum gives its median unit; the seed draws the pick in every other
    stratum, and the picks are redrawn until the sample's reference cost
    is within 1% of its expectation, and its median and tail (the
    11th-largest cost) within 2% of the typical (rejective balanced
    sampling; the best of `tries` draws otherwise)."""
    total_cost = sum(costs)
    budget = seconds * 1000
    if total_cost <= budget:
        return list(range(len(costs))), 1, max(1, round(budget / total_cost))
    k = max(2, round(total_cost / budget))
    order = sorted(range(len(costs)), key=lambda i: (-costs[i], i))
    strata = [order[i : i + k] for i in range(0, len(order), k)]

    # the most costly stratum gives its median unit to every sample: that
    # unit runs first and sets peak_rss_mb (see run_timed)
    top = strata[0][len(strata[0]) // 2]

    def build(rng):
        return [top] + [s[rng.randrange(len(s))] for s in strata[1:]]

    def total(plan):
        return sum(costs[i] for i in plan)

    def median(plan):
        return statistics.median(costs[i] for i in plan)

    def tail(plan):
        return sorted(costs[i] for i in plan)[-min(11, len(plan))]

    # targets: the expectation, and medians over unconstrained samples; the
    # same for every seed
    fixed = random.Random(0)
    typical = [build(fixed) for _ in range(101)]
    targets = [
        (total, costs[top] + sum(statistics.fmean(costs[i] for i in s) for s in strata[1:]), 0.01),
        (median, statistics.median(map(median, typical)), 0.02),
        (tail, statistics.median(map(tail, typical)), 0.02),
    ]

    rng = random.Random(seed)
    best = None
    for _ in range(tries):
        plan = build(rng)
        dev = max(abs(f(plan) - target) / (tol * target) for f, target, tol in targets)
        if best is None or dev < best[0]:
            best = (dev, plan)
        if dev <= 1:
            break
    return best[1], k, 1


def run_unit(wl, unit, tracer, paritykit_error, speed):
    """Run one unit.  Yields (kind, wall s, cpu s, wall s as measured,
    payload) for each stretch of package calls, timed by `speed`: kind
    "step" (work that is not an instance), "instance" with the instance's
    check as payload, or "error" with the raised ParityKitError, which ends
    the unit.  Only the package calls are timed; the check (oracle and
    digest) runs when the caller calls it."""
    gen = wl.run(unit, tracer)
    while True:
        speed.start()
        try:
            with tracer.span("bench.instance"):
                item = next(gen)
        except StopIteration:
            return
        except paritykit_error as exc:
            item = exc
        finally:
            with tracer.span("bench.probe"):
                timed = speed.stop()
        if isinstance(item, paritykit_error):
            yield "error", *timed, item
            return
        # the workloads yield None after a step that is not an instance
        yield ("step" if item is None else "instance"), *timed, item


def tail_stat(latencies):
    """(value, percentile): the time at the highest percentile that still
    has 10 instances beyond it."""
    xs = sorted(latencies)
    if len(xs) <= 10:
        return xs[-1], 100.0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


def run_timed(wl, reference, seconds, seed, tracer, paritykit_error):
    """The timed phase: every pass over the seeded sample, each pass in its
    own seeded order.  Every run (instance or step) is scaled to the
    reference speed (`Speed`); an instance's time is the median of its
    runs, wall and CPU alike, and a step (work that is not an instance)
    runs once.  Returns a dict of raw results."""
    labels = [wl.label(u) for u in wl.units]
    costs = [reference["units"][lab]["cost_ms"] for lab in labels]
    plan, k, passes = sample_plan(costs, seconds, seed)

    walls, cpus, answers, failed_keys = {}, {}, {}, set()
    steps = steps_cpu = raw_work = 0.0
    attempted = failed = rejected = mismatched = errors = cap_hits = 0
    rng = random.Random(seed)
    tracer.instance = 0
    start = time.perf_counter()
    with tracer.span("bench.probe"):
        # the traced run probes between runs only, so that no probe lands in a span
        speed = Speed(ticks=not tracer.enabled)
    for p in range(passes):
        order = list(range(len(plan)))
        rng.shuffle(order)
        if p == 0:
            # the most costly unit runs first, on a fresh heap, so that the
            # peak memory is its own and not what came before it
            top = max(order, key=lambda i: costs[plan[i]])
            order.remove(top)
            order.insert(0, top)
        for i in order:
            label = labels[plan[i]]
            ref = reference["units"][label]["answers"]
            position = 0
            for kind, wall, cpu_s, raw, payload in run_unit(wl, wl.units[plan[i]], tracer, paritykit_error, speed):
                raw_work += raw
                if kind == "step":
                    steps += wall
                    steps_cpu += cpu_s
                    continue
                key = (i, position)
                walls.setdefault(key, []).append(wall)
                cpus.setdefault(key, []).append(cpu_s)
                attempted += 1
                if kind == "error":
                    ok, answer = False, f"!{type(payload).__name__}"
                    errors += 1
                    cap_hits += type(payload).__name__ == "StateExplosion"
                    print(f"# {label}#{position}: {answer[1:]}: {payload}", file=sys.stderr)
                else:
                    with tracer.span("bench.check"):
                        ok, answer = payload()
                    if not ok:
                        rejected += 1
                        print(f"# {label}#{position}: oracle rejected the answer", file=sys.stderr)
                want = ref[position] if position < len(ref) else "?"
                if kind != "error" and answer != want:
                    mismatched += 1
                    print(f"# {label}#{position}: answer {answer} differs from reference {want}", file=sys.stderr)
                if not ok or answer != want:
                    failed += 1
                    failed_keys.add(key)
                answers.setdefault(key, []).append((answer, want))
                position += 1
                tracer.instance = attempted
                # release the instance's results before the next one starts
                payload = None
    elapsed = time.perf_counter() - start

    run_digest, ref_digest = hashlib.sha1(), hashlib.sha1()
    for (i, position), pairs in sorted(answers.items()):
        for answer, want in pairs:
            run_digest.update(f"{labels[plan[i]]}#{position}={answer}\n".encode())
            ref_digest.update(f"{labels[plan[i]]}#{position}={want}\n".encode())
    latencies = [statistics.median(w) for w in walls.values()]
    return {
        "latencies": latencies,
        "completed": len(walls) - len(failed_keys),
        "attempted": attempted,
        "failed": failed,
        "rejected": rejected,
        "mismatched": mismatched,
        "errors": errors,
        "cap_hits": cap_hits,
        "elapsed": elapsed,
        "work": sum(latencies) + steps,
        "cpu": sum(statistics.median(c) for c in cpus.values()) + steps_cpu,
        "raw_work": raw_work,
        "slowdown": speed.slowdown(),
        "k": k,
        "passes": passes,
        "units": len(plan),
        "digest": run_digest.hexdigest(),
        "reference_digest": ref_digest.hexdigest(),
    }


def end_to_end(res, setup_s):
    """The end-to-end metrics; every time is at the reference speed."""
    completed = res["completed"]
    lat_ms = [x * 1000 for x in res["latencies"]]
    tail, pct = tail_stat(lat_ms)
    print(
        f"# instances {len(lat_ms)} in {res['units']} units, {res['attempted']} runs in {res['passes']} passes, "
        f"failed {res['failed']} "
        f"(oracle rejections {res['rejected']}, reference mismatches {res['mismatched']}, "
        f"errors {res['errors']}, cap hits {res['cap_hits']})"
    )
    print(f"# failed_share = {res['failed'] / res['attempted']:.6g} ratio")
    print(f"# instance_ms.tail is p{pct:.2f} over {len(lat_ms)} instances")
    print(
        f"# package calls {res['work']:.3f} s at reference speed (median run of each instance, and "
        f"the steps), {res['raw_work']:.3f} s as measured (every run); timed phase {res['elapsed']:.3f} s "
        f"(with the checks and probes); median slowdown {res['slowdown']:.4f}"
    )
    metrics = {
        "setup_s": (setup_s, "s"),
        "instances_per_s": (completed / res["work"], "1/s"),
        "instance_ms.p50": (statistics.median(lat_ms), "ms"),
        "instance_ms.tail": (tail, "ms"),
        "cpu_ms.per_instance": (res["cpu"] * 1000 / max(1, completed), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics


def per_layer(specs, tracer, res, setup_spans, cost_per_span):
    times = tracer.self_times()
    counts = tracer.counts()
    timed = tracer.self_times(since=setup_spans)

    def seconds(name):
        return times.get(name, (0.0, 0))[0]

    def calls(name):
        return times.get(name, (0.0, 0))[1]

    def total(name, key):
        return counts.get((name, key), 0)

    def ratio(a, b):
        return a / b if b else 0.0

    layers = {}
    for name, (sec, _) in timed.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + sec
    wall = res["elapsed"]
    values = {}
    for spec in specs:
        name = spec["name"]
        module, _, rest = name.partition(".")
        func, _, unit = rest.rpartition(".")
        span = f"{module}.{func}"
        if name.endswith(".share"):
            value = ratio(layers.get(module, 0.0), wall)
        elif unit == "s":
            value = seconds(span)
        elif unit == "calls":
            value = calls(span) if span != "trees.embed" else total(span, "calls")
        elif name == "transduction.reg_product.cap_ratio_max":
            value = counts.get((span, "cap_ratio_max"), 0.0)
        elif name == "transduction.reg_product.cap_hits":
            value = res["cap_hits"]
        elif name == "transduction.verify.reachable_ratio":
            value = ratio(total("bench.reachable_region", "reachable"), total("bench.reachable_region", "built"))
        elif name == "trees.embed.found_ratio":
            value = ratio(total(span, "found"), total(span, "calls"))
        elif name == "decomposition.tree_nodes":
            value = sum(total(s, "tree_nodes") for s in ("decomposition.build_ad", "decomposition.ad_from_bounded_pair"))
        elif name == "trace.instances_per_s":
            value = res["completed"] / res["work"]
        elif name == "trace.spans":
            value = len(tracer.spans)
        elif name == "trace.overhead_share":
            value = len(tracer.spans) * cost_per_span / wall
        else:
            value = total(span, unit)
        values[name] = (value, spec["unit"])
    return values, layers


def main(argv=None):
    args = parse_args(argv)
    workloads, raw_import_s, import_s = import_package()
    from paritykit.errors import ParityKitError
    from spans import NullTracer, Tracer, span_cost

    cls = workloads.WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference" / f"{args.workload}.json").read_text())

    if args.trace:
        tracer = Tracer()
        wl = cls()
        with tracer.span("bench.setup"):
            wl.setup(tracer)
        setup_spans = len(tracer.spans)
    else:
        tracer = NullTracer()
        speed, setups, scaled = Speed(), [], []
        while len(setups) < SETUP_REPEATS or (len(setups) < 3 * SETUP_REPEATS and sum(setups) < 1.0):
            wl = cls()
            speed.start()
            wl.setup(tracer)
            wall, _, raw = speed.stop()
            setups.append(raw)
            scaled.append(wall)
        setup_s = import_s + statistics.median(scaled)
        print(f"# setup_s as measured {raw_import_s + statistics.median(setups):.6g} s")

    res = run_timed(wl, reference, args.seconds, args.seed, tracer, ParityKitError)
    print(
        f"# workload {args.workload} seed {args.seed} k {res['k']} passes {res['passes']} "
        f"python {platform.python_version()} nproc {os.cpu_count()}"
    )
    same = res["digest"] == res["reference_digest"]
    print(f"# output digest {res['digest']}, reference {res['reference_digest']}: {'match' if same else 'MISMATCH'}")
    if args.trace:
        cost = span_cost()
        specs = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics, layers = per_layer(specs, tracer, res, setup_spans, cost)
        wall = res["elapsed"]
        shares = ", ".join(f"{name} {sec / wall:.3f}" for name, sec in sorted(layers.items(), key=lambda x: -x[1]))
        print(f"# layer shares of the timed phase: {shares}")
        print(
            f"# tracing overhead: {len(tracer.spans)} spans x {cost * 1e6:.2f} us = "
            f"{len(tracer.spans) * cost / wall:.4f} of the timed phase"
        )
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = end_to_end(res, setup_s)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    result = {
        "correct": res["failed"] == 0 and same,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
