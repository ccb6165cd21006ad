"""Two-clock benchmark runner.

One contract run, as the driver of BENCHMARK.json invokes it::

    python3 perf/run.py --workload paper-rw --seed 7 --seconds 10 --trace 0

prints every end-to-end metric (``--trace 1``: every per-layer metric) by name
with its unit and ends with one JSON line.  The whole ledger::

    python3 perf/run.py [--seed N] [--repeats 5] [--only W] [--smoke]

runs every workload ``--repeats`` times plus one traced run, checks outputs,
prints every metric and writes ``perf/results/<stamp>.json`` for
``perf/compare.py``.  Each run is a fresh single-threaded child process, one at
a time.  This file claims no gain; it only measures.
"""

from time import perf_counter

_STARTED = perf_counter()   # set-up time of a child counts from here

import argparse     # noqa: E402
import contextlib   # noqa: E402
import json         # noqa: E402
import os           # noqa: E402
import platform     # noqa: E402
import statistics   # noqa: E402
import subprocess   # noqa: E402
import sys          # noqa: E402
import time         # noqa: E402

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(PERF_DIR, "results")
if sys.path and os.path.abspath(sys.path[0]) == PERF_DIR:
    # Run as a script: keep perf/trace.py from shadowing the stdlib's trace.
    sys.path[0] = ROOT
for _path in (ROOT, SRC):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perf import spec                # noqa: E402
from perf.gauge import SpeedGauge    # noqa: E402

DEFAULT_SEED = 20240911
#: Set-ups timed per untraced run; their median is the run's ``setup_s``.
SETUPS = 3
#: A traced run measures this share of an untraced run's operations.
TRACED_SHARE = 0.25
SMOKE_SCALE = 1.0 / 20.0
CHILD_TIMEOUT_S = 170


# -------------------------------------------------------------------- child
def child_main(request: dict) -> int:
    """One run in this process.  Prints exactly one JSON line: whatever the
    libraries print goes to stderr, so the parent's parsing cannot break."""
    real_stdout = sys.stdout
    gauge = SpeedGauge(_STARTED)
    with contextlib.redirect_stdout(sys.stderr):
        try:
            from perf import workloads
            gauge.lap()
            result, tracer = workloads.run_workload(
                request["workload"], request["seed"], request["scale"],
                request["traced"], gauge, request["setup_only"])
            if tracer is not None:
                os.makedirs(RESULTS, exist_ok=True)
                stem = os.path.join(RESULTS, request["workload"])
                with open(stem + ".layers.json", "w") as fh:
                    json.dump({"wall_s": tracer.wall_s,
                               "ops": result["attempted"],
                               "layers": tracer.layers(),
                               "edges": tracer.edge_table()}, fh, indent=1)
                with open(stem + ".trace.json", "w") as fh:
                    json.dump(tracer.chrome_trace(), fh)
        except Exception as exc:    # the run failed; say so in the JSON
            result = {"crashed": f"{type(exc).__name__}: {exc}"}
    real_stdout.write(json.dumps(result) + "\n")
    return 0


def run_child(workload: str, seed: int, scale: float, traced: bool = False,
              setup_only: bool = False) -> dict:
    request = {"workload": workload, "seed": seed, "scale": scale,
               "traced": traced, "setup_only": setup_only}
    # FK_* switches change what a default deployment does; measure the defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("FK_")}
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", json.dumps(request)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"child exited {proc.returncode} without a result"}
    return json.loads(lines[-1])


def measure(workload: str, seed: int, scale: float, setups: int = SETUPS) -> dict:
    """One untraced run, then ``setups - 1`` set-ups alone, each in its own
    process; the run's ``setup_s`` becomes the median of the set-ups."""
    result = run_child(workload, seed, scale)
    if "crashed" in result:
        return result
    times = [result["end_to_end"]["setup_s"]]
    for _ in range(setups - 1):
        extra = run_child(workload, seed, scale, setup_only=True)
        if "crashed" in extra:
            return extra
        times.append(extra["setup_s"])
    result["end_to_end"]["setup_s"] = statistics.median(times)
    return result


def failure_of(result: dict) -> str:
    """Why a run's outputs are wrong, or "" when every check passed."""
    if "crashed" in result:
        return result["crashed"]
    broken = [name for name, ok in result["checks"].items() if not ok]
    if broken or result["failed"]:
        return (f"failed {result['failed']}/{result['attempted']}, "
                f"checks broken: {broken or 'none'}; {result['errors']}")
    return ""


def virtual_view(result: dict) -> dict:
    """Everything in a result that must repeat bit for bit per (code, seed)."""
    view = {"digest": result["digest"], "counts": result["counts"]}
    for group in ("end_to_end", "per_layer"):
        for name, value in result[group].items():
            if not spec.is_wall_clock(name):
                view[name] = value
    return view


def traced_pair(workload: str, seed: int, scale: float) -> tuple:
    """(per-layer metrics, result, failure) of a traced run, with an untraced
    run of the same size before it: the overhead's base, and the proof that
    tracing left the virtual clock alone."""
    scale *= TRACED_SHARE
    plain = run_child(workload, seed, scale)
    traced = run_child(workload, seed, scale, traced=True)
    failure = failure_of(plain) or failure_of(traced)
    if failure:
        return {}, traced, failure
    seen = virtual_view(traced)
    moved = [name for name, value in virtual_view(plain).items()
             if seen[name] != value]
    if moved:
        return {}, traced, f"tracing moved the virtual clock: {moved[:5]}"
    layer = dict(traced["per_layer"])
    layer["trace_overhead_x"] = traced["ref_s"] / plain["ref_s"]
    return layer, traced, ""


# ------------------------------------------------------------ contract mode
def show(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{name:48s} {value:.6g} {units[name]}")


def contract_run(args, benchmark: dict) -> int:
    scale = args.seconds / benchmark["run_seconds"]
    declared = benchmark["per_layer"] if args.trace else benchmark["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if args.trace:
        values, result, failure = traced_pair(args.workload, args.seed, scale)
    else:
        result = measure(args.workload, args.seed, scale)
        failure = failure_of(result)
        values = result.get("end_to_end", {})
    if "crashed" in result:
        print(f"run crashed: {result['crashed']}", file=sys.stderr)
        return 1
    if failure:
        print(f"output check failed: {failure}", file=sys.stderr)
    # The contract wants every declared name on every workload; a layer
    # metric that does not exist on this one reads 0 (spec.ONLY_ON).
    metrics = {name: values.get(name, 0.0) for name in units}
    show(metrics, units)
    if not args.trace:
        raw = result["raw"]
        print(f"uncorrected: wall_ops_per_s {raw['wall_ops_per_s']:.6g}, "
              f"setup_s {raw['setup_s']:.6g}, box speed {raw['box_speed']:.3f}")
    print(json.dumps({
        "correct": not failure, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


# -------------------------------------------------------------- ledger mode
def summarize(values: list) -> dict:
    q1, median, q3 = spec.quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def ledger_workload(name: str, seed: int, scale: float, repeats: int,
                    setups: int) -> dict:
    runs = [measure(name, seed, scale, setups) for _ in range(repeats)]
    failures = [failure for failure in map(failure_of, runs) if failure]
    good = [run for run in runs if "crashed" not in run]
    if not good:
        return {"failures": failures, "failed_share": 1.0}
    first = good[0]
    identical = all(virtual_view(run) == virtual_view(first) for run in good)
    if not identical:
        failures.append("same-seed repeats differ on the virtual clock")
    layer, _traced, failure = traced_pair(name, seed, scale)
    if failure:
        failures.append(f"traced run: {failure}")
    # Counts and virtual means come from the full-size untraced run; the
    # traced run adds what only it can see.
    per_layer = {**layer, **first["per_layer"]}
    return {
        "failures": failures,
        "failed_share": (1.0 if len(good) < len(runs) else
                         max(run["failed"] / run["attempted"] for run in good)),
        "attempted": first["attempted"], "failed": first["failed"],
        "digest": first["digest"], "counts": first["counts"],
        "repeats_identical": identical,
        "end_to_end": {
            metric: summarize([run["end_to_end"][metric] for run in good])
            for metric in first["end_to_end"]},
        "uncorrected": {
            key: summarize([run["raw"][key] for run in good])
            for key in first["raw"]},
        "per_layer": per_layer,
    }


def ledger(args, benchmark: dict) -> int:
    scale, repeats, setups = ((SMOKE_SCALE, 1, 1) if args.smoke
                              else (1.0, args.repeats, SETUPS))
    names = [w["name"] for w in benchmark["workloads"]
             if args.only in (None, w["name"])]
    if not names:
        print(f"no workload named {args.only!r}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"]
             for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    workloads = {}
    for name in names:
        entry = workloads[name] = ledger_workload(
            name, args.seed, scale, repeats, setups)
        print(f"== {name}: failed_share {entry['failed_share']:.6g}, "
              f"repeats identical: {entry.get('repeats_identical')}")
        for metric, stats in entry.get("end_to_end", {}).items():
            print(f"{metric:48s} {stats['median']:.6g} {units[metric]} "
                  f"[q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, n {stats['n']}]")
        show(entry.get("per_layer", {}), units)
        for key, stats in entry.get("uncorrected", {}).items():
            print(f"uncorrected {key:36s} {stats['median']:.6g} "
                  f"[q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}]")
        for failure in entry["failures"]:
            print(f"!! {failure}")
    summary = {
        "schema": 1, "seed": args.seed, "scale": scale, "repeats": repeats,
        "python": platform.python_version(), "workloads": workloads,
        "claim": None,
    }
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, time.strftime("%Y%m%dT%H%M%S") + ".json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1)
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 1 if any(e["failures"] or e["failed_share"]
                    for e in workloads.values()) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one contract run of this workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="contract run: size, in seconds on the reference box")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--only", help="ledger: this workload alone")
    parser.add_argument("--smoke", action="store_true",
                        help="ledger: 1/20 size, one repeat")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no simulator source at {SRC}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(json.loads(args.child))
    benchmark = spec.load_benchmark()
    if args.workload:
        if args.workload not in [w["name"] for w in benchmark["workloads"]]:
            print(f"no workload named {args.workload!r}", file=sys.stderr)
            return 2
        if args.seconds is None:
            args.seconds = float(benchmark["run_seconds"])
        return contract_run(args, benchmark)
    return ledger(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
