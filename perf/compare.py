"""Compare two ledgers written by perf/run.py: ``compare.py BASE.json NEW.json``.

One row per (workload, end-to-end metric): base median, new median, their
ratio with its base, the bound BENCHMARK.json fixes and a verdict.

* ``regressed``  - new is worse than base by more than the bound and by more
  than either side's run-to-run quartile spread;
* ``unresolved`` - a side's quartile spread is wider than the bound, so the
  runs cannot tell "unchanged" from "regressed";
* ``ok``         - otherwise.

Then, per workload, ``virtual_identical: yes/no``: whether the output digest
and every virtual-clock metric and exact count, end to end and per layer, are
bit-identical.  A change meant only to speed up the simulator must read yes.
Exits 1 when any row regressed.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Tuple

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perf import spec   # noqa: E402


def _spread(stats: Dict[str, Any]) -> float:
    return abs(stats["q3"] - stats["q1"]) / abs(stats["median"])


def _virtual(entry: Dict[str, Any]) -> Dict[str, Any]:
    view = {"digest": entry.get("digest"), "counts": entry.get("counts")}
    for name, stats in entry.get("end_to_end", {}).items():
        if not spec.is_wall_clock(name):
            view[name] = stats["median"]
    for name, value in entry.get("per_layer", {}).items():
        if not spec.is_wall_clock(name):
            view[name] = value
    return view


def compare(base: Dict[str, Any], new: Dict[str, Any],
            benchmark: Dict[str, Any]) -> Tuple[List[str], int]:
    """The report's lines and how many rows regressed."""
    regressed = 0
    lines = [f"{'workload':12s} {'metric':16s} {'base':>12s} {'new':>12s} "
             f"{'new/base':>9s} {'bound':>6s} {'spread':>7s} verdict"]
    if (base["seed"], base["scale"]) != (new["seed"], new["scale"]):
        lines.append(f"note: base is seed {base['seed']} scale {base['scale']}, "
                     f"new is seed {new['seed']} scale {new['scale']}; "
                     "virtual-clock numbers are not comparable")
    identical = []
    for workload in base["workloads"]:
        old, cur = base["workloads"][workload], new["workloads"].get(workload)
        if cur is None:
            lines.append(f"{workload:12s} missing from the new ledger")
            continue
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            if name not in old.get("end_to_end", {}) or name not in cur.get(
                    "end_to_end", {}):
                lines.append(f"{workload:12s} {name:16s} missing: a run failed, "
                             "regressed")
                regressed += 1
                continue
            a, b = old["end_to_end"][name], cur["end_to_end"][name]
            worse = (b["median"] - a["median"]) / abs(a["median"])
            if metric["better"] == "higher":
                worse = -worse
            spread = max(_spread(a), _spread(b))
            verdict = ("regressed" if worse > max(bound, spread)
                       else "unresolved" if spread > bound else "ok")
            regressed += verdict == "regressed"
            lines.append(
                f"{workload:12s} {name:16s} {a['median']:12.6g} "
                f"{b['median']:12.6g} {b['median'] / a['median']:9.4f} "
                f"{bound:6.2f} {spread:7.4f} {verdict}")
        if cur.get("failed_share", 1.0) > old.get("failed_share", 1.0):
            lines.append(f"{workload:12s} failed_share {old.get('failed_share')}"
                         f" -> {cur.get('failed_share')} regressed")
            regressed += 1
        va, vb = _virtual(old), _virtual(cur)
        differing = sorted(k for k in va.keys() | vb.keys()
                           if va.get(k) != vb.get(k))
        identical.append(f"virtual_identical: {'no' if differing else 'yes'} "
                         f"{workload}"
                         + (f" ({', '.join(differing[:8])}"
                            f"{', ...' if len(differing) > 8 else ''})"
                            if differing else ""))
    return lines + identical, regressed


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    ledgers = []
    for path in argv:
        with open(path) as fh:
            ledgers.append(json.load(fh))
    lines, regressed = compare(ledgers[0], ledgers[1], spec.load_benchmark())
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
