"""``compare A.json B.json``: judge two result files of ``run`` (or ``trace``).

One row per (end-to-end metric, workload) with both values (medians of the
host-speed-normalised repeats, see :mod:`.measure`), their quartiles, and
a verdict under the metric's bound:

* ``better`` / ``worse`` -- the value moved by more than the bound;
* ``within`` -- it did not;
* ``unresolved`` -- the repeats of one side spread (interquartile range /
  median) wider than the bound, so neither "changed" nor "unchanged" can be
  claimed; measure again with more ``--seconds``.  When every repeat of one
  file beats every repeat of the other (five or more a side) the row is
  resolved regardless.

Exit status is non-zero on any ``worse`` row or any rise in the share of
failed operations.  A changed ``sim_digest`` (the simulated statistics
changed) and changed count-type per-layer metrics are reported,
informational only.
"""

import json
import statistics
from typing import Any, Dict, List, Tuple

from . import manifest


def _side(result: Dict[str, Any], name: str) -> Dict[str, Any]:
    value = result["metrics"][name]["value"]
    samples = result["samples"].get(name) or [value]
    q1, _median, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else [value] * 3
    return {"value": value, "samples": samples, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(value)}


def judge(before: Dict[str, Any], after: Dict[str, Any], better: str, bound: float) -> str:
    a, b = before["samples"], after["samples"]
    if better == "higher":
        wins, loses = min(b) > max(a), max(b) < min(a)
    else:
        wins, loses = max(b) < min(a), min(b) > max(a)
    # With five samples a side, chance alone separates them 1 time in 126.
    separated = (wins or loses) and min(len(a), len(b)) >= 5
    if max(before["spread"], after["spread"]) > bound and not separated:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (after["value"] - before["value"]) / abs(before["value"])
    if abs(worsening) <= bound:
        return "within"
    return "worse" if worsening > 0 else "better"


def compare(before: Dict[str, Any], after: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Report lines and whether anything regressed."""
    lines: List[str] = []
    regressed = False
    header = (f"{'workload':<18} {'metric':<12} {'before':>11} {'after':>11} {'change':>8}  "
              f"{'verdict':<10} before q1..q3 | after q1..q3")
    shared = [name for name in before["workloads"] if name in after["workloads"]]
    for name in shared:
        old, new = before["workloads"][name], after["workloads"][name]
        if "wall_s" in old["metrics"] and "wall_s" in new["metrics"]:
            if not lines:
                lines.append(header)
            for metric, _unit, better, bound in manifest.END_TO_END:
                a, b = _side(old, metric), _side(new, metric)
                verdict = judge(a, b, better, bound)
                regressed |= verdict == "worse"
                change = (b["value"] - a["value"]) / abs(a["value"])
                lines.append(
                    f"{name:<18} {metric:<12} {a['value']:>11.5g} {b['value']:>11.5g} "
                    f"{change:>+8.1%}  {verdict:<10} "
                    f"{a['q1']:.4g}..{a['q3']:.4g} | {b['q1']:.4g}..{b['q3']:.4g}"
                )
        if new["failed"] / new["attempted"] > old["failed"] / old["attempted"]:
            regressed = True
            lines.append(f"{name:<18} ops_failed_frac rose: {old['failed']}/{old['attempted']} -> "
                         f"{new['failed']}/{new['attempted']}")
        if old["sim_digest"] != new["sim_digest"]:
            lines.append(f"{name:<18} simulated statistics changed "
                         f"({old['sim_digest'][:12]} -> {new['sim_digest'][:12]})")
        for metric, entry in old["metrics"].items():
            other = new["metrics"].get(metric)
            if entry["unit"] in ("count", "bytes") and other is not None \
                    and other["value"] != entry["value"]:
                lines.append(f"{name:<18} count changed: {metric} "
                             f"{entry['value']} -> {other['value']}")
    missing = sorted(set(before["workloads"]) ^ set(after["workloads"]))
    if missing:
        lines.append(f"workloads in only one file (not compared): {', '.join(missing)}")
    return lines, regressed


def compare_files(before_path: str, after_path: str) -> int:
    with open(before_path, encoding="utf-8") as handle:
        before = json.load(handle)
    with open(after_path, encoding="utf-8") as handle:
        after = json.load(handle)
    for label, report in (("before", before), ("after", after)):
        env = report["environment"]
        print(f"{label}: commit {env['commit']} seed {env['seed']} python {env['python']} "
              f"nproc {env['nproc']} compiled_core {env['compiled_core']} "
              f"host_calib_s {report['host_calib_s']:.5f}")
    lines, regressed = compare(before, after)
    print("\n".join(lines))
    print("REGRESSION" if regressed else "no regression")
    return 1 if regressed else 0
