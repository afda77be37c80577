#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py BASE CHANGE
    python3 perfbench/compare.py --summarize RESULTS

BASE and CHANGE are results directories (run.py --results-dir), e.g. ten
runs of the parent commit and ten of the change, same seeds, same
--seconds. For every workload and metric it prints
each side's median and quartiles and a verdict:

  worse       the change's median is worse than the base's by more than the
              metric's bound (from BENCHMARK.json);
  unresolved  either side's spread (quartile distance / median) is wider
              than the bound, so "no change" cannot be told from noise,
              unless every change run beats every base run or vice versa;
  gain        better by more than the base's own spread, and the change wins
              at least 9 of 10 seed-matched pairs (ties count for neither);
  same        none of the above.

Per-layer metrics (traced runs) have no bound; they are listed with their
relative move so a regression or a gain can be pinned to a layer. Exits 1
when any end-to-end metric is worse.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Numbers every run reports beside the JSON metrics (report "extra"), with
# the bound of the end-to-end metric they pair with.
EXTRA_BOUNDS = {
    "write_p50_ms": ("ms", "lower", "latency_p50_ms"),
    "write_p90_ms": ("ms", "lower", "latency_p90_ms"),
    "failed_frac": ("ratio", "lower", None),
}


def load_reports(path):
    """{(workload, traced): {seed: report}} from a results directory."""
    files = sorted(glob.glob(os.path.join(path, "report-*.json")))
    runs = {}
    for name in files:
        with open(name) as f:
            report = json.load(f)
        key = (report["workload"], bool(report["trace"]))
        runs.setdefault(key, {})[report["seed"]] = report
    return runs


def summary(values):
    """(median, q1, q3, spread); spread = (q3 - q1) / median."""
    if len(values) == 1:
        v = values[0]
        return v, v, v, 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))
    return med, q1, q3, spread


def verdict(base, change, better, bound, pairs):
    """Classifies one metric (see the module docstring); also returns how
    much worse the change's median is, as a share of the base median."""
    b_med, _, _, b_spread = summary(base)
    c_med, _, _, c_spread = summary(change)
    sign = 1.0 if better == "lower" else -1.0
    # Positive = worse, as a share of the base median.
    if b_med:
        move = sign * (c_med - b_med) / abs(b_med)
    else:
        move = 0.0 if c_med == b_med else sign * float("inf")
    if better == "lower":
        all_better, all_worse = max(change) < min(base), min(change) > max(base)
    else:
        all_better, all_worse = min(change) > max(base), max(change) < min(base)
    if max(b_spread, c_spread) > bound and not (all_better or all_worse):
        return "unresolved", move
    if move > bound:
        return "worse", move
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    if pairs and -move > b_spread and wins >= 0.9 * len(pairs):
        return "gain", move
    return "same", move


def metric_values(reports, name, extra):
    values = {}
    for seed, report in reports.items():
        if extra:
            value = report.get("extra", {}).get(name)
        else:
            value = report["result"]["metrics"].get(name, {}).get("value")
        if value is not None:
            values[seed] = value
    return values


def compare(base_runs, change_runs, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    rows = []
    worse = False
    for key in sorted(set(base_runs) & set(change_runs)):
        workload, traced = key
        base, change = base_runs[key], change_runs[key]
        names = []
        if traced:
            names = [(m["name"], m["unit"], None, None, False)
                     for m in spec["per_layer"]]
        else:
            for m in spec["end_to_end"]:
                names.append((m["name"], m["unit"], m["better"], m["bound"], False))
            for name, (unit, better, paired) in EXTRA_BOUNDS.items():
                bound = bounds[paired]["bound"] if paired in bounds else None
                names.append((name, unit, better, bound, True))
        for name, unit, better, bound, extra in names:
            b = metric_values(base, name, extra)
            c = metric_values(change, name, extra)
            if not b or not c:
                continue
            pairs = [(b[s], c[s]) for s in sorted(set(b) & set(c))]
            if name == "failed_frac":
                status = "worse" if max(c.values()) > 0 else "same"
            elif better is None:
                status = ""
            else:
                status, _ = verdict(list(b.values()), list(c.values()), better,
                                    bound, pairs)
            move = _relative(b.values(), c.values())
            worse = worse or status == "worse"
            rows.append((workload + (" (traced)" if traced else ""), name, unit,
                         summary(list(b.values())), summary(list(c.values())),
                         move, bound, status, len(b), len(c)))
    return rows, worse


def _relative(base, change):
    b = statistics.median(list(base))
    c = statistics.median(list(change))
    return (c - b) / abs(b) if b else 0.0


def render(rows):
    out = ["%-22s %-40s %-30s %-30s %7s %8s %6s %s" % (
        "workload", "metric", "base median [q1, q3]", "change median [q1, q3]",
        "runs", "change", "bound", "verdict")]
    for workload, name, unit, b, c, move, bound, status, nb, nc in rows:
        fmt = lambda s: "%.4g [%.4g, %.4g]" % s[:3]
        out.append("%-22s %-40s %-30s %-30s %7s %+7.1f%% %6s %s" % (
            workload, "%s (%s)" % (name, unit), fmt(b), fmt(c), "%d/%d" % (nb, nc),
            100 * move, "" if bound is None else "%.0f%%" % (100 * bound), status))
    return "\n".join(out)


def summarize(runs):
    """{workload: {metric: {median, q1, q3, runs}}} of one set of runs."""
    out = {}
    for (workload, traced), reports in sorted(runs.items()):
        values = {}
        for report in reports.values():
            for name, m in report["result"]["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, value in report.get("extra", {}).items():
                if isinstance(value, (int, float)):
                    values.setdefault(name, []).append(value)
        key = workload + (" (traced)" if traced else "")
        out[key] = {}
        for name, vals in values.items():
            med, q1, q3, _ = summary(vals)
            out[key][name] = {"median": med, "q1": q1, "q3": q3, "runs": len(vals)}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="results directory of the base runs")
    parser.add_argument("change", nargs="?",
                        help="results directory of the change's runs")
    parser.add_argument("--summarize", action="store_true",
                        help="print medians and quartiles of BASE as JSON")
    args = parser.parse_args()
    if args.summarize:
        print(json.dumps(summarize(load_reports(args.base)), indent=1, sort_keys=True))
        return 0
    if args.change is None:
        parser.error("CHANGE is required unless --summarize")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows, worse = compare(load_reports(args.base), load_reports(args.change), spec)
    print(render(rows))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
