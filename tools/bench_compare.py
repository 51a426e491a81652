#!/usr/bin/env python3
"""Compare bench JSON summaries against the committed BENCH_sap.json baseline.

The benches emit one machine-readable summary line each:

    ./build/bench_micro --json                      > bench.jsonl
    ./build/bench_table1 --json --budget=3 --scale=0.5 \
        | grep '"summary":true'                     >> bench.jsonl

Check the run against the baseline (exit 1 on a >20% regression):

    python3 tools/bench_compare.py --baseline BENCH_sap.json bench.jsonl

Regenerate the baseline after an intentional perf change:

    python3 tools/bench_compare.py --baseline BENCH_sap.json \
        --write-baseline bench.jsonl

Checked metrics:
  * micro: sat / smt_large propagations per second (lower = regression)
  * table1: total wall-clock and per-suite wall-clock (higher = regression;
    suites faster than --floor seconds are skipped as noise)
  * table1: anytime suites are gated on solution quality, not throughput —
    every case must return a validated incumbent, and the mean/max
    certified gap must not grow past the baseline (lower gap is better;
    gaps are depths, so the slack is `base * (1 + tolerance) + 1` to keep
    one unit of integer headroom on near-zero baselines)
  * service: per-family client-observed p50/p99 latency (micros) must not
    grow past baseline (bench_service --json emits the summary line;
    sub-millisecond quantiles are skipped as scheduling noise)
  * service_connections (bench_service --connections=N --json): lost,
    reordered, and failed-connection counts must be exactly zero — these
    are correctness contracts of the reactor, not perf numbers, so no
    tolerance applies — and the router->backend binary-wire A/B must keep
    its speedup at or above the 1.5x floor (storm throughput is also
    compared against the baseline when one exists)

CI runs on different hardware than the machine that wrote the baseline, so
pass a wider --tolerance there (wall-clock scales with the machine; the
regression signal is the ratio drifting, not the absolute number).
"""

import argparse
import json
import sys


def load_summaries(path):
    """The bench summary lines keyed by bench name."""
    summaries = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if record.get("summary") is True and "bench" in record:
                summaries[record["bench"]] = record
    return summaries


def check_throughput(failures, label, base, current, tolerance):
    """Propagations/sec must not drop below baseline / (1 + tolerance).

    Ratio semantics keep the gate meaningful for tolerances >= 1 (used by
    CI across heterogeneous hardware): tolerance 2.0 still fails a >3x
    throughput drop, whereas `base * (1 - tolerance)` would go negative
    and never fail.
    """
    floor = base / (1.0 + tolerance)
    status = "ok" if current >= floor else "REGRESSION"
    print(f"  {label}: {current:,.0f} props/s vs baseline {base:,.0f} "
          f"({current / base:.2f}x) [{status}]")
    if current < floor:
        failures.append(f"{label} dropped to {current / base:.2f}x of baseline")


def check_seconds(failures, label, base, current, tolerance, floor_seconds):
    """Wall-clock must not rise more than `tolerance` above baseline."""
    if base < floor_seconds and current < floor_seconds:
        return  # too fast to measure meaningfully
    ceiling = base * (1.0 + tolerance)
    status = "ok" if current <= ceiling else "REGRESSION"
    print(f"  {label}: {current:.3f}s vs baseline {base:.3f}s "
          f"({current / base if base > 0 else 0:.2f}x) [{status}]")
    if current > ceiling:
        failures.append(f"{label} slowed to {current:.3f}s "
                        f"(baseline {base:.3f}s)")


def check_gap(failures, label, base, current, tolerance):
    """Certified gap must not grow past baseline (lower is better).

    Gaps are integer depths, so a `+1` absolute slack keeps the gate from
    tripping on a baseline of 0.0 where any nonzero gap would otherwise be
    an infinite ratio.
    """
    ceiling = base * (1.0 + tolerance) + 1.0
    status = "ok" if current <= ceiling else "REGRESSION"
    print(f"  {label}: gap {current:.2f} vs baseline {base:.2f} "
          f"(lower is better) [{status}]")
    if current > ceiling:
        failures.append(f"{label} gap grew to {current:.2f} "
                        f"(baseline {base:.2f})")


def check_latency_us(failures, label, base, current, tolerance,
                     floor_us=1000.0):
    """Tail latency (micros) must not rise past baseline by more than the
    tolerance. An absolute `floor_us` of slack rides on top of the ratio —
    sub-millisecond quantiles jitter with scheduling noise, and both-fast
    pairs are skipped entirely.
    """
    if base < floor_us and current < floor_us:
        return
    ceiling = base * (1.0 + tolerance) + floor_us
    status = "ok" if current <= ceiling else "REGRESSION"
    print(f"  {label}: {current / 1000.0:.3f}ms vs baseline "
          f"{base / 1000.0:.3f}ms "
          f"({current / base if base > 0 else 0:.2f}x) [{status}]")
    if current > ceiling:
        failures.append(f"{label} grew to {current / 1000.0:.3f}ms "
                        f"(baseline {base / 1000.0:.3f}ms)")


def check_anytime(failures, base_rows, cur_rows, tolerance, floor_seconds):
    """Gate the anytime suites on incumbent validity and gap quality."""
    base_by_label = {row["label"]: row for row in base_rows}
    for row in cur_rows:
        label = f"table1.anytime[{row['label']}]"
        # Validity is a hard contract, baseline or not: `auto` on these
        # large instances must hand back a validated incumbent for every
        # case.
        if row["valid"] != row["cases"]:
            print(f"  {label}: {row['valid']}/{row['cases']} valid "
                  "incumbents [REGRESSION]")
            failures.append(f"{label} returned only {row['valid']} valid "
                            f"incumbents for {row['cases']} cases")
            continue
        base = base_by_label.get(row["label"])
        if base is None:
            print(f"  {label}: no baseline row; skipping gap gate "
                  f"(mean_gap {row['mean_gap']:.2f}, "
                  f"max_gap {row['max_gap']})")
            continue
        check_gap(failures, f"{label}.mean", base["mean_gap"],
                  row["mean_gap"], tolerance)
        check_gap(failures, f"{label}.max", float(base["max_gap"]),
                  float(row["max_gap"]), tolerance)
        check_seconds(failures, f"{label}.seconds", base["seconds"],
                      row["seconds"], tolerance, floor_seconds)


def check_overhead(path, tolerance, floor_seconds):
    """Gate the observability instrumentation overhead.

    `path` holds `{"baseline_seconds": B, "instrumented_seconds": I}` — the
    same workload timed with the flight recorder disabled (EBMF_EVENTS=0)
    and enabled. The instrumented run may cost at most `tolerance` more
    wall-clock, plus an absolute `floor_seconds` of slack so sub-100ms
    workloads don't gate on scheduler noise.
    """
    with open(path, encoding="utf-8") as handle:
        record = json.load(handle)
    base = float(record["baseline_seconds"])
    instrumented = float(record["instrumented_seconds"])
    ceiling = base * (1.0 + tolerance) + floor_seconds
    ratio = instrumented / base if base > 0 else 0.0
    status = "ok" if instrumented <= ceiling else "REGRESSION"
    print(f"instrumentation overhead: {instrumented:.3f}s instrumented vs "
          f"{base:.3f}s baseline ({ratio:.3f}x, ceiling {ceiling:.3f}s) "
          f"[{status}]")
    if instrumented > ceiling:
        print(f"\nFAIL:\n  - instrumentation overhead {ratio:.3f}x exceeds "
              f"{1.0 + tolerance:.2f}x (+{floor_seconds:.2f}s floor)")
        return 1
    print(f"\nOK: overhead within {tolerance:.0%} (+{floor_seconds:.2f}s "
          "floor)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", nargs="?",
                        help="file of bench --json summary lines")
    parser.add_argument("--baseline",
                        help="committed baseline (BENCH_sap.json)")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional regression (default 0.20)")
    parser.add_argument("--floor", type=float, default=0.5,
                        help="ignore suites faster than this many seconds (default 0.5)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite the baseline from the current run")
    parser.add_argument("--overhead", metavar="FILE",
                        help="instead of the baseline gate: check the "
                             "instrumentation-overhead record in FILE "
                             '({"baseline_seconds": B, '
                             '"instrumented_seconds": I})')
    parser.add_argument("--overhead-tolerance", type=float, default=0.03,
                        help="allowed fractional instrumentation overhead "
                             "(default 0.03)")
    parser.add_argument("--overhead-floor", type=float, default=0.05,
                        help="absolute overhead slack in seconds for "
                             "fast workloads (default 0.05)")
    args = parser.parse_args()

    if args.overhead:
        return check_overhead(args.overhead, args.overhead_tolerance,
                              args.overhead_floor)
    if not args.current or not args.baseline:
        parser.error("current and --baseline are required "
                     "(or use --overhead FILE)")

    current = load_summaries(args.current)
    if args.write_baseline:
        # Start from the existing baseline (when present) so a partial run
        # — say, regenerating only the service suites — does not drop the
        # entries for benches that were not re-run.
        baseline = {}
        try:
            with open(args.baseline, encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, json.JSONDecodeError):
            pass
        baseline["comment"] = (
            "bench baseline; regenerate via tools/bench_compare.py "
            "--write-baseline (see file docstring for commands)")
        # Persist *every* bench summary, not just the known ones, so a new
        # suite starts being gated the first time the baseline is rewritten.
        for name, record in sorted(current.items()):
            baseline[name] = record
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.baseline}")
        return 0

    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)

    failures = []

    # A suite present in the candidate but absent from the baseline is NOT
    # a regression — it is a new suite with nothing to compare against. Say
    # so clearly and keep the gate green; --write-baseline adopts it.
    for name in sorted(current):
        if baseline.get(name) is None:
            print(f"note: no baseline for bench '{name}' in {args.baseline}; "
                  "skipping (rewrite the baseline with --write-baseline to "
                  "start gating it)")

    base_micro, cur_micro = baseline.get("micro"), current.get("micro")
    if base_micro and cur_micro:
        print("micro (propagation throughput):")
        for key in ("sat", "smt_large"):
            check_throughput(failures, f"micro.{key}",
                             base_micro[key]["propagations_per_sec"],
                             cur_micro[key]["propagations_per_sec"],
                             args.tolerance)
    elif base_micro:
        failures.append("no micro summary in the current run")

    base_t1, cur_t1 = baseline.get("table1"), current.get("table1")
    if base_t1 and cur_t1:
        print("table1 (suite wall-clock):")
        check_seconds(failures, "table1.total", base_t1["total_seconds"],
                      cur_t1["total_seconds"], args.tolerance, args.floor)
        base_suites = {s["label"]: s for s in base_t1.get("suites", [])}
        for suite in cur_t1.get("suites", []):
            base_suite = base_suites.get(suite["label"])
            if base_suite is None:
                print(f"  table1[{suite['label']}]: no baseline suite; "
                      "skipping")
                continue
            check_seconds(failures, f"table1[{suite['label']}]",
                          base_suite["seconds"], suite["seconds"],
                          args.tolerance, args.floor)
        cur_any = cur_t1.get("anytime", [])
        if cur_any:
            print("table1 (anytime suites, gap metrics):")
            check_anytime(failures, base_t1.get("anytime", []), cur_any,
                          args.tolerance, args.floor)
    elif base_t1:
        failures.append("no table1 summary in the current run")

    base_svc, cur_svc = baseline.get("service"), current.get("service")
    if base_svc and cur_svc:
        print("service (client-observed tail latency):")
        base_fams = {f["name"]: f for f in base_svc.get("families", [])}
        for fam in cur_svc.get("families", []):
            base_fam = base_fams.get(fam["name"])
            if base_fam is None:
                print(f"  service[{fam['name']}]: no baseline family; "
                      "skipping")
                continue
            check_latency_us(failures, f"service[{fam['name']}].p50",
                             base_fam["p50_us"], fam["p50_us"],
                             args.tolerance)
            check_latency_us(failures, f"service[{fam['name']}].p99",
                             base_fam["p99_us"], fam["p99_us"],
                             args.tolerance)

    base_conn = baseline.get("service_connections")
    cur_conn = current.get("service_connections")
    if cur_conn:
        print("service_connections (reactor storm + backend-wire A/B):")
        # Zero lost / reordered / failed connections is a correctness
        # contract of the reactor, gated with no tolerance at all.
        for key in ("lost", "reordered", "failed_connections"):
            count = cur_conn.get(key, 0)
            status = "ok" if count == 0 else "REGRESSION"
            print(f"  service_connections.{key}: {count} [{status}]")
            if count != 0:
                failures.append(
                    f"service_connections reported {count} {key} "
                    f"({cur_conn.get('received', 0)} replies received)")
        ab = cur_conn.get("ab")
        if ab:
            speedup = float(ab.get("binary_speedup", 0.0))
            floor = 1.5
            status = "ok" if speedup >= floor else "REGRESSION"
            print(f"  service_connections.binary_speedup: {speedup:.2f}x "
                  f"(floor {floor:.1f}x; JSON {ab.get('json_rps', 0):,.0f} "
                  f"-> binary {ab.get('binary_rps', 0):,.0f} req/s) "
                  f"[{status}]")
            if speedup < floor:
                failures.append(
                    f"binary backend wire speedup fell to {speedup:.2f}x "
                    f"(floor {floor:.1f}x)")
        if base_conn and base_conn.get("storm_rps"):
            check_throughput(failures, "service_connections.storm_rps",
                             float(base_conn["storm_rps"]),
                             float(cur_conn.get("storm_rps", 0.0)),
                             args.tolerance)
    elif base_conn:
        failures.append("no service_connections summary in the current run")

    if failures:
        print("\nFAIL:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nOK: no regression beyond tolerance "
          f"{args.tolerance:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
