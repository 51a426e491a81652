#!/usr/bin/env python3
"""Fit the "auto" portfolio cutoffs from a bench_table1 trajectory.

Input: the per-instance JSON lines emitted by `bench_table1 --json`
(each carries family/config, the instance shape `rows`/`cols`/`ones`,
and the engine SolveReport). Every instance solved through the exact
tier ("sap") is classified as an exact-tier *win* (certified optimal
within its budget) or *loss* (budget ran dry with an open bracket).
The fitter then picks, per density class, the 1-cell threshold that
separates wins from losses: the midpoint between the largest certified
instance below the smallest failure and that smallest failure (1.5x the
largest win when nothing failed). Past it, `auto` runs sap with an
auto-width bound race.

One threshold is structural, not fitted, and is carried through
unchanged: the sparse/dense density boundary (preprocessing shatters
patterns below ~8% occupancy). Below the exact cutoff, every pattern
goes to sap, however small: its rank and fooling certificates close
the tiny ones before any SAT call.

Usage:
  ./build/bench_table1 --json > fit.jsonl
  python3 tools/fit_portfolio.py fit.jsonl -o src/engine/portfolio_cutoffs.h
"""

import argparse
import json
import sys

# Structural constant (documented above; not refitted).
SPARSE_DENSITY = 0.08

# Fitted thresholds never drop below the hand-tuned seed values: a small
# trajectory (reduced-count bench run) must not collapse the exact tier
# under the sizes the unit suite proves through SMT every run.
FLOORS = {"dense": 300, "sparse": 1500}
# Nor should a lucky run push the exact tier past what one budget can
# plausibly encode (see smt_encode_affordable in src/smt/sap.cpp).
CEILINGS = {"dense": 5000, "sparse": 30000}

# With no failure in the trajectory, the exact tier extends this far past
# its largest certified instance.
EXTEND_MARGIN = 1.5


def load_records(path):
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            if "report" in rec and "ones" in rec:
                records.append(rec)
    return records


def classify(records):
    """Split exact-tier (sap) solves into per-density-class win/loss lists."""
    classes = {"dense": {"wins": [], "losses": []},
               "sparse": {"wins": [], "losses": []}}
    for rec in records:
        report = rec["report"]
        if report.get("strategy") != "sap":
            continue
        cells = rec["rows"] * rec["cols"]
        if cells == 0:
            continue
        density = rec["ones"] / cells
        bucket = classes["sparse" if density <= SPARSE_DENSITY else "dense"]
        key = "wins" if report.get("status") == "optimal" else "losses"
        bucket[key].append(rec["ones"])
    return classes


def fit_cutoff(wins, losses, floor, ceiling):
    """Largest 1-count the exact tier should attempt, from win/loss data."""
    if losses:
        boundary = min(losses)
        below = [w for w in wins if w < boundary]
        if below:
            cutoff = (max(below) + boundary) // 2
        else:
            # Every certified instance sits above some failure: the axis
            # doesn't separate cleanly; stay at the conservative floor.
            cutoff = floor
    elif wins:
        # Nothing failed: extend past the largest certified instance.
        cutoff = int(max(wins) * EXTEND_MARGIN)
    else:
        cutoff = floor
    return max(floor, min(cutoff, ceiling))


HEADER = '''\
#pragma once
// Generated by tools/fit_portfolio.py — do not edit by hand.
//
// Fitted size/density thresholds for the "auto" portfolio, derived from a
// `bench_table1 --json` trajectory: every instance the exact tier (sap)
// certified within budget is a win at its 1-count, every open bracket a
// loss, and the cutoffs sit on the win/loss boundary per density class.
// Regenerate after a solver or hardware change:
//
//   ./build/bench_table1 --json > fit.jsonl
//   python3 tools/fit_portfolio.py fit.jsonl -o src/engine/portfolio_cutoffs.h
//
// Fit provenance: {provenance}

#include <cstddef>

namespace ebmf::engine {{

/// Density (ones/(m·n)) at or below which preprocessing reliably shatters
/// the pattern into SMT-feasible components.
inline constexpr double kFitSparseDensity = {sparse_density};

/// Dense exact tier: sequential SAP up to this many 1-cells; past it
/// SAP with an auto-width bound race.
inline constexpr std::size_t kFitExactDenseOnes = {exact_dense};

/// Sparse exact tier: sequential SAP up to this many 1-cells; past it
/// SAP with an auto-width bound race.
inline constexpr std::size_t kFitExactSparseOnes = {exact_sparse};

}}  // namespace ebmf::engine
'''


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trajectory", help="bench_table1 --json output file")
    parser.add_argument("-o", "--output", default=None,
                        help="header path (default: stdout)")
    args = parser.parse_args()

    records = load_records(args.trajectory)
    if not records:
        sys.exit(f"no per-instance records with shapes in {args.trajectory} "
                 "(need bench_table1 --json output)")
    classes = classify(records)

    cutoffs = {}
    for name, bucket in classes.items():
        cutoffs[name] = fit_cutoff(bucket["wins"], bucket["losses"],
                                   FLOORS[name], CEILINGS[name])

    provenance = ", ".join(
        f"{name}: {len(bucket['wins'])} wins / {len(bucket['losses'])} losses"
        f" -> exact {cutoffs[name]}"
        for name, bucket in sorted(classes.items()))

    text = HEADER.format(
        provenance=provenance,
        sparse_density=SPARSE_DENSITY,
        exact_dense=cutoffs["dense"],
        exact_sparse=cutoffs["sparse"],
    )
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}: "
              f"dense exact {cutoffs['dense']}, "
              f"sparse exact {cutoffs['sparse']}  ({provenance})",
              file=sys.stderr)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
