#!/usr/bin/env python3
"""Compare a fresh BENCH_<name>.json against a checked-in snapshot.

The bench binaries emit machine-readable snapshots (bench_util.h
BenchRecorder) holding the headline metrics printed below the banner
plus the wall clock.  Metrics are deterministic for a fixed
configuration (samples, seed, math backend), so they must
match the snapshot up to --metric-rtol (a small relative tolerance
for libm variation across glibc builds when the exact math backend
leans on the host libm).  Wall clock varies across machines, so it is
only banded: the fresh value must lie within a factor of --wall-band
of the snapshot in either direction — catching order-of-magnitude
regressions (e.g. a hot loop silently de-vectorized) without
flaking on hardware differences.

Exit status: 0 on pass, 1 on any mismatch (with a report), 2 on
usage/IO errors.
"""

import argparse
import json
import sys

# Configuration fields that change what the metrics *mean*; a snapshot
# taken under a different one of these is not comparable.
COMPARABLE_CONFIG = ("samples", "math_backend")


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"compare_bench_json: cannot read {path}: {e}",
              file=sys.stderr)
        sys.exit(2)


def main():
    ap = argparse.ArgumentParser(
        description="Diff a fresh bench JSON against a snapshot.")
    ap.add_argument("fresh", help="freshly generated BENCH_*.json")
    ap.add_argument("snapshot", help="checked-in reference snapshot")
    ap.add_argument("--wall-band", type=float, default=4.0,
                    help="allowed wall-clock ratio in either "
                         "direction (default 4.0)")
    ap.add_argument("--metric-rtol", type=float, default=0.0,
                    help="relative tolerance for metric drift "
                         "(default 0 = exact)")
    args = ap.parse_args()

    fresh = load(args.fresh)
    snap = load(args.snapshot)
    errors = []

    if fresh.get("bench") != snap.get("bench"):
        errors.append(f"bench name mismatch: fresh "
                      f"{fresh.get('bench')!r} vs snapshot "
                      f"{snap.get('bench')!r}")

    fcfg = fresh.get("config", {})
    scfg = snap.get("config", {})
    for key in COMPARABLE_CONFIG:
        if fcfg.get(key) != scfg.get(key):
            errors.append(f"config.{key} mismatch: fresh "
                          f"{fcfg.get(key)!r} vs snapshot "
                          f"{scfg.get(key)!r} (metrics are only "
                          f"comparable under identical {key})")

    fm = fresh.get("metrics", {})
    sm = snap.get("metrics", {})
    missing = sorted(set(sm) - set(fm))
    extra = sorted(set(fm) - set(sm))
    if missing:
        errors.append(f"metrics missing from fresh run: {missing}")
    if extra:
        errors.append(f"metrics not in snapshot: {extra} "
                      f"(regenerate the snapshot when adding metrics)")

    for key in sorted(set(fm) & set(sm)):
        fv, sv = fm[key], sm[key]
        tol = args.metric_rtol * max(abs(fv), abs(sv))
        if abs(fv - sv) > tol:
            errors.append(
                f"metric {key}: fresh {fv!r} vs snapshot {sv!r} "
                f"(|delta| {abs(fv - sv):.3e} > rtol "
                f"{args.metric_rtol:g})")

    fw, sw = fresh.get("wall_ms"), snap.get("wall_ms")
    if not isinstance(fw, (int, float)) or not isinstance(
            sw, (int, float)) or sw <= 0:
        errors.append(f"wall_ms unreadable: fresh {fw!r} snapshot "
                      f"{sw!r}")
    elif not (sw / args.wall_band <= fw <= sw * args.wall_band):
        errors.append(
            f"wall clock out of band: fresh {fw:.1f} ms vs snapshot "
            f"{sw:.1f} ms (band {args.wall_band:g}x)")

    if errors:
        print(f"FAIL: {args.fresh} vs {args.snapshot}")
        for e in errors:
            print(f"  - {e}")
        return 1
    print(f"OK: {args.fresh} matches {args.snapshot} "
          f"({len(sm)} metrics exact within rtol "
          f"{args.metric_rtol:g}; wall {fw:.1f} ms vs {sw:.1f} ms)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
