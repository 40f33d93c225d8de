#!/usr/bin/env python3
"""Cross-tier check over rcampaign result JSON.

    python3 tools/check_cross_tier.py --tiers interp,translated A.json [B.json ...]

Every cell must have run on each of the named execute tiers, and its `ok`,
`cycles` and `instructions` must agree across them. The runs of a cell may
come from one grid with several `exec=` values or from separate grids of
the same shape, one per tier. A grid with a nonzero `seed=` derives one
seed per program (per workload entry), so all tiers of a cell run the
same program, in one grid or in several. Exits 1 on any mismatch or
missing tier, or when the input holds no cell.
"""
import argparse
import json
import re
import sys

KEY = re.compile(r"run\.(.+)/(interp|translated)\.(ok|cycles|instructions)")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tiers", required=True,
                        help="comma-separated tiers every cell must have")
    parser.add_argument("results", nargs="+")
    args = parser.parse_args()
    tiers = set(args.tiers.split(","))
    cells = {}
    for path in args.results:
        with open(path) as f:
            results = json.load(f)["results"]
        for key, value in results.items():
            m = KEY.fullmatch(key)
            if m:
                cells.setdefault(m[1], {}).setdefault(m[3], {})[m[2]] = value
    bad = [(cell, field, values) for cell, fields in sorted(cells.items())
           for field, values in sorted(fields.items())
           if set(values) != tiers or len(set(values.values())) != 1]
    for cell, field, values in bad:
        print("cross-tier mismatch:", cell, field, values)
    print(f"{len(cells)} cells x {len(tiers)} tiers, {len(bad)} mismatches")
    return 1 if bad or not cells else 0


if __name__ == "__main__":
    sys.exit(main())
