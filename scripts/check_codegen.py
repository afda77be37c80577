#!/usr/bin/env python3
"""CI smoke check for the §V-B code-generation ablation.

Usage: check_codegen.py BENCH_CODEGEN_JSON

Reads the google-benchmark JSON of bench_codegen
(`--benchmark_format=json`) and checks, for the arithmetic and the string
expression, that the compiled (columnar kernel) form processes more rows
per second than the interpreted (boxed row) form. Both forms come from the
same scalar function bodies, so this is the ablation's invariant.
"""

import json
import sys


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        report = json.load(f)
    rate = {b["name"]: b["items_per_second"] for b in report["benchmarks"]}
    for expr in ("Arithmetic", "String"):
        compiled = rate[f"BM_{expr}Compiled"]
        interpreted = rate[f"BM_{expr}Interpreted"]
        print(f"{expr}: compiled {compiled / 1e6:.1f}M rows/s, "
              f"interpreted {interpreted / 1e6:.1f}M rows/s, "
              f"{compiled / interpreted:.1f}x")
        assert compiled > interpreted, (
            f"{expr}: compiled {compiled:.0f} rows/s not above "
            f"interpreted {interpreted:.0f} rows/s"
        )


if __name__ == "__main__":
    main()
