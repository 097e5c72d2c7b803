"""Steadiness report over recorded benchmark runs.

    python3 perfbench/steadiness.py [--runs FILE] [--last N] [--compare]

Reads the run records ``run.py`` appends to ``perfbench/.work/runs.jsonl``
(end-to-end runs only, ``--trace 0``) and prints, per workload and
end-to-end metric, the median, first and third quartile and the spread
``(q3 - q1) / median`` of the last ``N`` runs.  A metric whose spread
exceeds its bound in ``BENCHMARK.json`` is flagged ``OVER``, one above
a third of it ``WIDE``; ``setup_s`` is reported but its spread is not
gated.  With ``--compare`` the runs of each workload are split into an
earlier and a later half and the later median is checked against the
earlier one within the bound, in the metric's worse direction.  Exits 1
when anything is flagged ``OVER`` or ``WORSE``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", default=str(BENCH_DIR / ".work" / "runs.jsonl"))
    parser.add_argument("--config", default=str(BENCH_DIR.parent / "BENCHMARK.json"))
    parser.add_argument("--last", type=int, default=10)
    parser.add_argument("--compare", action="store_true")
    args = parser.parse_args(argv)

    config = json.loads(Path(args.config).read_text())
    by_workload: Dict[str, List[dict]] = {}
    for line in Path(args.runs).read_text().splitlines():
        run = json.loads(line)
        if run["trace"] == 0 and run["correct"]:
            by_workload.setdefault(run["workload"], []).append(run)
    bad = False
    for workload, runs in sorted(by_workload.items()):
        runs = runs[-(2 * args.last if args.compare else args.last):]
        steal = statistics.median(r["meta"]["steal_share"] for r in runs)
        print(f"{workload}: {len(runs)} runs, seeds "
              f"{sorted(r['seed'] for r in runs)}, median steal share {steal:.4f}")
        if len(runs) < 4:
            print("  too few runs for quartiles")
            continue
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            s = spread(values)
            flag = ""
            if name != "setup_s":
                flag = "OVER" if s > bound else "WIDE" if s > bound / 3 else ""
            bad |= flag == "OVER"
            line = (f"  {name:22s} median {median:12.5g}  q1 {q1:12.5g}  "
                    f"q3 {q3:12.5g}  spread {s:7.2%} / bound {bound:.0%} {flag}")
            if args.compare and len(values) >= 8:
                half = len(values) // 2
                first = statistics.median(values[:half])
                second = statistics.median(values[half:])
                change = (second - first) / first if first else 0.0
                worse = -change if metric["better"] == "higher" else change
                verdict = "WORSE" if worse > bound else ""
                bad |= bool(verdict)
                line += f"  halves {first:.5g} -> {second:.5g} ({change:+.2%}) {verdict}"
            print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
