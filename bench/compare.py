"""Compare benchmark records of a parent commit and a change.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 bench/compare.py --spread RESULTS.jsonl

Inputs are the JSON lines that `bench/run.py --out FILE` appends.  Run the
parent and the change alternately, at least 10 times each per workload,
with the same seeds; records pair up in file order within a workload.
Prints one row per workload and end-to-end metric with each side's median
and quartiles and a verdict (see stats.verdict).  `--spread` prints, for
one set of runs, each metric's interquartile distance as a share of its
median next to the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from bench import stats  # noqa: E402


def load(path) -> dict:
    """{workload: [record, ...]} for the untraced records in a file."""
    out: dict[str, list] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            if not record["context"]["trace"]:
                out.setdefault(record["context"]["workload"], []).append(record)
    return out


def bounds() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"]}


def _summary(values) -> str:
    q1, q2, q3 = stats.quartiles(values)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}]"


def compare(parent_path, change_path):
    parent, change = load(parent_path), load(change_path)
    spec = bounds()
    print("workload         metric        parent median [q1, q3]            "
          "change median [q1, q3]            wins/pairs  verdict")
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        p_fail = sum(r["failed"] for r in p_runs)
        c_fail = sum(r["failed"] for r in c_runs)
        for name, metric in spec.items():
            p = [r["metrics"][name] for r in p_runs]
            c = [r["metrics"][name] for r in c_runs]
            sign = 1 if metric["better"] == "lower" else -1
            wins = sum(1 for a, b in zip(p, c) if sign * (a - b) > 0)
            verdict = stats.verdict(p, c, metric["better"], metric["bound"])
            if c_fail > p_fail:
                # one more wrong answer is a regression, whatever the bound
                if name == "ok_ratio":
                    verdict = "worse"
                elif verdict == "improved":
                    verdict = "not a gain: more ops failed"
            print(f"{workload:16s} {name:13s} {_summary(p):33s} {_summary(c):33s} "
                  f"{wins:>3d}/{min(len(p), len(c)):<3d}     {verdict}")
        print(f"{workload:16s} failed ops: parent {p_fail}, change {c_fail}")


def spread(path):
    runs = load(path)
    spec = bounds()
    for workload, records in sorted(runs.items()):
        print(f"{workload}: {len(records)} runs, {sum(r['failed'] for r in records)} failed ops")
        for name, metric in spec.items():
            values = [r["metrics"][name] for r in records]
            share = stats.relative_spread(values)
            print(f"  {name:13s} median {stats.median(values):<12.5g} IQR/median {share:.4f}"
                  f"  bound {metric['bound']}  {'ok' if share < metric['bound'] / 3 else 'WIDE'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+")
    parser.add_argument("--spread", action="store_true")
    args = parser.parse_args(argv)
    if args.spread:
        for path in args.files:
            spread(path)
    elif len(args.files) == 2:
        compare(*args.files)
    else:
        parser.error("give PARENT.jsonl CHANGE.jsonl, or --spread FILE")
    return 0


if __name__ == "__main__":
    sys.exit(main())
