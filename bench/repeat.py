"""Repeat bench/run.py over seeds and summarise the spread of every metric.

    python3 bench/repeat.py --seeds 1-10 --out bench/out/set-a.json
    python3 bench/repeat.py --summarize bench/out/set-b.json --against bench/out/set-a.json

A set runs every workload once per seed, seed by seed, so that a slow spell
of the machine falls on all workloads alike. The summary gives, per workload
and metric, the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread (q3 - q1) / median; with ``--against``, also how much worse the
median is than the other set's, as a share of that median. Both are checked
against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(workloads, seeds, trace: int, seconds: int) -> list[dict]:
    spec = load_spec()
    records = []
    for seed in seeds:
        for workload in workloads:
            argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            start = time.perf_counter()
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            elapsed = time.perf_counter() - start
            if done.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            records.append({"workload": workload, "seed": seed, "trace": trace,
                            "elapsed_s": elapsed, **result})
            print(f"{workload:<12} seed {seed:<3} {elapsed:6.1f} s  correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    return records


def summarize(records: list[dict], against: list[dict] | None) -> bool:
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    ok = True

    def medians(recs):
        out = {}
        for r in recs:
            for name, m in r["metrics"].items():
                out.setdefault((r["workload"], name), []).append(m["value"])
        return out

    mine = medians(records)
    theirs = medians(against) if against else {}
    print(f"{'workload':<12} {'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}" + (f" {'worse':>7}" if against else ""))
    for (workload, name), values in mine.items():
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = metrics[name].get("bound")
        line = (f"{workload:<12} {name:<40} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                f"{spread:7.1%} {'' if bound is None else f'{bound:.2f}':>6}")
        if bound is not None and spread > bound:
            ok = False
            line += "  SPREAD OVER BOUND"
        if against and (workload, name) in theirs:
            base = statistics.median(theirs[(workload, name)])
            sign = 1.0 if metrics[name]["better"] == "lower" else -1.0
            worse = sign * (med - base) / base
            line += f" {worse:7.1%}"
            if bound is not None and worse > bound:
                ok = False
                line += "  WORSE THAN BOUND"
        print(line)
    # The share of failed operations must be exactly the same in every run.
    shares: dict[str, set[Fraction]] = {}
    for label, recs in (("this set", records), ("other set", against or [])):
        for workload in sorted({r["workload"] for r in recs}):
            runs = [r for r in recs if r["workload"] == workload]
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            correct = all(r["correct"] for r in runs)
            wall = [r["elapsed_s"] for r in runs]
            shares.setdefault(workload, set()).update(
                Fraction(r["failed"], r["attempted"]) for r in runs)
            print(f"{label}: {workload}: {len(runs)} runs, failed {failed}/{attempted}, "
                  f"correct={correct}, run wall {min(wall):.1f}-{max(wall):.1f} s")
            ok = ok and correct
    for workload, seen in shares.items():
        if len(seen) > 1:
            ok = False
            print(f"{workload}: FAILED SHARE VARIES between runs: {sorted(map(str, seen))}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in load_spec()["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--seconds", type=int, default=load_spec()["run_seconds"])
    parser.add_argument("--out", type=Path, help="write the runs' results here")
    parser.add_argument("--summarize", type=Path, help="summarise a saved set instead")
    parser.add_argument("--against", type=Path, help="a saved set to compare medians with")
    args = parser.parse_args()

    if args.summarize:
        records = json.loads(args.summarize.read_text())
    else:
        records = run_set(args.workloads, parse_seeds(args.seeds), args.trace, args.seconds)
        if args.out:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(json.dumps(records, indent=1))
    against = json.loads(args.against.read_text()) if args.against else None
    return 0 if summarize(records, against) else 1


if __name__ == "__main__":
    sys.exit(main())
