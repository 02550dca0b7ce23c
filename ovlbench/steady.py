#!/usr/bin/env python3
"""Steadiness check for the ovlsim benchmark.

Runs each workload of BENCHMARK.json k times, each with another seed,
and prints per end-to-end metric the median, the quartiles and the
spread (third minus first quartile, as a share of the median) against
the metric's bound. Also prints the failed-operation share and the
simulated-result digest of each run.

Run from the root of the repository:

    python3 ovlbench/steady.py                      # 10 runs per workload
    python3 ovlbench/steady.py -k 5 -w tune-search  # 5 runs, one workload
    python3 ovlbench/steady.py --traced             # also traced runs: overhead
    python3 ovlbench/steady.py --save a.json        # keep this set's figures
    python3 ovlbench/steady.py --against a.json     # compare with a kept set

The runs are interleaved, seed by seed across the workloads, so that a
slow spell of the host falls on every workload alike instead of on the
one that happened to run then.

With --against, each median is also compared with the same workload's
median in the kept set, as the share by which it got worse, and each
run's simulated-result digest with the kept one of the same seed.

Exits 1 when a spread exceeds its bound, a median got worse than the
kept one by more than its bound, a digest differs, or an operation
failed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    digest = next((l for l in lines if l.startswith("digest:")), "digest: none")
    traced = next((l for l in lines if l.startswith("traced:")), None)
    return json.loads(lines[-1]), digest, traced


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-k", "--runs", type=int, default=10)
    ap.add_argument("-w", "--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed0", type=int, default=1,
                    help="first seed; run i uses seed0 + i")
    ap.add_argument("--seconds", type=int, help="override run_seconds")
    ap.add_argument("--traced", action="store_true",
                    help="also make one traced run per seed and print the "
                         "tracing overhead")
    ap.add_argument("--save", metavar="FILE",
                    help="write this set's medians and digests as JSON")
    ap.add_argument("--against", metavar="FILE",
                    help="compare with a set written by --save")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    runs = {w: [] for w in workloads}
    traced = {w: [] for w in workloads}
    for i in range(args.runs):
        seed = args.seed0 + i
        for w in workloads:
            result, digest, _ = run(bench["command"], w, seed, seconds, 0)
            # The round count varies with the host's speed; the rest of
            # the digest line must not.
            result["digest"] = " ".join(f for f in digest.split()[1:]
                                        if not f.startswith("rounds="))
            runs[w].append(result)
            if args.traced:
                traced[w].append(run(bench["command"], w, seed, seconds, 1)[2])
            print(f"  {w} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} | {digest}", flush=True)
    kept = json.loads(Path(args.against).read_text()) if args.against else {}
    saved = {}
    ok = True
    for w in workloads:
        print(f"{w}: {args.runs} runs of {seconds} s")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict"
              + ("   worse than kept" if w in kept else ""))
        saved[w] = {"medians": {}, "digests": {}}
        for name, meta in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs[w]]
            med, q1, q3, sp = spread(values)
            saved[w]["medians"][name] = med
            steady = sp <= meta["bound"]
            verdict = ("ok" if sp <= meta["bound"] / 3 else
                       "within bound" if steady else "TOO WIDE")
            ok = ok and steady
            line = (f"  {name:<16} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                    f"{sp:>8.4f} {meta['bound']:>6}  {verdict:<12}")
            if w in kept:
                old = kept[w]["medians"][name]
                worse = (old - med if meta["better"] == "higher"
                         else med - old) / old
                ok = ok and worse <= meta["bound"]
                line += f" {worse:+.4f}" + ("" if worse <= meta["bound"]
                                            else " TOO WORSE")
            print(line)
        for i, r in enumerate(runs[w]):
            saved[w]["digests"][str(args.seed0 + i)] = r["digest"]
        if w in kept:
            same = [s for s, d in saved[w]["digests"].items()
                    if kept[w]["digests"].get(s) == d]
            differ = [s for s, d in saved[w]["digests"].items()
                      if s in kept[w]["digests"] and kept[w]["digests"][s] != d]
            print(f"  digests equal to kept: {len(same)}, differing: {differ}")
            ok = ok and not differ
        shares = {r["failed"] / r["attempted"] for r in runs[w]}
        print(f"  failed share per run: {sorted(shares)}")
        if any(r["failed"] or not r["correct"] for r in runs[w]):
            ok = False
        if traced[w]:
            fields = [dict(kv.split("=", 1) for kv in t.split()[2:])
                      for t in traced[w]]
            print("  tracing overhead (traced median / untraced median - 1):")
            for name in bounds:
                if name == "setup_s":
                    continue
                t_med = statistics.median(float(f[name]) for f in fields)
                u_med = statistics.median(r["metrics"][name]["value"]
                                          for r in runs[w])
                print(f"    {name:<16} {t_med / u_med - 1:+.4f}")
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
