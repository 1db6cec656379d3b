"""Steadiness check: run the benchmark over several seeds and report spreads.

    python3 perfbench/steady.py --workload census-prime verify-suites sum-cold \
        --seeds 10 --traced 2 --out perfbench/out/steady.json

For each workload it runs `run.py --trace 0` once per seed (seeds 1..N) and
reports, for every end-to-end metric, the median and the spread: the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median. A spread of a third of the metric's bound in
BENCHMARK.json or more is flagged. With --traced K it also makes K traced
runs on seed 1 and checks that every count repeats exactly. --out writes
the spreads, every run's values, the traced metrics, the kernel traffic and
the environment as JSON. Exits 1 when a run fails, a spread other than
setup_s's is flagged, or a count differs.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

import run


def bench(workload, seed, trace, seconds):
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
    last = res.stdout.strip().splitlines()[-1:] or ["{}"]
    try:
        result = json.loads(last[0])
    except ValueError:
        result = {}
    if res.returncode != 0 or not result.get("correct"):
        print(f"  seed {seed} trace {trace}: FAILED (exit {res.returncode}) {res.stderr[-500:]}")
        return None
    return result


def read_record(name):
    path = run.OUT / name
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--traced", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    summary = {}
    for workload in args.workload:
        t0 = time.perf_counter()
        runs = [bench(workload, seed, 0, args.seconds) for seed in range(1, args.seeds + 1)]
        ok = ok and all(runs)
        runs = [r for r in runs if r]
        row = {"runs": len(runs), "seconds_per_run": (time.perf_counter() - t0) / max(args.seeds, 1)}
        print(f"{workload}: {len(runs)} runs, {row['seconds_per_run']:.1f} s per run")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bound / 3 else "  <-- spread >= bound/3"
            if flag and name != "setup_s":
                ok = False
            print(f"  {name:14s} median {med:10.5g}  q1 {q1:10.5g}  q3 {q3:10.5g}  spread {spread:6.2%}  bound {bound:.0%}{flag}")
            row[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
        traced = [bench(workload, 1, 1, args.seconds) for _ in range(args.traced)]
        ok = ok and all(traced)
        traced = [r for r in traced if r]
        if traced:
            counts = [
                {k: v["value"] for k, v in r["metrics"].items() if v["unit"] in ("count", "coeffs", "bits")}
                for r in traced
            ]
            same = all(c == counts[0] for c in counts)
            ok = ok and same
            print(f"  traced runs: {len(traced)}, counts identical: {same}")
            row["traced"] = [{k: v["value"] for k, v in r["metrics"].items()} for r in traced]
            row["kernel_traffic"] = read_record(f"kernel-traffic-{workload}.json")
        row["env"] = read_record(f"{workload}-seed1-trace0.json").get("env")
        summary[workload] = row
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
