"""ikdeg benchmark: runs the `ikdeg` CLI as a user does and checks every output.

    python3 perfbench/run.py --workload census-prime --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Run it from a source checkout (the directory holding `src/ikdeg`); it needs
nothing installed. Each CLI invocation is a fresh child process with its own
empty working directory, HOME and TMPDIR, no `IKDEG_*` or `PYTHON*`
variables and no `--threads`. One child runs at a time and this script starts
no threads.

Workloads (see BENCHMARK.json for why each was chosen):
  census-prime  `ikdeg census --p 3 --p-max 31 --n 1 --n-max 4`
  verify-suites the `ikdeg verify` suites identity, degree (p <= 19), stickelberger
                and cases, one process each
  sum-cold      batches of `ikdeg sum` queries, one process each; every batch
                covers each (p, n) with p in 5..31 and n in 1..6 once, in a
                seeded order, with b drawn uniformly from 1..p-1

With `--trace 0` it repeats whole passes of the workload while the
next pass is expected to end inside `--seconds` (at least one pass) and
reports the end-to-end metrics: wall_s and cpu_s are the mean pass,
setup_s and peak_rss_mb the median, and the record keeps the median and
quartiles of each. With `--trace 1` it runs one untraced and one
traced pass of the same inputs (`--seconds` is not used, so the counts
repeat exactly) and reports the per-layer metrics and the tracing overhead.

Every output is checked: census and verify stdout against the sha256 of
their output at commit 336c8a6 (reference.json), each sum against the
paper's degree (p-1)/gcd(n+1, p-1) and, when both paths ran,
`paths agree: True`. A wrong output, a nonzero exit or a timeout counts as
failed and makes the exit code 1. The last stdout line is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; the full
record, with every sample and the environment, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 11

CENSUS_ARGS = ("census", "--p", "3", "--p-max", "31", "--n", "1", "--n-max", "4")
PRIMES_TO_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
# `verify all` is one 30 s process whose time swings with the shared host; these
# are its suites that the CLI can run in a few seconds each. bounds has a fixed
# 15 s grid and is left out; degree is cut from p <= 31 to p <= 19.
VERIFY_SUITES = (
    ("verify", "identity"),
    ("verify", "degree", "--p-max", "19"),
    ("verify", "stickelberger"),
    ("verify", "cases"),
)
VERIFY_FIELDS = tuple((p, 1) for p in PRIMES_TO_31 if p <= 19)
SUM_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)
SUM_NS = (1, 2, 3, 4, 5, 6)
BOTH_PATHS_LIMIT = 30_000  # run the brute path too when (p-1)^n is at most this
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "query_p50_s": "s", "setup_s": "s"}


# -- correctness gate ------------------------------------------------------


def digest_check(reference):
    """Gate: stdout must equal, byte for byte, the output the reference hashes."""

    def check(stdout: bytes) -> str | None:
        got = hashlib.sha256(stdout).hexdigest()
        if got != reference["sha256"]:
            return (
                f"stdout sha256 {got[:16]} ({len(stdout)} bytes) differs from the "
                f"reference {reference['sha256'][:16]} ({reference['bytes']} bytes)"
            )
        return None

    return check


DEGREE_RE = re.compile(r"^degree\((?:\d+\*)?IK\) = (\d+)$", re.M)
MINPOLY_RE = re.compile(r"^minpoly\((?:\d+\*)?IK\) = \[([-\d, ]*)\]$", re.M)


def sum_check(p: int, n: int, both: bool):
    """Gate for one `ikdeg sum` over F_p, derived from the paper, not the program."""
    expected = (p - 1) // gcd(n + 1, p - 1)

    def check(stdout: bytes) -> str | None:
        text = stdout.decode("utf-8", "replace")
        if both and "\npaths agree: True\n" not in "\n" + text:
            return "brute and formula paths do not agree"
        embeddings = sum(1 for line in text.splitlines() if line.startswith("embedding j="))
        if embeddings != p - 1:
            return f"{embeddings} complex embeddings printed, want {p - 1}"
        degrees = DEGREE_RE.findall(text)
        if degrees != [str(expected)]:
            return f"degree lines {degrees}, want [{expected}] = (p-1)/gcd(n+1, p-1)"
        polys = MINPOLY_RE.findall(text)
        coeffs = [int(c) for c in polys[0].split(",")] if len(polys) == 1 else []
        if len(coeffs) != expected + 1 or coeffs[-1] != 1:
            return f"minimal polynomial is not monic of degree {expected}"
        return None

    return check


@dataclass
class Query:
    argv: tuple  # CLI arguments after `ikdeg`
    check: object  # stdout bytes -> error message or None
    label: str


def gate(query: Query, res) -> str | None:
    """Why a finished child counts as failed, or None when it passed."""
    if res.timed_out:
        return "timed out"
    if res.code != 0:
        tail = res.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
        return f"exit code {res.code} {tail}"
    return query.check(res.stdout)


# -- workloads -------------------------------------------------------------


def load_reference():
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def fixed_batches(queries):
    while True:
        yield list(queries)


def sum_batches(seed: int):
    """Closed loop of sum queries; each batch is one pass over the (p, n) grid."""
    rng = random.Random(seed)
    grid = [(p, n) for p in SUM_PRIMES for n in SUM_NS]
    while True:
        order = grid[:]
        rng.shuffle(order)
        batch = []
        for p, n in order:
            b = rng.randrange(1, p)
            both = (p - 1) ** n <= BOTH_PATHS_LIMIT
            path = "both" if both else "formula"
            argv = ("sum", "--p", str(p), "--n", str(n), "--b", str(b), "--path", path)
            batch.append(Query(argv, sum_check(p, n, both), f"sum p={p} n={n} b={b} {path}"))
        yield batch


@dataclass
class Workload:
    name: str
    batches: object  # seed -> iterator of query lists
    fields: tuple  # (p, k) pairs built during set-up


def workloads(reference):
    census = Query(CENSUS_ARGS, digest_check(reference["census-prime"]), "census")
    verify = [Query(argv, digest_check(reference[" ".join(argv)]), " ".join(argv)) for argv in VERIFY_SUITES]
    return {
        "census-prime": Workload(
            "census-prime",
            lambda seed: fixed_batches([census]),
            tuple((p, 1) for p in PRIMES_TO_31 if p >= 3),
        ),
        "verify-suites": Workload("verify-suites", lambda seed: fixed_batches(verify), VERIFY_FIELDS),
        "sum-cold": Workload("sum-cold", sum_batches, tuple((p, 1) for p in SUM_PRIMES)),
    }


# -- hermetic children -----------------------------------------------------


@dataclass
class ChildResult:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    timed_out: bool
    stdout: bytes
    stderr: bytes
    collected: object = None


def child_env(home: Path) -> dict:
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith(("IKDEG_", "PYTHON")) and k not in ("HOME", "TMPDIR", "TMP", "TEMP")
    }
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        HOME=str(home),
        TMPDIR=str(home),
        TMP=str(home),
        TEMP=str(home),
    )
    return env


def run_child(args, timeout: float, collect=None) -> ChildResult:
    """Run `python3 ARGS` in a fresh directory and time it with wait4.

    `collect(io_dir)` reads back files the child wrote into `io_dir` before
    the directory is removed. A SIGALRM timer kills the child at `timeout`.
    """
    OUT.mkdir(exist_ok=True)
    box = Path(tempfile.mkdtemp(prefix="child-", dir=OUT))
    home, io_dir = box / "home", box / "io"
    home.mkdir()
    io_dir.mkdir()
    timed_out = False
    proc = None
    try:
        with open(io_dir / "stdout", "wb") as out, open(io_dir / "stderr", "wb") as err:
            args = [str(a).replace("{io}", str(io_dir)) for a in args]
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args],
                cwd=home,
                env=child_env(home),
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=err,
            )

            def on_alarm(signum, frame):
                nonlocal timed_out
                timed_out = True
                proc.kill()

            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        result = ChildResult(
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            code=proc.returncode,
            timed_out=timed_out,
            stdout=(io_dir / "stdout").read_bytes(),
            stderr=(io_dir / "stderr").read_bytes(),
        )
        if collect is not None and result.code == 0 and not timed_out:
            result.collected = collect(io_dir)
        return result
    finally:
        if proc is not None and proc.returncode is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(box, ignore_errors=True)


def build():
    """Compile the checkout's sources to bytecode once, as an install would."""
    res = run_child(["-m", "compileall", "-q", str(SRC)], timeout=120)
    if res.code != 0:
        raise SystemExit(f"build failed: {res.stderr.decode('utf-8', 'replace')}")


# -- statistics ------------------------------------------------------------


def describe(values):
    """(median, q1, q3, n) as statistics.quantiles gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def hist_median(hist: dict) -> int:
    """Lower median of a {value: count} histogram; 0 when it is empty."""
    total = sum(hist.values())
    seen = 0
    for value in sorted(hist):
        seen += hist[value]
        if 2 * seen >= total:
            return value
    return 0


# -- the run ---------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failures: list = field(default_factory=list)

    def record(self, label, error):
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{label}: {error}")


def setup_probes(wl: Workload, count: int, deadline: float, tally: Tally):
    specs = [f"{p}:{k}" for p, k in wl.fields]
    times, facts = [], {}
    for _ in range(count):
        res = run_child([BENCH / "child.py", "setup", *specs], deadline - time.perf_counter())
        error = "timed out" if res.timed_out else None
        if error is None and res.code != 0:
            error = f"exit code {res.code}"
        if error is None:
            try:
                facts = json.loads(res.stdout.decode().strip().splitlines()[-1])
                times.append(facts["setup_s"])
            except (ValueError, IndexError, KeyError):
                error = "unreadable set-up probe output"
        tally.record("setup probe", error)
    return times, facts


def run_pass(batch, deadline: float, tally: Tally, traced=False):
    results = []
    for query in batch:
        if traced:
            args = [BENCH / "child.py", "trace", "{io}/meta.json", "{io}/spans.bin", "--", *query.argv]
            res = run_child(args, deadline - time.perf_counter(), collect=summarize_child)
        else:
            res = run_child(["-m", "ikdeg.cli", *query.argv], deadline - time.perf_counter())
        error = gate(query, res)
        if error is None and traced and res.collected is None:
            error = "traced child wrote no trace"
        tally.record(query.label, error)
        results.append(res)
    return results


def end_to_end(wl: Workload, seed: int, seconds: float, deadline: float, tally: Tally):
    setup_times, facts = setup_probes(wl, SETUP_PROBES, deadline, tally)
    batches, passes = [], []
    start = time.perf_counter()
    for batch in wl.batches(seed):
        batches.append([q.label for q in batch])
        passes.append(run_pass(batch, deadline, tally))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds or time.perf_counter() >= deadline:
            break
    walls = [[r.wall for r in ps] for ps in passes]
    if all(labels == batches[0] for labels in batches):
        # the same commands every pass: the median command of per-command means
        queries = [statistics.fmean(column) for column in zip(*walls)]
    else:
        queries = [w for ws in walls for w in ws]
    samples = {
        "wall_s": [sum(ws) for ws in walls],
        "cpu_s": [sum(r.cpu for r in ps) for ps in passes],
        "peak_rss_mb": [max(r.rss_mb for r in ps) for ps in passes],
        "setup_s": setup_times or [0.0],
        "query_p50_s": queries,
    }
    stats = {name: describe(vals) for name, vals in samples.items()}
    # The shared host's speed shifts by up to a third for a minute or more at a
    # time; the mean pass over the run moves less with those shifts than the median.
    means = {name: statistics.fmean(samples[name]) for name in ("wall_s", "cpu_s")}
    metrics = {
        name: {"value": means.get(name, stats[name][0]), "unit": unit} for name, unit in END_TO_END_UNITS.items()
    }
    samples["query_walls"] = walls
    return metrics, stats, samples, facts, len(passes)


# -- per-layer metrics from the traced pass --------------------------------


def summarize_child(io_dir: Path) -> dict:
    """Reduce one traced child's spans to per-name totals."""
    with open(io_dir / "meta.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    names, parents, starts, ends = tracer.load_spans(meta, io_dir / "spans.bin")
    span_names = meta.pop("span_names")
    selfs = tracer.self_times(parents, starts, ends)
    calls, self_s = {}, {}
    for i, s in enumerate(selfs):
        name = span_names[names[i]]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + s
    inclusive = {span_names[k]: v for k, v in tracer.inclusive_times(names, parents, starts, ends).items()}
    meta.update(calls=calls, self_s=self_s, inclusive_s=inclusive)
    return meta


def merge(into: dict, other: dict):
    """Add `other` into `into`, key by key (numbers add, dicts recurse)."""
    for key, value in other.items():
        if isinstance(value, dict):
            merge(into.setdefault(key, {}), value)
        else:
            into[key] = into.get(key, 0) + value


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "overhead")):
        return "ratio"
    if name.endswith("coeff_bits_max"):
        return "bits"
    if ".len_" in name:
        return "coeffs"
    return "count"


def layer_self_times(agg: dict) -> dict:
    out = {}
    for name, s in agg["self_s"].items():
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + s
    return out


def layer_metrics(agg: dict, overhead: float) -> dict:
    calls, incl, counts, caches = agg["calls"], agg["inclusive_s"], agg["counts"], agg["caches"]
    layer_self = layer_self_times(agg)

    def hit_ratio(cache):
        info = caches.get(cache, {})
        lookups = info.get("hits", 0) + info.get("misses", 0)
        return info.get("hits", 0) / lookups if lookups else 0.0

    lengths, bits = {}, {}
    for kind_hist, target in ((agg["kernel_lengths"], lengths), (agg["kernel_bits"], bits)):
        for hist in kind_hist.values():
            for value, count in hist.items():
                target[int(value)] = target.get(int(value), 0) + count
    ik_calls = calls.get("charsum.ik_formula_scaled", 0)
    values = {
        "kernels.calls": calls.get("kernels.linear_convolve", 0) + calls.get("kernels.cyclic_convolve", 0),
        "kernels.self_s": layer_self.get("kernels", 0.0),
        "kernels.coeffs_in": agg["kernel_coeffs_in"],
        "kernels.len_p50": hist_median(lengths),
        "kernels.len_max": max(lengths, default=0),
        "kernels.coeff_bits_max": max(bits, default=0),
        "cyclo.mul_calls": counts.get("CycInt.__mul__", 0) + counts.get("CycInt.__rmul__", 0),
        "cyclo.canonical_calls": counts.get("CycInt.canonical", 0),
        "cyclo.lower_conductor_s": incl.get("cyclo.lower_conductor", 0.0),
        "cyclo.embed_complex_s": incl.get("cyclo.embed_complex", 0.0),
        "cyclo.self_s": layer_self.get("cyclo", 0.0),
        "charsum.ik_formula_calls": ik_calls,
        "charsum.ik_formula_useful_ratio": agg["ik_distinct"] / ik_calls if ik_calls else 0.0,
        "charsum.gauss_sum_calls": calls.get("charsum.gauss_sum", 0),
        "charsum.brute_s": incl.get("charsum.inverted_kloosterman_brute", 0.0)
        + incl.get("charsum.kloosterman_brute", 0.0),
        "charsum.brute_tuples": agg["brute_tuples"],
        "charsum.self_s": layer_self.get("charsum", 0.0),
        "ff.get_field_misses": caches.get("ff.get_field", {}).get("misses", 0),
        "ff.field_build_s": incl.get("ff.Field", 0.0),
        "ff.elt_ops": sum(v for k, v in counts.items() if k.startswith("FieldElt.")),
        "galois.degree_calls": calls.get("galois.degree_of", 0),
        "galois.self_s": layer_self.get("galois", 0.0),
        "galois.min_poly_s": incl.get("galois.min_poly", 0.0),
        "padic.embed_calls": calls.get("padic.embed_cyclotomic", 0),
        "padic.embed_s": incl.get("padic.embed_cyclotomic", 0.0),
        "padic.elt_new": counts.get("PadicElt.__init__", 0),
        "padic.mul_calls": counts.get("PadicElt.__mul__", 0) + counts.get("PadicElt.__rmul__", 0),
        "padic.add_calls": sum(counts.get(f"PadicElt.{op}", 0) for op in ("__add__", "__radd__", "__sub__")),
        "padic.case_calls": calls.get("padic.case_analysis", 0),
        "padic.precision_retries": calls.get("padic.case_analysis", 0) - calls.get("padic.run_case_analysis", 0),
        "padic.self_s": layer_self.get("padic", 0.0),
        "padic.teichmuller_hit_ratio": hit_ratio("padic.teichmuller"),
        "padic.zeta_p_padic_hit_ratio": hit_ratio("padic.zeta_p_padic"),
        "padic.embedded_scaled_ik_hit_ratio": hit_ratio("padic._embedded_scaled_ik"),
        "suites.identity_s": incl.get("suites.identity_suite", 0.0),
        "suites.degree_s": incl.get("suites.degree_suite", 0.0),
        "suites.stickelberger_s": incl.get("suites.stickelberger_suite", 0.0),
        "suites.cases_s": incl.get("suites.cases_suite", 0.0),
        "cli.census_record_s": incl.get("cli.census_record", 0.0),
        "trace_overhead": overhead,
    }
    return {name: {"value": value, "unit": layer_unit(name)} for name, value in values.items()}


def per_layer(wl: Workload, seed: int, deadline: float, tally: Tally):
    _times, facts = setup_probes(wl, 1, deadline, tally)
    batch = next(wl.batches(seed))
    untraced = run_pass(batch, deadline, tally)
    traced = run_pass(batch, deadline, tally, traced=True)
    agg: dict = {}
    for res in traced:
        if res.collected is not None:
            merge(agg, res.collected)
    if not agg:
        return None, facts, {}
    overhead = sum(r.wall for r in traced) / sum(r.wall for r in untraced) - 1.0
    record = {
        "untraced_wall_s": sum(r.wall for r in untraced),
        "traced_wall_s": sum(r.wall for r in traced),
        "layer_self_s": layer_self_times(agg),
        "calls": agg["calls"],
        "inclusive_s": agg["inclusive_s"],
        "counts": agg["counts"],
        "caches": agg["caches"],
        "kernel_traffic": {"lengths": agg["kernel_lengths"], "coeff_bits": agg["kernel_bits"]},
    }
    return layer_metrics(agg, overhead), facts, record


# -- environment and output ------------------------------------------------


def environment(facts: dict, load_start, load_end) -> dict:
    sha, dirty = "none (not a git checkout)", None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        res = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = res.stdout.strip() or "unknown"
        res = subprocess.run([*git, "status", "--porcelain", "--untracked-files=no"], capture_output=True, text=True)
        dirty = bool(res.stdout.strip())
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": sys.version.split()[0],
        "have_compiled": facts.get("have_compiled"),
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": load_end,
    }


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    load_start = os.getloadavg()
    tally = Tally()
    record = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if trace:
        metrics, facts, record["layers"] = per_layer(wl, seed, deadline, tally)
        metrics = metrics or {}
    else:
        metrics, stats, samples, facts, n_passes = end_to_end(wl, seed, seconds, deadline, tally)
        record.update(passes=n_passes, samples=samples, quartiles={k: v[:3] for k, v in stats.items()})
    record["env"] = environment(facts, load_start, os.getloadavg())
    record["failures"] = tally.failures
    record["result"] = {
        "correct": not tally.failures and bool(metrics),
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{wl.name}-seed{seed}-trace{int(trace)}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if record.get("layers"):
        with open(OUT / f"kernel-traffic-{wl.name}.json", "w", encoding="utf-8") as fh:
            json.dump(record["layers"]["kernel_traffic"], fh, indent=1, sort_keys=True)
    report(record, path)
    return record["result"]


def report(record: dict, path: Path):
    env, result = record["env"], record["result"]
    print(
        f"env: sha={env['git_sha'][:12]} dirty={env['git_dirty']} python={env['python']} "
        f"HAVE_COMPILED={env['have_compiled']} nproc={env['nproc']} "
        f"loadavg {env['loadavg_start'][0]:.2f} -> {env['loadavg_end'][0]:.2f}"
    )
    fail_frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(
        f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
        f"{result['attempted']} processes, {result['failed']} failed, fail_frac {fail_frac:.4g} ratio"
    )
    quartiles = record.get("quartiles", {})
    for name, m in result["metrics"].items():
        extra = ""
        if name in quartiles:
            med, q1, q3 = quartiles[name]
            extra = f"  (median {med:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, n={len(record['samples'][name])})"
        print(f"  {name:38s} {m['value']:>14.6g} {m['unit']}{extra}")
    for failure in record["failures"][:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"record: {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ikdeg" / "cli.py").is_file():
        print(f"error: no ikdeg sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    table = workloads(load_reference())
    names = list(table) if args.workload == "all" else [args.workload]
    if any(name not in table for name in names):
        print(f"error: unknown workload {args.workload!r}; choose from {list(table)} or all", file=sys.stderr)
        return 2
    build()
    results = {name: run_workload(table[name], args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
