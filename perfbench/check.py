"""Self-check of the benchmark's own logic.

    python3 perfbench/check.py

Checks the self-time arithmetic on nested and overlapping spans, the span
tree the tracer records, that the correctness gate rejects a one-byte-altered
output and a nonzero exit from the real CLI, and that BENCHMARK.json names
exactly the metrics run.py reports. Exits 1 on any failure.
"""

import hashlib
import json
import sys

import run
import tracer

FAILURES = []


def expect(cond, what):
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        FAILURES.append(what)


def close(a, b):
    return abs(a - b) < 1e-9


def check_self_times():
    # A[0,10] has children B[1,4] and C[5,9]; B has child D[2,3].
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    got = tracer.self_times(parents, starts, ends)
    expect(all(map(close, got, [3.0, 2.0, 1.0, 4.0])), f"self time of nested spans {got}")
    # Overlapping children [1,4] and [3,6] cover [1,6] once: self 10 - 5.
    got = tracer.self_times([-1, 0, 0], [0.0, 1.0, 3.0], [10.0, 4.0, 6.0])
    expect(close(got[0], 5.0), f"overlapping children counted once {got}")
    # A span nested in a span of the same name adds nothing to its inclusive time.
    names = [0, 0, 1]
    incl = tracer.inclusive_times(names, [-1, 0, 1], [0.0, 1.0, 2.0], [10.0, 4.0, 3.0])
    expect(close(incl[0], 10.0) and close(incl[1], 1.0), f"inclusive time per name {incl}")


def check_span_tree():
    t = tracer.Tracer()
    inner = t.span("x.inner", lambda: None)
    outer = t.span("x.outer", lambda: (inner(), inner()))
    outer()
    expect(list(t.parents) == [-1, 0, 0], f"span parents {list(t.parents)}")
    expect([t.span_names[i] for i in t.names] == ["x.outer", "x.inner", "x.inner"], "span names")
    selfs = tracer.self_times(t.parents, t.starts, t.ends)
    total = t.ends[0] - t.starts[0]
    expect(close(sum(selfs), total), "self times of a tree sum to the root's duration")


def check_gate():
    query = run.Query(("sum", "--p", "7", "--n", "2", "--b", "3", "--path", "both"), run.sum_check(7, 2, True), "sum")
    res = run.run_child(["-m", "ikdeg.cli", *query.argv], timeout=60)
    expect(run.gate(query, res) is None, f"gate accepts a correct sum ({run.gate(query, res)})")
    altered = bytearray(res.stdout)
    at = bytes(altered).index(b"True")
    altered[at] = ord("t")
    res.stdout = bytes(altered)
    expect(run.gate(query, res) is not None, "gate rejects a sum with one byte altered")

    verify = run.run_child(["-m", "ikdeg.cli", "verify", "stickelberger", "--p", "7"], timeout=60)
    ref = {"sha256": hashlib.sha256(verify.stdout).hexdigest(), "bytes": len(verify.stdout)}
    query = run.Query(("verify",), run.digest_check(ref), "verify")
    expect(run.gate(query, verify) is None, "digest gate accepts the reference output")
    for i in (0, len(verify.stdout) // 2, len(verify.stdout) - 1):
        altered = bytearray(verify.stdout)
        altered[i] ^= 1
        verify.stdout = bytes(altered)
        expect(run.gate(query, verify) is not None, f"digest gate rejects byte {i} altered")
        altered[i] ^= 1
        verify.stdout = bytes(altered)

    bad = run.run_child(["-m", "ikdeg.cli", "sum", "--p", "4", "--n", "1", "--b", "1"], timeout=60)
    query = run.Query(("sum",), lambda out: None, "sum")
    expect(bad.code != 0 and run.gate(query, bad) is not None, f"gate rejects exit code {bad.code}")
    bad.code, bad.timed_out = 0, True
    expect(run.gate(query, bad) is not None, "gate rejects a timeout")


def check_metric_names():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(e2e == run.END_TO_END_UNITS, "BENCHMARK.json end_to_end matches run.py")
    empty = {
        "calls": {}, "self_s": {}, "inclusive_s": {}, "counts": {}, "caches": {},
        "kernel_lengths": {}, "kernel_bits": {}, "kernel_coeffs_in": 0,
        "ik_distinct": 0, "brute_tuples": 0,
    }
    reported = {k: v["unit"] for k, v in run.layer_metrics(empty, 0.0).items()}
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(reported == declared, "BENCHMARK.json per_layer matches run.py")


def main():
    if not (run.SRC / "ikdeg" / "cli.py").is_file():
        print(f"error: no ikdeg sources under {run.SRC}", file=sys.stderr)
        return 2
    check_self_times()
    check_span_tree()
    check_gate()
    check_metric_names()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
