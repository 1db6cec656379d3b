"""Child-process entry points for perfbench/run.py.

    python3 child.py setup P:K [P:K ...]
        Times `import ikdeg.cli` plus `get_field(p, k)` for each field and
        prints one JSON object with the time and the build facts.
    python3 child.py trace META SPANS -- CLI-ARGS ...
        Runs the ikdeg CLI in this process with the tracer installed, then
        writes the spans and counters to META (JSON) and SPANS (arrays).
"""

import json
import sys
import time


def setup(fields):
    t0 = time.perf_counter()
    import ikdeg.cli  # noqa: F401
    from ikdeg.ff import get_field

    for spec in fields:
        p, k = (int(x) for x in spec.split(":"))
        get_field(p, k)
    elapsed = time.perf_counter() - t0

    import ikdeg

    print(json.dumps({"setup_s": elapsed, "have_compiled": ikdeg.HAVE_COMPILED}))
    return 0


def trace(meta_path, spans_path, argv):
    import ikdeg.cli
    from tracer import Tracer

    tracer = Tracer().install()
    code = ikdeg.cli.main(argv)
    sys.stdout.flush()
    tracer.dump(meta_path, spans_path)
    return code


def main(argv):
    if argv[:1] == ["setup"]:
        return setup(argv[1:])
    if argv[:1] == ["trace"] and len(argv) >= 4 and argv[3] == "--":
        return trace(argv[1], argv[2], argv[4:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
