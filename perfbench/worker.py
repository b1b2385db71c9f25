"""Child process of the benchmark: runs macrolens the way a user does and
writes its own timings as JSON.

    worker.py --result R [--trace T] cli OP ARGV...
        one ``macrolens ARGV`` command in this fresh interpreter, timed
        around ``cli.main``, with the import of ``macrolens.cli`` timed
        separately
    worker.py --result R [--trace T] points SEED FIRST ROUNDS SECONDS
        a closed loop of in-process ``cli.main(["compute", ...])`` calls
        from round FIRST on of the seeded stream: exactly ROUNDS rounds, or
        whole rounds until SECONDS have passed when ROUNDS is 0

With --trace the public functions of every macrolens module are wrapped
(see spans.py) after the import and before the timed work.  The runner
starts this script with PYTHONPATH pointing at the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import time


def _env_record() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
    }


def _run_cli(cli, tracer, op: str, argv: list) -> dict:
    if tracer is not None:
        tracer.begin_op(op)
    start = time.perf_counter()
    code = cli.main(argv)
    return {"main_s": time.perf_counter() - start, "returncode": code}


def _call(cli, argv: list) -> tuple:
    """One in-process compute call: (return code or None, stdout, error)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return cli.main(argv), out.getvalue(), None
    except (Exception, SystemExit) as exc:  # one failed point must not end the stream
        return None, out.getvalue(), repr(exc)


def _run_points(cli, tracer, seed: int, first: int, rounds: int, seconds: float) -> dict:
    import workloads
    from macrolens.distinguishability import dfs_kd_closed_form

    for argv in workloads.warmup_round(seed):
        _call(cli, argv)
    stream = workloads.point_rounds(seed)
    for _ in range(first):
        next(stream)
    calls, round_s = [], []
    start = time.perf_counter()
    while (len(round_s) < rounds) if rounds > 0 else (
            not round_s or time.perf_counter() - start < seconds):
        round_start = time.perf_counter()
        for argv in next(stream):
            if tracer is not None:
                tracer.begin_op(f"p{len(calls)}")
            t0 = time.perf_counter()
            code, out, error = _call(cli, argv)
            calls.append({"argv": argv, "main_s": time.perf_counter() - t0,
                          "returncode": code, "output": out, "error": error})
        round_s.append(time.perf_counter() - round_start)
    # untimed: the closed form that ideal-PNRD dfs points must reproduce
    for call in calls:
        opts = workloads.point_options(call["argv"])
        if (opts["--family"], opts["--detector"], float(opts["--sigma"])) == ("dfs", "pnrd", 0.0):
            call["closed_form_kd"] = dfs_kd_closed_form(float(opts["--alpha"]))
    return {"calls": calls, "round_s": round_s}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", default=None)
    sub = parser.add_subparsers(dest="mode", required=True)
    one = sub.add_parser("cli")
    one.add_argument("op")
    one.add_argument("argv", nargs=argparse.REMAINDER)
    pts = sub.add_parser("points")
    pts.add_argument("seed", type=int)
    pts.add_argument("first", type=int)
    pts.add_argument("rounds", type=int)
    pts.add_argument("seconds", type=float)
    args = parser.parse_args()

    start = time.perf_counter()
    from macrolens import cli
    import_s = time.perf_counter() - start

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    if args.mode == "cli":
        result = _run_cli(cli, tracer, args.op, args.argv)
    else:
        result = _run_points(cli, tracer, args.seed, args.first, args.rounds, args.seconds)
    result["import_s"] = import_s
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = _env_record()
    if tracer is not None:
        tracer.write(args.trace)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
