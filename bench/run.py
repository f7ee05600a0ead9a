"""Benchmark for tschmm: one workload per run, result as a JSON last line.

    python3 bench/run.py --workload experiment|stream|cli_files \
        --seed N --seconds S --trace 0|1

Run from the repository root; tschmm is imported from ./src. The run sets
the workload up at least three times (setup_s is the fastest), runs the
workload's operations in whole rounds until S seconds have passed, then
checks the outputs against independent oracles. With --trace 0 it reports the
end-to-end metrics; with --trace 1 it wraps tschmm's module-level functions
in spans and reports the per-layer metrics instead. Work files, results
and span dumps go to bench/out/. See bench/README.md.
"""

import os

# One BLAS thread: by default OpenBLAS adds a spinning second thread that
# doubles CPU time on a 2-vCPU host without lowering wall time, and makes
# timings depend on what else the host runs. Must precede the numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
# set up at least SETUPS times and for SETUP_MIN_S in all; setup_s is the
# fastest, raw: the set-ups do identical work, and the fastest of many is
# the figure the host's slow spells move least
SETUPS = 3
SETUP_MIN_S = 2.0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("experiment", "stream", "cli_files"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program():
    """Import tschmm from this checkout's src/, and nowhere else."""
    if not (SRC / "tschmm" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'tschmm'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import tschmm

    if Path(tschmm.__file__).resolve().parent != (SRC / "tschmm").resolve():
        raise SystemExit(f"error: imported tschmm from {tschmm.__file__}, not {SRC}")


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run(args) -> dict:
    import numpy as np

    import clock
    import layers
    import oracles
    import spans
    import workloads

    oracles.selfcheck()
    setup, round_calls, check = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tracer = spans.Tracer()
    try:
        if args.trace:
            layers.install(tracer)
        host = clock.HostClock()
        setup_s = []
        while len(setup_s) < SETUPS or sum(setup_s) < SETUP_MIN_S:
            t0 = time.perf_counter()
            ctx = setup(args.seed, workdir)
            setup_s.append(time.perf_counter() - t0)
            host.tick()
        n_setup_spans = len(tracer.spans)

        results, op_s, errors = [], [], []
        attempted = 0
        cpu0, start = _cpu_s(), time.perf_counter()
        r = 0
        while True:
            for label, fn in round_calls(ctx, r):
                attempted += 1
                t0 = time.perf_counter()
                try:
                    kept = fn()
                except Exception as exc:  # counted as failed, reported below
                    errors.append(f"round {r} {label}: {type(exc).__name__}: {exc}")
                    continue
                op_s.append(time.perf_counter() - t0)
                results.append((r, label, kept))
                host.tick()
            r += 1
            if time.perf_counter() - start >= args.seconds:
                break
        wall, cpu = time.perf_counter() - start, _cpu_s() - cpu0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tracer.uninstall()

        problems = check(ctx, results) if results else ["no operation succeeded"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in errors + problems:
        print(line, file=sys.stderr)
    print(f"raw op_ms.mean {1e3 * statistics.fmean(op_s):.6g}, median probe "
          f"{1e3 * statistics.median(host.probes):.6g} ms over {len(host.probes)} probes",
          file=sys.stderr)
    ms = [1e3 * host.factor * t for t in op_s]
    if args.trace:
        metrics = layers.metrics(tracer.spans[:n_setup_spans], tracer.spans[n_setup_spans:],
                                 attempted, len(setup_s), host.factor)
        metrics["traced.op_ms.mean"] = (statistics.fmean(ms), "ms")
        metrics["traced.op_ms.p99"] = (float(np.percentile(ms, 99)), "ms")
        metrics["host.probe_ms"] = (1e3 * statistics.median(host.probes), "ms")
        metrics["process.cpu_per_wall"] = (cpu / wall, "ratio")
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    else:
        metrics = {
            "setup_s": (min(setup_s), "s"),
            "op_ms.mean": (statistics.fmean(ms), "ms"),
            "op_ms.p50": (statistics.median(ms), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    result = run(args)
    line = json.dumps(result)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
