"""End-to-end and per-layer benchmark of iterkg's train / rules / eval paths.

Usage, from the repository root:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0|1} [--tiny]

Workloads: planted-demo, zipf-inject, zipf-rules, fb237-rank (see
perfbench/README.md); BENCHMARK.json gates the first two.  Inputs are
generated from ``--seed``.  Each repetition runs in a fresh worker
process, one at a time (a closed loop of one client), with BLAS pinned to
``BLAS_THREADS`` threads.  Repetitions continue while another fits in
``--seconds``, and at least ``MIN_REPS`` run; reported figures are
medians over repetitions.  ``run_rel`` is ``run_s`` over the time of a
fixed reference job timed just before and after the repetition, so it
holds still while the shared host speeds up and slows down.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics: spans
and counters from the traced ones, throughputs and the tracing overhead
against the untraced ones.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a full record with
every repetition and the host goes to ``.perfbench/records/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

BLAS_THREADS = 1
MIN_REPS = 3
TRACE_PAIRS = 2
RUN_BUDGET_S = 150.0  # start no round that could end past this
MAX_FAILURES = 3


def declared(kind: str) -> dict:
    """Metric name -> unit for ``kind`` ("end_to_end" or "per_layer"), as
    BENCHMARK.json declares them: the one list the record follows."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def host_record() -> dict:
    """What a comparison must hold equal: two records that differ in
    ``numba_active`` ran different kernel code and are not comparable.
    Workers inherit this process's environment, so the kernel path read
    here is theirs."""
    import numpy

    from iterkg import kernels

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_active": kernels.NUMBA_ACTIVE,
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def worker_env() -> dict:
    """This process's environment, BLAS threads pinned in ``main``."""
    return dict(os.environ, PYTHONHASHSEED="0")


def reference_s() -> float:
    """Seconds this process takes for a fixed job of the benchmark's own:
    tuple-set lookups, like iterkg's triple lookups, and small dense
    products, like its kernels.  Timed between repetitions, it gauges how
    fast the shared host runs at that moment; ``run_rel`` divides ``run_s``
    by it.  It runs here, not in the worker, so that the worker's set-up
    and memory are the program's alone."""
    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(0)
    keys = [tuple(x) for x in rng.integers(0, 600, size=(40_000, 3)).tolist()]
    known = set(keys[::2])
    hits = sum(k in known for k in keys * 16)
    a, b = rng.random((512, 200)), rng.random((200, 200))
    for _ in range(100):
        a @ b
    if hits < len(keys) * 8:
        raise RuntimeError("reference job went wrong")
    return time.perf_counter() - start


def run_worker(spec_path: str, traced: bool, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), spec_path, "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=worker_env(),
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        rep = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        rep = {"ok": False}
    if not rep.get("ok"):
        rep.setdefault("error", proc.stderr.strip().splitlines()[-1:] or "no output")
        sys.stderr.write(proc.stderr)
    return rep


def median(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def end_to_end(reps: list[dict]) -> dict:
    return {name: {"value": median(reps, name), "unit": unit}
            for name, unit in declared("end_to_end").items()}


def throughputs(reps: list[dict]) -> dict:
    """Training examples per second of epoch time and test triples ranked
    (both sides, raw and filtered) per second of ranking time; 0 where the
    workload does not train or rank."""
    def rate(count, seconds):
        return statistics.median(r[count] / r[seconds] if r[seconds] > 0 else 0.0 for r in reps)
    return {
        "train_examples_per_s": {"value": rate("examples", "epoch_s"), "unit": "examples/s"},
        "rank_triples_per_s": {"value": rate("rank_triples", "rank_s"), "unit": "triples/s"},
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """Traced figures; throughputs, ``run_s`` and ``ref_s`` from the
    untraced repetitions; and the tracing overhead: traced minus untraced
    ``run_s``.  Raises if a declared metric has no value."""
    computed = {name: m["value"] for name, m in throughputs(plain).items()}
    computed["run_s"] = median(plain, "run_s")
    computed["ref_s"] = median(plain, "ref_s")
    computed["trace.run_s"] = median(traced, "run_s")
    computed["trace.setup_s"] = median(traced, "setup_s")
    computed["trace.overhead_s"] = median(traced, "run_s") - median(plain, "run_s")
    out = {}
    for name, unit in declared("per_layer").items():
        value = computed[name] if name in computed else \
            statistics.median(r["layers"][name] for r in traced)
        out[name] = {"value": value, "unit": unit}
    return out


def summary_lines(name: str, reps: list[dict]) -> list[str]:
    if not reps:
        return []
    m = dict(end_to_end(reps), **throughputs(reps))
    m["run_s"] = {"value": median(reps, "run_s"), "unit": "s"}
    parts = [f"{k}={v['value']:.4g} {v['unit']}" for k, v in m.items()]
    lines = [f"{name}: " + ", ".join(parts)]
    lines.append(f"{name}: quality " + json.dumps(reps[-1].get("quality", {}), sort_keys=True))
    lines.append(f"{name}: checks " + ", ".join(reps[-1].get("checks", [])))
    return lines


def main(argv=None) -> int:
    # before numpy loads, so the reference job here and the workers, which
    # inherit the environment, use the same number of BLAS threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    from workloads import WORKLOADS, prepare

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes, one repetition")
    args = parser.parse_args(argv)
    # SIGTERM raises, so subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "iterkg", "__init__.py")):
        print(f"error: no iterkg sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    host = host_record()

    spec, gen_s = prepare(args.workload, args.seed, STATE, args.tiny)
    spec_path = os.path.join(spec["work"], "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)

    # one round is one untraced repetition, or an untraced/traced pair;
    # no round starts that would end past --seconds once the minimum is done
    wanted = 1 if args.tiny else (TRACE_PAIRS if args.trace else MIN_REPS)
    flags = (False, True) if args.trace else (False,)
    plain, traced, failures = [], [], []
    start = time.perf_counter()
    rounds = 0
    ref_before = reference_s()
    while len(failures) < MAX_FAILURES:
        elapsed = time.perf_counter() - start
        per_round = elapsed / rounds if rounds else 0.0
        if rounds >= wanted and elapsed + per_round > args.seconds:
            break
        if elapsed + per_round > RUN_BUDGET_S:
            break
        for flag in flags:
            rep = run_worker(spec_path, flag, RUN_BUDGET_S + 20 - (time.perf_counter() - start))
            ref_after = reference_s()
            rep["ref_s"] = (ref_before + ref_after) / 2
            ref_before = ref_after
            if rep.get("ok"):
                rep["run_rel"] = rep["run_s"] / rep["ref_s"]
                (traced if flag else plain).append(rep)
            else:
                failures.append(rep)
        rounds += 1

    attempted = len(plain) + len(traced) + len(failures)
    for line in summary_lines(args.workload, plain):
        print(line)
    for rep in failures:
        print(f"{args.workload}: failed repetition: {rep.get('error')}")

    ok = bool(plain) and (bool(traced) or not args.trace)
    metrics = {}
    if ok:
        metrics = per_layer(plain, traced) if args.trace else end_to_end(plain)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "tiny": args.tiny,
        "seconds": args.seconds, "generate_s": gen_s, "host": host, "metrics": metrics,
        "repetitions": plain + traced, "failures": failures,
    }
    records = os.path.join(STATE, "records")
    os.makedirs(records, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    with open(os.path.join(records, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(f"{args.workload}: generation {gen_s:.3f} s (outside setup_s); record .perfbench/records/{tag}.json")

    print(json.dumps({"correct": ok and not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
