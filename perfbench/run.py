#!/usr/bin/env python3
"""Seeded benchmark of the cvqkd sessions, persistence, key-rate sweep and decoy design.

Run from the repository root:

    python3 perfbench/run.py --workload session_decoy_d8 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one table
    python3 perfbench/selftest.py                        # small-size check of the harness

One invocation runs one workload (``all`` runs each in a fresh child process):
set-up is timed ``SETUP_REPS`` times, each in a fresh interpreter that imports
the program and prepares the workload, a warm-up op runs the inputs of the
first timed op, then ops run one at a time until ``--seconds``
have passed.  After each timed part of an op (the call, and the persistence
where there is one) a reference kernel runs for a tenth as long; the
``*_ref`` metrics are the parts in units of the kernel (see ``Reference``).  Every op's outputs are checked after its timer stops; the
warm-up and the first timed op must produce identical outputs.  The program
is imported from ``src/`` of the checkout this file sits in.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` alternates traced and untraced ops: traced ops run with span
recorders wrapped around each layer (see ``spans.py``) and give the
per-layer metrics; the untraced ones give the tracing overhead.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are the same numbers for a
reader, under the metric names the workload's users know.  The full record
(machine, workload sizes, every sample, failures) goes to
``.perfbench/results/``, the span trace to ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("session_decoy_d8", "session_gaussian_d1", "keyrate_sweep", "decoy_design")
PROGRAM_MODULES = ("algebra", "channel", "cli", "decoy", "modulation", "protocol",
                   "reconciliation", "security")
TAIL_BEYOND = 10
SETUP_REPS = 3
# after each timed part the reference kernel runs for this share of its wall time
REF_SHARE = 0.1


class ProgramMissing(RuntimeError):
    """The checkout has no importable ``src/cvqkd``."""


def cap_threads():
    """Cap BLAS/OpenMP threads at the usable CPU count, for us and our children."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def load_program():
    """Import every cvqkd module from this checkout's ``src/``."""
    if not (SRC / "cvqkd" / "__init__.py").is_file():
        raise ProgramMissing(f"no cvqkd package under {SRC}")
    sys.path.insert(0, str(SRC))
    cvqkd = importlib.import_module("cvqkd")
    if not Path(cvqkd.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"cvqkd was imported from {cvqkd.__file__}, not {SRC}")
    return {name: importlib.import_module(f"cvqkd.{name}") for name in PROGRAM_MODULES}


def machine_record(nproc):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpus": os.cpu_count(), "cpus_usable": nproc, "platform": platform.platform(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
    }


def setup_seconds(name, seed):
    """Wall time of a fresh interpreter importing the program and preparing ``name``.

    Each rep pays what a fresh process pays: nothing carries over from an
    earlier rep or from this process.
    """
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
            "workloads.make_workloads()[sys.argv[2]].prepare(int(sys.argv[3]))")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, str(Path(__file__).resolve().parent),
                    name, str(seed)],
                   env=child_env(), cwd=ROOT, check=True, timeout=120,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


class Reference:
    """A fixed kernel timed between timed parts, to express them in its units.

    The host's speed drifts by tens of percent over seconds to minutes, and
    that drift reaches every run's median.  The kernel shares no code with
    the program.  It has an interpreter-bound half (float formatting and
    summation) and a memory-bound half (sorting 2e6 floats); ``seconds``
    runs it twice and returns the geometric mean of the four halves' wall
    times.  A part's time divided by the mean of the kernel windows just
    before and just after it keeps the program's cost and drops much of the
    drift.  Across seeds on a 2-vCPU host, dividing by the run's median
    kernel time instead left the runs' medians 1.3 to 5 times as spread.
    """

    def __init__(self):
        import numpy

        rng = numpy.random.default_rng(12345)
        self.floats = [float(v) for v in rng.standard_normal(20_000)]
        self.array = rng.standard_normal(2_000_000)
        self.sort = numpy.sort
        self.samples = []

    def seconds(self):
        halves = []
        for _ in range(2):
            start = time.perf_counter()
            text = ",".join([repr(v) for v in self.floats])
            total = 0.0
            for v in self.floats:
                total += v * v
            middle = time.perf_counter()
            largest = self.sort(self.array)[-1]
            end = time.perf_counter()
            if not text or total <= 0.0 or largest <= 0.0:
                raise RuntimeError("reference kernel produced no work")
            halves += [middle - start, end - middle]
        return statistics.geometric_mean(halves)

    def window(self, part_s):
        """Median kernel time over ``REF_SHARE * part_s`` seconds, at least one run."""
        end = time.perf_counter() + REF_SHARE * part_s
        times = [self.seconds()]
        while time.perf_counter() < end:
            times.append(self.seconds())
        self.samples += times
        return statistics.median(times)


def tail(values):
    """Highest percentile with TAIL_BEYOND samples beyond it, as a dict.

    Below 2 * TAIL_BEYOND + 1 samples that rank would fall under the median,
    so the maximum is reported instead, with ``beyond`` = 0.
    """
    xs = sorted(values)
    n = len(xs)
    if n > 2 * TAIL_BEYOND:
        k = n - TAIL_BEYOND - 1
        return {"value": xs[k], "percentile": 100.0 * (k + 1) / n, "beyond": TAIL_BEYOND,
                "n": n}
    return {"value": xs[-1], "percentile": 100.0, "beyond": 0, "n": n}


def run_workload(workload, seed, seconds, trace, program, setup_reps=SETUP_REPS):
    """Set up, warm up and time one workload; return the full record.

    The set-up this process needs runs once more, untimed; in a traced run
    its spans are recorded, and its per-layer metrics are added to those of
    the median traced op (``spans.summarize``).
    """
    import spans

    work = OUT / f"tmp-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    op_count = getattr(program["algebra"], "operation_count", None)
    record = {"workload": workload.describe(), "seed": seed, "seconds": seconds,
              "trace": trace, "failures": [], "samples": []}
    try:
        record["setup_samples"] = [setup_seconds(workload.name, seed)
                                   for _ in range(setup_reps)]
        tracer = spans.Tracer(program) if trace else None
        if tracer is not None:
            tracer.begin_op("setup")
        try:
            workload.prepare(seed)
        finally:
            setup_layer = tracer.end_op() if tracer is not None else None

        # the warm-up runs the first timed op's inputs; both must agree
        reference = Reference()
        record["ref_samples"] = reference.samples
        warm_start = time.perf_counter()
        try:
            warm = workload.run(seed, 0, str(work / "warm"))
            if workload.persist:
                workload.save(warm)
            warm_print = workload.fingerprint(warm)
            workload.release(warm)
        except Exception as exc:  # reported as a failed determinism check
            warm_print = f"warm-up raised {type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        ref_before = reference.window(time.perf_counter() - warm_start)

        layer_ops = []
        attempted = 0
        start = time.perf_counter()
        while attempted == 0 or time.perf_counter() - start < seconds:
            i = attempted
            attempted += 1
            traced = tracer is not None and i % 2 == 0
            gc.collect()
            ops_before = op_count() if op_count else 0
            result = layer = None
            refs = [ref_before]
            op_start = time.perf_counter()
            if traced:
                tracer.begin_op(i)
            try:
                result = workload.run(seed, i, str(work / f"op{i}"))
                refs.append(reference.window(result.call_s))
                if workload.persist:
                    workload.save(result)
                    refs.append(reference.window(result.persist_s))
                if traced:
                    for key, value in result.counts.items():
                        tracer.add(key, value)
                    if op_count:
                        tracer.add("algebra.scalar_ops", op_count() - ops_before)
            except Exception as exc:  # one failed op must not end the run
                record["failures"].append({"op": i, "errors": [f"raised {exc!r}"]})
                traceback.print_exc(file=sys.stderr)
                if result is not None:
                    workload.release(result)
                    result = None
            finally:
                if traced:
                    layer = tracer.end_op()
            if len(refs) == 1:
                refs.append(reference.window(time.perf_counter() - op_start))
            ref_before = refs[-1]
            if result is None:
                continue
            try:
                errors = workload.check(result)
                if i == 0 and workload.fingerprint(result) != warm_print:
                    errors.append("determinism: warm-up and first op outputs differ")
            except Exception as exc:  # a check that cannot run has failed
                errors = [f"check raised {exc!r}"]
            finally:
                workload.release(result)
            if errors:
                record["failures"].append({"op": i, "errors": errors})
            record["samples"].append(_sample(i, traced, result, refs))
            if traced:
                layer_ops.append({"op": i, **layer})
        record["attempted"] = attempted
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            record["layer_ops"] = layer_ops
            record["skipped_wrappers"] = tracer.skipped
            record["scalar_ops_available"] = op_count is not None
            record["setup_layer"] = setup_layer
            record["per_layer"] = {**spans.summarize([
                {k: v for k, v in op.items() if k != "op"} for op in layer_ops
            ], setup_layer), **tracing_overhead(record["samples"])}
            record["_tracer"] = tracer
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if record["samples"] and (not trace or layer_ops):
        record["end_to_end"], record["report"] = end_to_end(workload, record)
    return record


def _sample(i, traced, result, refs):
    """One op's times, raw and in units of the reference timed on each side of each part."""
    parts = [result.call_s] + ([] if result.persist_s is None else [result.persist_s])
    in_ref = [t / (0.5 * (refs[k] + refs[k + 1])) for k, t in enumerate(parts)]
    return {"op": i, "traced": traced, "call_s": result.call_s, "op_s": result.op_s,
            "items": result.items, "call_ref": in_ref[0], "op_ref": sum(in_ref),
            "refs": refs}


def tracing_overhead(samples):
    """Traced minus untraced call time, in seconds and as a share."""
    traced = [s["call_s"] for s in samples if s["traced"]]
    plain = [s["call_s"] for s in samples if not s["traced"]]
    if not traced or not plain:
        return {"trace.overhead_s": 0.0, "trace.overhead_ratio": 0.0}
    median = statistics.median
    return {"trace.overhead_s": median(traced) - median(plain),
            "trace.overhead_ratio": median(traced) / median(plain) - 1.0}


def end_to_end(workload, record):
    """Contract metrics, and the same run under the names the workload's users know."""
    samples = [s for s in record["samples"] if not s["traced"]] or record["samples"]
    calls = [s["call_s"] for s in samples]
    ops = [s["op_s"] for s in samples]
    failed = len(record["failures"])
    metrics = {
        "call_ref": statistics.median(s["call_ref"] for s in samples),
        "op_ref": statistics.median(s["op_ref"] for s in samples),
        "setup_s": statistics.median(record["setup_samples"]),
        "peak_rss_mb": record["peak_rss_mb"],
    }
    call_name, items_name = workload.call_name, workload.items_metric
    n = f"median of {len(samples)}"
    report = {
        f"{call_name}_s": (statistics.median(calls), "s", n),
        f"{call_name}_tail_s": _tail_entry(calls),
    }
    if items_name:
        items = statistics.median(s["items"] for s in samples)
        report[items_name] = (items / report[f"{call_name}_s"][0], "1/s",
                              f"{workload.item_unit} per s")
    if workload.persist:
        persist = [op - call for op, call in zip(ops, calls)]
        report["persist_s"] = (statistics.median(persist), "s", n)
        report["persist_tail_s"] = _tail_entry(persist)
    report["call_ref"] = (metrics["call_ref"], "ref", f"{call_name}_s in reference units, {n}")
    report["op_ref"] = (metrics["op_ref"], "ref",
                        f"call plus persistence, {n}" if workload.persist
                        else "equals call_ref (nothing persisted)")
    report["ref_s"] = (statistics.median(record["ref_samples"]), "s",
                       f"reference kernel, median of {len(record['ref_samples'])}")
    report["setup_s"] = (metrics["setup_s"], "s",
                         f"median of {len(record['setup_samples'])} set-ups")
    report["fail_frac"] = (failed / record["attempted"], "ratio",
                           f"{failed} of {record['attempted']} ops")
    report["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB", "max RSS of this process")
    return metrics, report


def _tail_entry(values):
    t = tail(values)
    if t["beyond"]:
        note = f"p{t['percentile']:.1f} of {t['n']}, {t['beyond']} beyond"
    else:
        note = f"max of {t['n']} (under {2 * TAIL_BEYOND + 1} samples)"
    return (t["value"], "s", note)


def emit(record, spec, machine):
    """Print the reader's lines and the JSON result line; write the record."""
    name = record["workload"]["name"]
    failed = len(record["failures"])
    print(f"# perfbench {name} seed={record['seed']} trace={record['trace']} "
          f"ops={record['attempted']} failed={failed} seconds={record['seconds']}")
    print("# machine " + " ".join(f"{k}={v}" for k, v in machine.items()
                                  if k != "thread_caps"))
    for failure in record["failures"]:
        print(f"# FAILED op {failure['op']}: " + "; ".join(failure["errors"]))
    if record["trace"]:
        source, entries = record["per_layer"], spec["per_layer"]
        if record["skipped_wrappers"]:
            print("# skipped wrappers: " + ", ".join(record["skipped_wrappers"]))
        n_traced = sum(s["traced"] for s in record["samples"])
        print(f"# tracing overhead: {n_traced} traced ops against "
              f"{len(record['samples']) - n_traced} untraced ones")
        for entry in entries:
            print(f"{entry['name']:<38} {source[entry['name']]:>14.6g} {entry['unit']}")
    else:
        source, entries = record["end_to_end"], spec["end_to_end"]
        for key, (value, unit, note) in record["report"].items():
            print(f"{key:<22} {value:>14.6g} {unit:<6} {note}")
    metrics = {e["name"]: {"value": source[e["name"]], "unit": e["unit"]} for e in entries}

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{record['seed']}-trace{record['trace']}"
    tracer = record.pop("_tracer", None)
    if tracer is not None:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "traces" / f"{stem}.json",
                     {"workload": name, "seed": record["seed"]})
    full = dict(record, machine=machine, metrics=metrics)
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(full, indent=1, default=str))
    result = {"correct": failed == 0, "attempted": record["attempted"], "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return result


def run_all(args):
    """Run every workload in a fresh child process; print each report, then one result."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    merged = {f"{name}.{key}": value for name, result in results.items()
              for key, value in result["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": merged,
    }))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    return args


def main(argv=None):
    args = parse_args(argv)
    # a terminated run still removes its temporary transcripts
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    nproc = cap_threads()
    if args.workload == "all":
        return run_all(args)
    try:
        program = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import workloads

    workload = workloads.make_workloads()[args.workload]
    record = run_workload(workload, args.seed, args.seconds, args.trace, program)
    if "end_to_end" not in record:
        for failure in record["failures"]:
            print(f"error: op {failure['op']}: " + "; ".join(failure["errors"]),
                  file=sys.stderr)
        print("error: no op completed, so there is nothing to report", file=sys.stderr)
        return 1
    emit(record, spec, machine_record(nproc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
