"""The horneq benchmark: seeded workloads run through ``horneq.cli.main``
in process, every output checked against an independent oracle.

    python3 perfbench/run.py --workload closure --seed 1 --seconds 40 --trace 0

Run from the repository root.  Each run generates its workload's fixed list
of jobs from ``--seed``, then runs passes over that list until the next
pass would end after ``--seconds`` (at least five passes); each job counts
at its fastest repetition, in reference seconds (see reference.py).  See
README.md for the workloads, the metrics
and what each layer metric should move.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` untraced and traced passes alternate and the metrics are
per layer, from in-memory spans.  Lines before it give the per-step
timings, the failure ratio, a sha256 of all job outputs and the
environment; the same record, and the spans of a traced run, are written
under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import reference
from tracing import CLI_SPAN, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 20  # four before each of the first five passes
MIN_PASSES = 5
MIN_TRACED_PASSES = 3
MEMORY_STRIDE = 5  # the allocation pass runs every fifth job
TAIL_BEYOND = 10
LAYER_MODULES = ("cli", "classify", "core", "engine", "facts", "transform")


def _import_horneq() -> SimpleNamespace:
    """Import the package afresh from ``src``, dropping any earlier copy, so
    that each set-up repetition pays for the import."""
    for name in [m for m in sys.modules
                 if m == "horneq" or m.startswith("horneq.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"horneq.{m}")
                              for m in LAYER_MODULES})


def _timing(values: list[float]) -> dict:
    """Median, and the tail: the highest percentile with at least
    ``TAIL_BEYOND`` values beyond it (the maximum for short lists)."""
    xs = sorted(values)
    rank = max(1, len(xs) - TAIL_BEYOND)
    return {"p50": statistics.median(xs), "tail": xs[rank - 1],
            "tail_percentile": round(100 * rank / len(xs), 1),
            "samples": len(xs), "beyond_tail": len(xs) - rank}


def _best(passes: list[dict], key: str) -> list[float]:
    """Each job's fastest repetition over the given passes."""
    return [min(ts) for ts in zip(*(p[key] for p in passes))]


def _run_job(hq, job, tracer, memory: bool):
    """Time the reference, then run a job's steps; returns their exit
    codes, outputs and times, the job's peak of traced allocations (0
    unless ``memory``) and the reference's time."""
    codes, outputs, times, peak = [], [], [], 0
    gc.collect()  # start every job from the same collector state
    t0 = perf_counter()
    reference.run()
    ref_s = perf_counter() - t0
    for step in job.steps:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            idx = tracer.open(CLI_SPAN) if tracer is not None else None
            if memory:
                tracemalloc.start()
            t0 = perf_counter()
            try:
                code = hq.cli.main(step.argv)
            except SystemExit as err:  # argparse rejected the arguments
                code = err.code
            except Exception as err:  # a crash counts as a failed job
                code = f"{type(err).__name__}: {err}"
            finally:
                t1 = perf_counter()
                if memory:
                    peak = max(peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                if idx is not None:
                    tracer.close(idx)
        text = out.getvalue()
        if step.save_as is not None:
            Path(step.save_as).write_text(text, encoding="utf-8")
        codes.append(code)
        outputs.append(text)
        times.append(t1 - t0)
    return codes, outputs, times, peak, ref_s


def _run_pass(hq, jobs, tracer, verdicts: dict, memory=False) -> dict:
    """One pass over the job list, then the oracle on its outputs.  A job
    whose outputs hash to an already checked result reuses that verdict.
    With ``memory``, each step runs under ``tracemalloc``: its times are
    not used, and the pass records each job's peak allocation instead."""
    digest = hashlib.sha256()
    job_times, step_times, results, peaks, ref_times = [], {}, [], [], []
    for job in jobs:
        if tracer is not None:
            tracer.job_id = job.id
        codes, outputs, times, peak, ref_s = _run_job(hq, job, tracer,
                                                      memory)
        results.append((job, codes, outputs))
        peaks.append(peak)
        ref_times.append(ref_s)
        job_times.append(sum(times))
        for step, t in zip(job.steps, times):
            step_times.setdefault(step.kind, []).append(t)
    failures = []
    for job, codes, outputs in results:
        job_digest = hashlib.sha256(
            json.dumps([codes, outputs]).encode("utf-8")).hexdigest()
        digest.update(job_digest.encode("ascii"))
        key = (job.id, job_digest)
        if key not in verdicts:
            verdicts[key] = job.oracle(codes, outputs)
        if verdicts[key]:
            failures.append({"job": job.id, "errors": verdicts[key]})
    mode = "memory" if memory else "traced" if tracer else "plain"
    return {"mode": mode, "wall_s": sum(job_times), "peaks": peaks,
            "job_times": job_times, "step_times": step_times,
            "ref_times": ref_times, "failures": failures,
            "digest": digest.hexdigest()}


def _environment() -> dict:
    src_lines = sum(p.read_text(encoding="utf-8").count("\n")
                    for p in sorted((SRC / "horneq").glob("*.py")))
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "src_horneq_lines": src_lines}


def _layer_metrics(tracer, traced_passes: int, overhead: float) -> dict:
    tot = tracer.totals()
    cnt = tracer.counts

    def span(name, field="total_s"):
        return tot.get(name, {}).get(field, 0.0) / traced_passes

    def count(name):
        return cnt.get(name, 0) // traced_passes

    evaluate_s = span("engine.evaluate")
    premise_matches = count("engine.premise_matches")
    firings = count("engine.firings")
    m = {
        "engine.evaluate_s": (evaluate_s, "s"),
        "engine.iterations": (count("engine.iterations"), "count"),
        "engine.self_s": (span("engine.evaluate", "self_s"), "s"),
        "engine.match_s": (span("engine.match"), "s"),
        "engine.premise_matches": (premise_matches, "count"),
        "engine.extend_s": (span("engine.extend"), "s"),
        "engine.extend_checks": (count("engine.extend_checks"), "count"),
        "engine.match_share": (
            span("engine.match_in_eval") / evaluate_s if evaluate_s else 0.0,
            "ratio"),
        "engine.apply_s": (span("engine.apply"), "s"),
        "engine.apply_share": (
            span("engine.apply_in_eval") / evaluate_s if evaluate_s else 0.0,
            "ratio"),
        "engine.firings": (firings, "count"),
        "engine.useful_ratio": (
            firings / premise_matches if premise_matches else 0.0, "ratio"),
        "core.merge_s": (span("core.merge"), "s"),
        "core.merges": (count("core.merges"), "count"),
        "core.copy_s": (span("core.copy"), "s"),
        "core.copies": (count("core.copies"), "count"),
        "facts.load_s": (span("facts.load"), "s"),
        "facts.names_s": (span("facts.names"), "s"),
        "facts.serialize_s": (span("facts.serialize"), "s"),
        "facts.output_bytes": (count("facts.output_bytes"), "bytes"),
        "syntax.parse_s": (span("syntax.parse"), "s"),
        "syntax.pretty_print_s": (span("syntax.pretty_print"), "s"),
        "classify.flatten_s": (span("classify.flatten"), "s"),
        "classify.classify_s": (span("classify.classify"), "s"),
        "classify.strengthen_s": (span("classify.strengthen"), "s"),
        "transform.setoid_s": (span("transform.setoid"), "s"),
        "transform.sparse_setoid_s": (span("transform.sparse_setoid"), "s"),
        "transform.epic_s": (span("transform.epic"), "s"),
        "cli.self_s": (span(CLI_SPAN, "self_s"), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "horneq" / "__init__.py").is_file():
        print(f"error: no horneq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return _benchmark(args, WORKLOADS[args.workload], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _set_up(files: dict[Path, str]):
    """The timed set-up: a fresh import of ``horneq`` and writing the
    inputs, which were drawn beforehand."""
    gc.collect()
    t0 = perf_counter()
    hq = _import_horneq()
    for path, text in files.items():
        path.write_text(text, encoding="utf-8")
    return perf_counter() - t0, hq


def _benchmark(args, make_jobs, work: Path) -> int:
    tracer = Tracer() if args.trace else None
    min_passes = 2 * MIN_TRACED_PASSES if tracer is not None else MIN_PASSES
    jobs, files = make_jobs(args.seed, work)
    setups: list[float] = []
    passes: list[dict] = []
    verdicts: dict = {}
    start = perf_counter()
    while True:
        # Set-up runs before each of the first passes, so that its fastest
        # repetition samples the machine over part of the run.  The count is
        # fixed, so that it does not depend on how many passes fit.
        if len(setups) < SETUP_REPEATS:
            for _ in range(SETUP_REPEATS // 5):
                setup_s, hq = _set_up(files)
                setups.append(setup_s)
        if Path(hq.cli.__file__).resolve().parent != SRC / "horneq":
            print(f"error: imported horneq from {hq.cli.__file__}, not "
                  f"{SRC}", file=sys.stderr)
            return 2
        if tracer is None and len(passes) == 1:
            # One untimed pass over a sample of the jobs, after a first
            # pass has warmed the program's caches, measures allocations.
            # tracemalloc slows a job several times over, hence the sample.
            passes.append(_run_pass(hq, jobs[::MEMORY_STRIDE], None,
                                    verdicts, memory=True))
            continue
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install(hq)
        try:
            passes.append(_run_pass(hq, jobs, tracer if traced else None,
                                    verdicts))
        finally:
            if traced:
                tracer.uninstall()
        elapsed = perf_counter() - start
        timed = [p for p in passes if p["mode"] != "memory"]
        if (len(timed) >= min_passes
                and elapsed * (len(passes) + 1) / len(passes) > args.seconds):
            break

    # The machine's speed drifts by tens of percent over seconds, so every
    # job, the set-up and the reference count at their fastest repetition,
    # and times are scaled to reference seconds (see reference.py).
    plain = [p for p in passes if p["mode"] == "plain"]
    reference_s = statistics.median(_best(plain, "ref_times"))
    scale = reference.REFERENCE_S / reference_s
    raw_best = _best(plain, "job_times")
    best = [t * scale for t in raw_best]
    attempted = sum(len(p["job_times"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    digests = sorted({p["digest"] for p in passes if p["mode"] != "memory"})
    alloc_peaks = [p["peaks"] for p in passes if p["mode"] == "memory"]
    job_timing = _timing(best)
    steps = {kind: _timing([scale * min(ts) for ts in zip(
                 *(p["step_times"][kind] for p in plain))])
             for kind in plain[0]["step_times"]}
    if args.workload == "compile":  # a compile job is all of its steps
        steps["compile"] = job_timing

    if tracer is None:
        metrics = {
            # Not scaled: the reference timed next to the set-ups did not
            # track them (import time is as much page faults as bytecode).
            "setup_s": {"value": min(setups), "unit": "s"},
            "wall_s": {"value": sum(best), "unit": "s"},
            "job_s_p50": {"value": job_timing["p50"], "unit": "s"},
            "job_s_tail": {"value": job_timing["tail"], "unit": "s"},
            "peak_alloc_mb": {
                "value": statistics.median(alloc_peaks[0]) / 2**20,
                "unit": "MB"},
        }
    else:
        traced_passes = [p for p in passes if p["mode"] == "traced"]
        traced_best = _best(traced_passes, "job_times")
        metrics = _layer_metrics(tracer, len(traced_passes),
                                 sum(traced_best) / sum(raw_best) - 1)

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": _environment(),
        "passes": len(passes), "jobs_per_pass": len(jobs),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted,
        "output_sha256": digests[0] if len(digests) == 1 else digests,
        "output_stable": len(digests) == 1,
        "setup_s_samples": setups,
        "reference_best_s": reference_s,
        "reference_scale": scale,
        "job_best_raw_s": raw_best,
        "job_best_s": best,
        "job_alloc_peak_bytes": alloc_peaks[0] if alloc_peaks else None,
        "job_s": job_timing,
        "steps_s": steps,
        "failures": [f for p in passes for f in p["failures"]][:20],
        "metrics": metrics,
    }
    suffix = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{suffix}.json").write_text(json.dumps(record, indent=2) + "\n",
                                        encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT / f"{suffix}.spans.json.gz")

    env = record["environment"]
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes "
          f"of {len(jobs)} jobs; python {env['python']}, nproc "
          f"{env['nproc']}, src/horneq {env['src_horneq_lines']} lines")
    print(f"  reference {1000 * reference_s:.3f} ms at best; times below are "
          f"in reference seconds, measured seconds x {scale:.4f}")
    for label, t in steps.items():
        print(f"  {label}_s_p50 {t['p50']:.6f} s  {label}_s_tail "
              f"{t['tail']:.6f} s (p{t['tail_percentile']}, "
              f"{t['samples']} samples, {t['beyond_tail']} beyond)")
    print(f"  failed_ratio {record['failed_ratio']:.6f} ratio "
          f"({failed} of {attempted} jobs)")
    print(f"  output_sha256 {' '.join(digests)}"
          + ("" if record["output_stable"] else "  (CHANGED between passes)"))
    for f in record["failures"][:5]:
        print(f"  FAILED job {f['job']}: {'; '.join(f['errors'])}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
