"""Benchmark of the tcconsensus package: one workload, one run.

    python3 perfbench/run.py --workload scenarios --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``. The
workloads (see ``workloads.py``) are ``scenarios``, ``monte-carlo`` and
``wide-network``. A run

1. builds the inputs in this process and warms up for ``WARMUP_S`` seconds
   (at least one pass), so caches fill before timing;
2. repeats whole passes for ``--seconds`` seconds, timing every operation
   and, between operations, a fixed reference computation
   (``reference_s``), and checking each output after the clock stops;
3. times set-up (``--trace 0`` only): ``SETUP_PROBES`` fresh interpreters,
   started between passes at even steps through the ``--seconds`` window
   and outside its budget, each import the package, build the workload's
   inputs from the seed and make the first call into each layer. Spread
   over the window, they sample more than one phase of the host's speed
   (below);
4. prints a table with every metric by name and unit, then, as its last
   line, ``{"correct", "attempted", "failed", "metrics"}`` as JSON.

On shared cores the same code runs at speeds that differ by up to a factor
of two in phases of seconds; on a 2-vCPU virtual machine CPU time tracked
wall time, so the cores slowed, not the scheduler, and raw wall times of
identical runs spread by 15 to 40 %. The reference computation slows with
the cores, so an operation's wall time divided by the mean of the reference
times just before and just after it (its time in ``ref``) spreads by a few
percent.
The gated latency and rate metrics are in ``ref``; the table prints the raw
seconds beside them, and ``ref_s.p50``, the reference's median wall time,
converts one into the other. Set-up time stays in seconds: a fresh
interpreter spends much of it starting up, loading libraries and faulting
pages in, which tracks the reference only loosely (correlation 0.4 to 0.6
over repeated probes), and dividing by it widened the spread.

With ``--trace 0`` the metrics are end to end, from untraced passes:

- ``setup_s``: median wall time of the fresh interpreters;
- ``run_ref.p50`` and ``run_ref.tail``: time of one operation (one
  ``app.run``, one batch integration, one CLI mode) in ``ref``, median and a
  fixed per-workload percentile, printed with its sample count;
- ``traj_steps_per_ref``: trajectories x RK4 steps integrated, divided by
  the summed ``ref`` time of the integrating operations;
- ``peak_rss_mb``: peak resident set of this process.

The table also prints the same latencies and rate in seconds
(``run_s.p50``, ``run_s.tail``, ``traj_steps_per_s``), ``cpu_s`` (process
CPU per pass), ``fail_ratio`` and, on ``wide-network``, ``analyze_s`` and
``equilibrium_s`` (median wall time of each mode, config load included).
Those are not in the JSON line: the raw times spread too much between runs
to gate on, and a metric there must exist on every workload and never be 0.

With ``--trace 1`` the passes alternate untraced and traced; traced passes
wrap the package's public functions (``tracing.py``) and the metrics are
per layer, per traced pass, plus ``trace.overhead_s``, the median traced
pass minus the median untraced pass. On ``wide-network`` the traced run
also times the edge-count sweep (n = 50, 200, 1000). A metric of a layer the
workload never calls is 0. Spans of the last traced pass are written to
``.perfbench_out/<workload>/spans.json``.

BLAS and OpenMP pools are pinned to one thread before numpy loads, on every
commit alike. Every result is stamped with nproc, the Python, numpy and
scipy versions, the git SHA when there is one, and a digest of ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
THREADS = "1"
SETUP_PROBES = 5
WARMUP_S = 3.0
PROBE_TIMEOUT_S = 120

END_TO_END = {  # name -> unit, in the order of BENCHMARK.json
    "setup_s": "s",
    "run_ref.p50": "ref",
    "run_ref.tail": "ref",
    "traj_steps_per_ref": "1/ref",
    "peak_rss_mb": "MB",
}
# printed in the table only; see the module docstring
RAW = {
    "run_s.p50": "s",
    "run_s.tail": "s",
    "traj_steps_per_s": "1/s",
    "cpu_s": "s",
    "ref_s.p50": "s",
}

# the reference computation: an interpreter loop, then many numpy calls on
# a 100-element array, the per-call-bound work the workloads do. Its time
# tracked theirs through the host's speed phases more closely than sweeps
# over a large array did. About 5 ms at the fastest on a 2-vCPU virtual
# machine.
REF_LOOP = 15000
REF_ARRAY = 100
REF_STEPS = 400


def _import_workloads():
    """Pin thread pools, then import the package from ``src/``. Set-up
    probes inherit the pinned environment."""
    os.environ.update({v: THREADS for v in THREAD_VARS})
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    return workloads


def stamp() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": THREADS,
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
    }


def setup_probe(workload: str, seed: int, k: int) -> float:
    """Wall time of a fresh interpreter that imports, builds the inputs and
    makes the first call into each layer, then exits."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", "0",
           "--setup-probe", str(k)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return wall


def reference_s() -> float:
    """Wall time of the fixed reference computation."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i % 7
    a = np.linspace(-1.0, 1.0, REF_ARRAY)
    b = np.ones(REF_ARRAY)
    for _ in range(REF_STEPS):
        a = np.clip(a * 0.999 + b * 0.001, -1.0, 1.0)
    return time.perf_counter() - t0


def build(workloads, name: str, seed: int, out: Path):
    wl = workloads.WORKLOADS[name](seed, out)
    wl.prime()
    return wl


class Samples:
    """What the timed passes measured."""

    def __init__(self) -> None:
        self.op_s: list[float] = []
        self.op_ref: list[float] = []
        self.ref_s: list[float] = []
        self.mode_s: dict[str, list[float]] = {}
        self.pass_wall: list[float] = []
        self.pass_cpu: list[float] = []
        self.traj_steps = 0
        self.integrating_s = 0.0
        self.integrating_ref = 0.0
        self.setup_s: list[float] = []
        self.attempted = 0
        self.failed = 0


def run_pass(wl, ops, samples: Samples | None, tracer=None, targets=()) -> float:
    """One pass; with ``samples`` its timings and check outcomes are kept.
    The reference computation runs before the first operation and after
    every one; the pass's wall and CPU time cover the operations only.
    Returns the wall time of the whole pass, the reference's included."""
    wall0 = time.perf_counter()
    refs = [reference_s()]
    outcomes = []
    cpu = 0.0
    for op in ops:
        with tracer.installed(targets) if tracer else contextlib.nullcontext():
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as err:  # the program failed: count, go on
                result = err
            dt = time.perf_counter() - t0
            cpu += time.process_time() - cpu0
        refs.append(reference_s())
        outcomes.append((op, dt, result))
    wall = time.perf_counter() - wall0
    if samples is None:
        return wall
    samples.ref_s.extend(refs)
    for i, (op, dt, result) in enumerate(outcomes):
        in_ref = dt / ((refs[i] + refs[i + 1]) / 2)
        try:
            ok = not isinstance(result, Exception) and op.check(result)
        except Exception as err:  # a check that cannot read the output fails
            result = err
            ok = False
        if not ok:
            print(f"# {op.mode} failed: {result!r}", file=sys.stderr)
        samples.attempted += 1
        samples.failed += not ok
        samples.op_s.append(dt)
        samples.op_ref.append(in_ref)
        samples.mode_s.setdefault(op.mode, []).append(dt)
        if op.mode in wl.integrating_modes:
            samples.traj_steps += op.traj_steps
            samples.integrating_s += dt
            samples.integrating_ref += in_ref
    samples.pass_wall.append(sum(dt for _, dt, _ in outcomes))
    samples.pass_cpu.append(cpu)
    return wall


def measure(wl, seconds: float, trace: bool, warmup_s: float = WARMUP_S,
            probe=None):
    """Warm up, then repeat passes for ``seconds``; with ``probe``, a
    ``k -> seconds`` set-up probe, also take ``SETUP_PROBES`` set-up times
    at even steps through the window. Returns the untraced samples, the
    traced samples, the per-layer sums over traced passes and the tracer
    holding the last traced pass's spans (``None`` untraced)."""
    import workloads
    from tracing import Tracer

    ops = wl.ops()
    t0 = time.perf_counter()
    while True:
        run_pass(wl, ops, None)
        if time.perf_counter() - t0 >= warmup_s:
            break

    plain = Samples()
    traced = Samples() if trace else None
    tracer = Tracer() if trace else None
    targets = workloads.trace_targets() if trace else ()
    layers: dict[str, float] = {}
    t0 = time.perf_counter()
    paused = 0.0  # wall time of set-up probes, outside the budget
    k = 0
    while True:
        due = len(plain.setup_s) * seconds / SETUP_PROBES
        if probe and len(plain.setup_s) < SETUP_PROBES and (
                time.perf_counter() - t0 - paused >= due):
            p0 = time.perf_counter()
            plain.setup_s.append(probe(len(plain.setup_s)))
            paused += time.perf_counter() - p0
        if trace and k % 2 == 1:
            tracer.reset()
            last = run_pass(wl, ops, traced, tracer, targets)
            for name, value in workloads.layer_metrics(tracer.spans).items():
                layers[name] = layers.get(name, 0) + value
        else:
            last = run_pass(wl, ops, plain)
        k += 1
        elapsed = time.perf_counter() - t0 - paused
        # stop before a pass that would end past the budget; a traced run
        # needs at least one pass of each kind
        if elapsed + last > seconds and (not trace or k >= 2):
            break
    while probe and len(plain.setup_s) < SETUP_PROBES:
        plain.setup_s.append(probe(len(plain.setup_s)))
    return plain, traced, layers, tracer


def end_to_end(wl, samples: Samples):
    """The gated metrics and the raw ones the table prints beside them."""
    import numpy as np

    gated = {
        "setup_s": statistics.median(samples.setup_s),
        "run_ref.p50": statistics.median(samples.op_ref),
        "run_ref.tail": float(np.percentile(samples.op_ref, wl.tail_level)),
        "traj_steps_per_ref": samples.traj_steps / samples.integrating_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {
        "run_s.p50": statistics.median(samples.op_s),
        "run_s.tail": float(np.percentile(samples.op_s, wl.tail_level)),
        "traj_steps_per_s": samples.traj_steps / samples.integrating_s,
        "cpu_s": statistics.fmean(samples.pass_cpu),
        "ref_s.p50": statistics.median(samples.ref_s),
    }
    return gated, raw


def per_layer(wl, seed: int, plain: Samples, traced: Samples, layers):
    """Per-layer metrics per traced pass, the tracing overhead and, on
    ``wide-network``, the edge-count sweep. Returns the metrics and the
    sweep's attempted and failed classifications."""
    import workloads

    passes = len(traced.pass_wall)
    # every pass repeats the same inputs, so per-pass counts are whole
    out = {
        name: value // passes if isinstance(value, int) else value / passes
        for name, value in sorted(layers.items())
    }
    out["trace.overhead_s"] = (
        statistics.median(traced.pass_wall) - statistics.median(plain.pass_wall)
    )
    sweep_failed = 0
    sweep = {}
    if wl.name == "wide-network":
        sweep, sweep_failed = workloads.scaling_sweep(seed)
    for n in workloads.SWEEP_SIZES:
        out[f"dynamics.rhs_batch.us_per_call.n{n}"] = sweep.get(
            f"dynamics.rhs_batch.us_per_call.n{n}", 0.0)
        out[f"analysis.classify_system.s.n{n}"] = sweep.get(
            f"analysis.classify_system.s.n{n}", 0.0)
    sweep_ops = len(workloads.SWEEP_SIZES) if sweep else 0
    return out, sweep_ops, sweep_failed


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name in RAW:
        return RAW[name]
    if name.endswith((".calls", ".ray_candidates", ".iterations")):
        return "count"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    if ".us_per_call" in name:
        return "us"
    return "s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", type=int, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "tcconsensus" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/tcconsensus", file=sys.stderr)
        return 2
    workloads = _import_workloads()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.setup_probe is not None:
        build(workloads, args.workload, args.seed,
              OUT / args.workload / f"probe{args.setup_probe}")
        return 0

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    wl = build(workloads, args.workload, args.seed, out)
    probe = None if args.trace else functools.partial(
        setup_probe, args.workload, args.seed)
    plain, traced, layers, tracer = measure(
        wl, args.seconds, bool(args.trace), probe=probe)
    if tracer is not None:
        tracer.dump(out / "spans.json")

    samples = traced if args.trace else plain
    attempted = plain.attempted + (traced.attempted if traced else 0)
    failed = plain.failed + (traced.failed if traced else 0)
    info = {"stamp": stamp(), "workload": wl.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "passes": len(samples.pass_wall), "operations": len(samples.op_s)}
    raw = {}
    if args.trace:
        metrics, sweep_ops, sweep_failed = per_layer(
            wl, args.seed, plain, traced, layers)
        attempted += sweep_ops
        failed += sweep_failed
    else:
        metrics, raw = end_to_end(wl, plain)
        info["setup_samples_s"] = plain.setup_s
        info["tail"] = {
            "level": wl.tail_level, "samples": len(plain.op_ref),
            "beyond": sum(v > metrics["run_ref.tail"] for v in plain.op_ref),
        }
        info["fail_ratio"] = failed / attempted
        for mode in ("analyze", "equilibrium"):
            if mode in plain.mode_s:
                info[f"{mode}_s"] = statistics.median(plain.mode_s[mode])

    print(f"# perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in info["stamp"].items()))
    print(f"# passes={info['passes']} operations={info['operations']}")
    for name, value in {**metrics, **raw}.items():
        print(f"{name:<46} {value:>16.6g} {unit_of(name)}")
    if not args.trace:
        tail = info["tail"]
        print(f"# run_ref.tail and run_s.tail are p{tail['level']:g} of "
              f"{tail['samples']} samples, {tail['beyond']} beyond run_ref.tail")
        for mode in ("analyze", "equilibrium"):
            value = info.get(f"{mode}_s")
            shown = f"{value:>16.6g} s" if value is not None else f"{'n/a':>16}"
            print(f"{mode + '_s':<46} {shown}")
        print(f"{'fail_ratio':<46} {info['fail_ratio']:>16.6g} ratio "
              f"({failed}/{attempted})")
    info["metrics"] = {**metrics, **raw}
    info["pass_wall_s"] = samples.pass_wall
    info["pass_cpu_s"] = samples.pass_cpu
    info["op_s"] = samples.op_s
    info["op_ref"] = samples.op_ref
    info["ref_s"] = samples.ref_s
    (out / f"result-trace{args.trace}.json").write_text(
        json.dumps(info, indent=2, sort_keys=True), encoding="utf-8")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
