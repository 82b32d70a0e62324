"""hermweb benchmark: one workload in a fresh process, closed loop.

    python3 bench/run.py --workload {flow,ma2,ma3,inspect} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; hermweb is imported from src/.
BLAS and OpenMP are pinned to one thread and one operation is in flight at
a time.  Whole rounds of the seed's operations repeat until S seconds have
passed; every output is checked by the numpy oracles in bench/oracles.py.
Times are reported in host-normalised seconds (see host_probe).

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics (per operation, from recorded spans) with --trace 1.
Progress and failures go to standard error.  The traced run also writes its
spans to bench/runs/trace-<workload>-<seed>.jsonl.gz.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "runs"
SETUP_PROBES = 3

_probe_rng = np.random.default_rng(0)
PROBE_FIELD = _probe_rng.normal(size=(64, 64))
PROBE_MATRICES = np.eye(2) + 0.1 * _probe_rng.normal(size=(4096, 2, 2))
PROBE_REF_S = 0.005  # nominal; the probe took 4.5 ms at best, 5.2 ms median, on the reference machine

PER_LAYER = [
    "grid.hessian_values.calls", "grid.hessian_values.s", "grid.fft.calls", "grid.fft.s",
    "linalg.det.calls", "linalg.det.s", "linalg.inv.calls", "linalg.inv.s",
    "metric.HermitianMetricField.calls", "metric.HermitianMetricField.s",
    "metric.is_positive_definite.calls", "metric.is_positive_definite.s",
    "metric.ricci_tensor.calls", "metric.ricci_tensor.s", "metric.classify.s",
    "forms.FormField.calls", "forms.wedge.calls", "forms.wedge.s", "forms.exterior_d.s",
    "ma.newton_iters", "ma.gmres_iters", "ma.line_search_backtracks",
    "ma.gmres.s", "ma.matvec.s", "ma.precond.s", "ma.form_to_matrix.s", "ma.hodge_root.s",
    "flow.steps", "flow.rejected_steps", "flow.flow_step.s",
    "specfile.loads.s", "expr.evaluate.calls", "expr.evaluate.s",
    "report.render_report.s", "report.dump_field.s", "report.bytes_written",
    "models.hopf_check.s", "models.nakamura_check.s", "models.yoshihara_check.s",
    "setup.import_s", "setup.inputs_s",
]


def _unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "B" if name == "report.bytes_written" else "count"


def setup(workload_name, seed, workdir):
    """Import hermweb from the checkout and make the seed's inputs."""
    t0 = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import hermweb
    import hermweb.cli  # noqa: F401  (the inspect workload calls it)
    import workloads

    t1 = time.perf_counter()
    workload = workloads.WORKLOADS[workload_name]
    inputs = workload.make_inputs(seed, workdir)
    t2 = time.perf_counter()
    return hermweb, workload, inputs, {"import_s": t1 - t0, "inputs_s": t2 - t1}


def host_probe():
    """Wall time of a fixed piece of work that shares no code with hermweb.

    It mixes what hermweb spends its time on: 2-D FFTs, batched 2x2
    determinants and interpreted Python.  The reference machine is a shared
    2-vCPU VM whose speed swings by up to 2x within tens of seconds (600
    back-to-back probes took 4.5 ms to 10.7 ms each, and CPU time tracks
    wall time), so each measured time t is reported as t * PROBE_REF_S / p, with
    p the mean of the probes run just before and just after it: seconds at
    the host speed at which the probe takes PROBE_REF_S.
    """
    t0 = time.perf_counter()
    for _ in range(8):
        np.fft.ifft2(np.fft.fft2(PROBE_FIELD))
        np.linalg.det(PROBE_MATRICES)
    total = 0
    for i in range(3000):
        total += i * i
    return time.perf_counter() - t0


def probe_setup(args):
    """Set-up in fresh processes: wall time from spawn to ready, and the
    import and input-generation times each probe reports, host-normalised."""
    walls, parts = [], []
    for i in range(SETUP_PROBES):
        workdir = RUNS / f"probe-{args.workload}-{args.seed}-{os.getpid()}-{i}"
        cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
               "--probe", str(workdir)]
        before = host_probe()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            wall = time.perf_counter() - t0
            child.stdout.read()
        scale = PROBE_REF_S / (0.5 * (before + host_probe()))
        shutil.rmtree(workdir, ignore_errors=True)
        if child.returncode != 0 or not line:
            raise SystemExit(f"set-up probe failed (exit {child.returncode})")
        walls.append(wall * scale)
        parts.append({k: v * scale for k, v in json.loads(line).items()})
    return statistics.median(walls), {k: statistics.median(p[k] for p in parts) for k in parts[0]}


def measure(hw, workload, inputs, seconds, tracer):
    """Run whole rounds of `inputs` until `seconds` have passed.

    Returns, per input, the (wall time, host scale) of each repetition; the
    host scale of each operation by its id; the attempt and failure counts;
    the oracle's complaints and the per-operation counts.
    """
    times = [[] for _ in inputs]
    scales = {}
    problems, counts = [], Counter()
    attempted = failed = 0
    before = host_probe()
    start = time.perf_counter()
    while True:
        for case, inp in enumerate(inputs):
            attempted += 1
            if tracer is not None:
                tracer.op = attempted
            t0 = time.perf_counter()
            try:
                out = workload.run(hw, inp)
            except Exception:
                failed += 1
                print(f"operation {attempted} failed:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            finally:
                if tracer is not None:
                    tracer.op = None
            elapsed = time.perf_counter() - t0
            after = host_probe()
            scales[attempted] = PROBE_REF_S / (0.5 * (before + after))
            before = after
            times[case].append((elapsed, scales[attempted]))
            bad, op_counts = workload.check(inp, out)
            counts.update(op_counts)
            problems += [f"operation {attempted}: {p}" for p in bad]
        if time.perf_counter() - start >= seconds:
            return times, scales, attempted, failed, problems, counts


def per_input(times, normalised=True):
    """Each input's median time over its repetitions in the run."""
    return [statistics.median(t * s if normalised else t for t, s in reps) for reps in times if reps]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["flow", "ma2", "ma3", "inspect"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hermweb" / "__init__.py").is_file():
        print(f"error: no hermweb sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    if args.probe is not None:
        *_, parts = setup(args.workload, args.seed, args.probe)
        print(json.dumps(parts), flush=True)
        return 0

    RUNS.mkdir(exist_ok=True)
    setup_s, setup_parts = probe_setup(args)
    workdir = RUNS / f"{args.workload}-{args.seed}"
    hw, workload, inputs, _ = setup(args.workload, args.seed, workdir)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.instrument(tracer)

    times, scales, attempted, failed, problems, counts = measure(
        hw, workload, inputs, args.seconds, tracer
    )
    for p in problems[:20]:
        print(f"oracle: {p}", file=sys.stderr)
    medians = per_input(times)
    if not medians:
        print("error: no operation completed", file=sys.stderr)
        return 1

    p50 = statistics.median(medians)
    print(f"{len(medians)} inputs, {len(scales)} timed operations: p50 {p50:.6g} s host-normalised, "
          f"{statistics.median(per_input(times, normalised=False)):.6g} s wall; median host scale "
          f"{statistics.median(scales.values()):.4g}", file=sys.stderr)
    if tracer is None:
        metrics = {
            "time_to_solution_s.p50": (p50, "s"),
            "solutions_per_s": (len(medians) / sum(medians), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        calls, self_s = tracer.layer_totals(scales)
        counts.update(tracer.counts)
        counts["flow.rejected_steps"] = calls["flow.flow_step"] - counts["flow.steps"]
        values = {"setup.import_s": setup_parts["import_s"], "setup.inputs_s": setup_parts["inputs_s"]}
        for name in PER_LAYER:
            if name in values:
                continue
            layer, _, kind = name.rpartition(".")
            if kind == "calls":
                values[name] = calls[layer] / attempted
            elif kind == "s":
                values[name] = self_s[layer] / attempted
            else:
                values[name] = counts[name] / attempted
        metrics = {name: (values[name], _unit(name)) for name in PER_LAYER}
        tracer.write(
            RUNS / f"trace-{args.workload}-{args.seed}.jsonl.gz",
            {"workload": args.workload, "seed": args.seed, "operations": attempted,
             "traced_p50_s": p50, "per_operation": values},
        )

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
