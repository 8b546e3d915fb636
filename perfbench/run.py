"""The bubblefield benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
`src/`, nothing is installed).  Workloads and metrics are declared in
BENCHMARK.json; each workload runs in fresh interpreters
(`perfbench/workloads.py`) on one CPU with BLAS pinned to one thread, one client in a
closed loop running a fixed number of ops sized to take about S seconds.

Times are reported at a reference host speed.  The host this runs on
changes speed by up to half over seconds to minutes, under load from
outside the process, so each worker also times a fixed speed probe after
every op, and run.py scales each op time by REF_PROBE_S / (mean of the
probe times just before and after the op).  The plain wall-clock figures
are kept in the full result.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s          median over seven interpreters of interpreter start ->
                   first timed op (imports, inputs, flow-fine's family build)
  ops_per_s        ops completed / total op time
  latency_p50_ms   median op time of each op kind, averaged over the kinds
  latency_tail_ms  the highest percentile with at least 10 ops beyond it
                   (the percentile and op count are printed beside it)
  peak_rss_mb      peak RSS of the workload process (cli: its largest child)
  failed_frac      failed / attempted, printed here and carried in the
                   `attempted` and `failed` fields of the result line
--trace 1 runs the workload twice for S/2 each, untraced then traced, and
reports per-layer metrics from the spans (see tracer.py), `cli.import_ms`,
`trace.overhead_frac` and `failed_frac`.

Every op's output is checked; the result line's `correct` is false when an
output check fails, a non-numerical exception escapes, or tracing changed an
output.  The full result, with the environment and the determinism digest,
goes to perfbench/out/; spans of a traced run go there too.  The last line
of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

from tracer import layer_metrics, layer_names

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 5
WORKER_TIMEOUT_S = 150
REF_PROBE_S = 0.005


def child_env():
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.path.join(ROOT, "src"))
    return env


def worker(args, workdir, *extra):
    """Run one workload interpreter; returns (spawn time, its JSON result)."""
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", workdir, *extra]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"workload process failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return t_spawn, json.loads(proc.stdout.splitlines()[-1])


def speed_scale(probes):
    """Factor that takes times to a host on which the probe takes REF_PROBE_S."""
    return REF_PROBE_S / statistics.median(probes)


def at_reference_speed(res):
    """Op times, each scaled by the probes timed just before and after it."""
    p = res["probes_s"]
    return [t * speed_scale(p[max(i - 1, 0): i + 1]) for i, t in enumerate(res["latencies_s"])]


def p50_over_kinds(latencies, cycle):
    """Median op time of each op kind (op i is of kind i % cycle), averaged over kinds.

    The kinds of a workload differ in cost by up to five times, so the
    median of the mixed sample sits in the gap between them and jumps.
    """
    return statistics.fmean(statistics.median(latencies[k::cycle]) for k in range(cycle))


def tail(latencies):
    """(value, percentile): the highest percentile with at least 10 samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    return xs[n - 11], 100.0 * (n - 10) / n


def digest(tokens):
    return hashlib.sha256("\n".join(tokens).encode()).hexdigest()[:16]


def e2e(args, workdir):
    setups, setups_raw = [], []
    for _ in range(SETUP_SAMPLES - 1):
        t_spawn, res = worker(args, workdir, "--setup-only")
        setups_raw.append(res["t_ready"] - t_spawn)
        setups.append(setups_raw[-1] * speed_scale(res["probes_s"]))
    t_spawn, res = worker(args, workdir, "--seconds", str(args.seconds))
    setups_raw.append(res["t_ready"] - t_spawn)
    setups.append(setups_raw[-1] * speed_scale(res["probes_s"][:1]))
    raw = res["latencies_s"]
    lat = at_reference_speed(res)
    n = len(lat)
    tail_s, tail_pct = tail(lat)
    failed = sum(res["failures"].values())
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (n / sum(lat), "1/s"),
        "latency_p50_ms": (1e3 * p50_over_kinds(lat, res["cycle"]), "ms"),
        "latency_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    report = {
        "failed_frac": failed / n,
        "latency_tail_percentile": tail_pct,
        "ops": n,
        "probe_ms": 1e3 * statistics.median(res["probes_s"]),
        "wall_clock": {
            "setup_s": statistics.median(setups_raw),
            "ops_per_s": n / res["wall_s"],
            "latency_p50_ms": 1e3 * p50_over_kinds(raw, res["cycle"]),
            "latency_tail_ms": 1e3 * tail(raw)[0],
        },
        "failures": res["failures"],
        "digest": digest(res["tokens"]),
        "latencies_s": raw,
        "probes_s": res["probes_s"],
    }
    return metrics, n, failed, res["incorrect"], res["env"], report


def traced(args, workdir):
    half = str(args.seconds / 2.0)
    _, plain = worker(args, workdir, "--seconds", half)
    _, trace = worker(args, workdir, "--seconds", half, "--trace")
    spans_path = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}.spans.json")
    with open(spans_path, "w") as fh:
        json.dump(trace["spans"], fh)

    imports = []
    for _ in range(IMPORT_SAMPLES):
        t = time.monotonic()
        subprocess.run([sys.executable, "-c", "import bubblefield"], cwd=ROOT, env=child_env(),
                       check=True, timeout=60)
        imports.append(time.monotonic() - t)

    n = len(trace["latencies_s"])
    scale = speed_scale(trace["probes_s"])
    values = layer_metrics(trace["spans"], n, scale)
    p50_plain = p50_over_kinds(at_reference_speed(plain), plain["cycle"])
    p50_trace = p50_over_kinds(at_reference_speed(trace), trace["cycle"])
    values["cli.import_ms"] = 1e3 * statistics.median(imports) * scale
    values["trace.overhead_frac"] = p50_trace / p50_plain - 1.0
    metrics = {name: (values[name], unit) for name, unit in layer_names()}
    attempted = len(plain["latencies_s"]) + n
    failed = sum(plain["failures"].values()) + sum(trace["failures"].values())
    metrics["failed_frac"] = (failed / attempted, "1")

    common = min(len(plain["tokens"]), n)
    incorrect = plain["incorrect"] + trace["incorrect"]
    if plain["tokens"][:common] != trace["tokens"][:common]:
        incorrect.append("tracing changed an op output")
    report = {
        "failed_frac": failed / attempted,
        "spans": os.path.relpath(spans_path, ROOT),
        "failures": {"untraced": plain["failures"], "traced": trace["failures"]},
        "digest": {"untraced": digest(plain["tokens"]), "traced": digest(trace["tokens"])},
    }
    return metrics, attempted, failed, incorrect, trace["env"], report


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "bubblefield", "__init__.py")):
        sys.exit(f"no bubblefield sources under {os.path.join(ROOT, 'src')}; run from a source checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    if args.workload not in names:
        sys.exit(f"unknown workload {args.workload!r}; choose from {names}")

    # one CPU for the workers, their CLI children and the speed probe, so the
    # probe times the same core as the ops it scales
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # compile once so no timed interpreter pays for writing bytecode
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src"), HERE],
                   check=True, capture_output=True, timeout=120)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as workdir:
        run = traced if args.trace else e2e
        metrics, attempted, failed, incorrect, env, report = run(args, workdir)

    result = {
        "correct": not incorrect,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    full = dict(result, workload=args.workload, trace=args.trace, seconds=args.seconds,
                env=env, report=report, incorrect=incorrect[:20])
    path = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(full, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {attempted}  failed {failed}  failed_frac {report['failed_frac']:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit}")
    if not args.trace:
        print(f"  latency_tail_ms is p{report['latency_tail_percentile']:.1f} of {report['ops']} ops")
        print(f"  wall clock, probe at {report['probe_ms']:.3f} ms: {json.dumps(report['wall_clock'])}")
    print(f"  env {json.dumps(env)}")
    print(f"  digest {json.dumps(report['digest'])}  full result {os.path.relpath(path, ROOT)}")
    for line in incorrect[:5]:
        print(f"  INCORRECT {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
