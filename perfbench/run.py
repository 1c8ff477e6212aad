"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs repetitions of one workload, each in a fresh interpreter (a command-line
user pays cold caches on every invocation), until about ``--seconds`` have
passed, and always at least one. The first repetition checks every output
after its timed region; the others must reproduce its verdict digest, and an
output that is neither checked nor identical to a checked one counts as
failed. Extra interpreters that only set up bring set-up time to a median of
at least SETUP_SAMPLES. Times other than set-up are calibrated to a fixed
machine speed (calibrate.py). The last line of standard output is the
result; the line before it records the environment and the details behind
the figures, raw times among them, and the same is written to
``.perfbench/`` in the checkout.

With ``--trace 1`` the repetitions after the first alternate traced and
untraced, and the result holds the per-layer metrics of the traced ones plus
the tracing overhead.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("check-small", "check-wide", "classify", "search")
SETUP_SAMPLES = 7
# every run must end within this many seconds of its start
DEADLINE_S = 170
# candidate tail percentiles, highest first; a workload reports the highest
# one that leaves at least ten of its operations beyond it
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

LAYERS = ("iso", "lattice", "t_operator", "matroid")
TRACKED = (
    "iso.orbit_min_table",
    "iso.canonical_key",
    "iso.paving_complexes",
    "lattice.flats",
    "lattice.is_boolean_representable",
    "lattice.is_independent",
    "lattice.closure",
    "lattice.j_complex",
    "t_operator.cl_T",
    "t_operator.jt_complex",
    "t_operator.t_family",
    "t_operator.is_tbrsc",
    "t_operator.classify_minimality",
    "matroid.search_matroid_extensions",
    "matroid.is_matroid",
    "matroid.is_shellable",
)
HIT_RATIOS = {
    "lattice.flats.hit_ratio": "lattice.flats",
    "t_operator.t_constraints.hit_ratio": "t_operator._t_constraints",
    "iso.canonical_cache.hit_ratio": "iso._canonical_key_cached",
    "iso.orbit_min_table.hit_ratio": "iso.orbit_min_table",
}


class BenchError(Exception):
    pass


def spawn(workload, seed, mode, deadline):
    """Run one worker; return its JSON record plus its set-up time."""
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the run finished")
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} repetition did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} repetition exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{mode} repetition printed no result") from None
    record["setup_s"] = record["ready"] - start
    return record


def percentile(values, p):
    """Linear-interpolated percentile of a nonempty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(ops_per_rep):
    for p in TAIL_LADDER:
        if ops_per_rep * (100 - p) / 100 >= 10:
            return p
    raise BenchError(f"{ops_per_rep} operations per repetition are too few for a tail")


def per_op(reps, key):
    """Each operation's median latency over the repetitions, so a burst of
    machine noise in one repetition does not reach the tail."""
    return [statistics.median(col) for col in zip(*(r[key] for r in reps))]


def end_to_end(reps, setups):
    """Calibrated times (calibrate.py), raw set-up time and memory; the raw
    times go to the detail record. The wall time is the sum of the
    operations' median latencies: short bursts of machine noise then stay
    out of it, as they stay out of the percentiles."""
    cal, raw = per_op(reps, "cal_latencies"), per_op(reps, "latencies")
    p = tail_percentile(len(cal))
    metrics = {
        "cal_wall_s": sum(cal),
        "setup_s": statistics.median(setups),
        "cal_op_p50_ms": statistics.median(cal) * 1e3,
        "cal_op_tail_ms": percentile(cal, p) * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in reps) / 1024,
    }
    detail = {
        "op_tail_percentile": p,
        "operations": len(cal),
        "repetitions": len(reps),
        "raw": {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "op_p50_ms": statistics.median(raw) * 1e3,
            "op_tail_ms": percentile(raw, p) * 1e3,
        },
        "ref_s": [r["ref_s"] for r in reps],
    }
    return metrics, detail


def per_layer(traced, untraced):
    """Per-repetition means over the traced repetitions."""
    k = len(traced)
    # wall time with the reference samples, as the spans include them
    wall = statistics.median(r["wall_s"] for r in traced)
    functions = {}
    for r in traced:
        for name, f in r["trace"]["functions"].items():
            acc = functions.setdefault(name, dict.fromkeys(f, 0.0))
            for key, value in f.items():
                acc[key] += value / k
    metrics = {}
    for name in TRACKED:
        f = functions.get(name, {"calls": 0, "refused": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = f["calls"]
        metrics[f"{name}.refused"] = f["refused"]
        metrics[f"{name}.self_share"] = f["self_s"] / wall
    for layer in LAYERS:
        own = sum(f["self_s"] for n, f in functions.items() if n.startswith(layer + "."))
        metrics[f"{layer}.self_share"] = own / wall
    for name in traced[0]["trace"]["counters"]:
        metrics[name] = sum(r["trace"]["counters"][name] for r in traced) / k
    for metric, cache in HIT_RATIOS.items():
        hits = sum(r["trace"]["caches"][cache]["hits"] for r in traced)
        misses = sum(r["trace"]["caches"][cache]["misses"] for r in traced)
        metrics[metric] = hits / (hits + misses) if hits + misses else 0.0
    cal_wall = sum(per_op(traced, "cal_latencies"))
    metrics["cal_traced_wall_s"] = cal_wall
    metrics["cal_trace_overhead_s"] = cal_wall - sum(per_op(untraced, "cal_latencies"))
    detail = {
        "functions": dict(sorted(functions.items(), key=lambda kv: -kv[1]["self_s"])),
        "caches_first_repetition": traced[0]["trace"]["caches"],
        "spans_per_repetition": statistics.mean(r["trace"]["spans"] for r in traced),
    }
    return metrics, detail


def environment(seed):
    load = os.getloadavg()
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = out.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "commit": commit,
        "source_sha256": src.hexdigest(),
        "seed": seed,
        "loadavg_at_start": load,
        # one reference slice at the start and end of the run (calibrate.py)
        "ref_s": [calibrate.sample()[1]],
    }


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}, {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }


def bench(workload, seed, seconds, trace):
    """Run the repetitions; return (result line, detail record)."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    if not (ROOT / "src" / "brsc").is_dir():
        raise BenchError("no src/brsc in this checkout")
    env = environment(seed)
    untraced, traced = [], []
    last = 0.0  # set-up and timed region of the last repetition
    # another repetition starts only if it would end nearer to `seconds`
    while (
        not untraced
        or (trace and not traced)
        or time.monotonic() - start + last / 2 < seconds
    ):
        if not untraced:
            mode = "check"
        else:
            mode = "trace" if trace and len(traced) < len(untraced) else "time"
        record = spawn(workload, seed, mode, deadline)
        last = record["setup_s"] + record["wall_s"]  # without the checks
        (traced if mode == "trace" else untraced).append(record)
    reps = untraced + traced
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "setup", deadline)["setup_s"])
    checked = untraced[0]
    # a repetition whose verdicts match the checked one has its failures;
    # one whose verdicts differ is unverified throughout
    failed = sum(
        checked["failed"] if r["digest"] == checked["digest"] else r["attempted"] for r in reps
    )
    digests = {r["digest"] for r in reps}
    env["ref_s"].append(calibrate.sample()[1])
    e2e_units, layer_units = load_spec()
    metrics, detail = end_to_end(untraced, setups)
    units = e2e_units
    if trace:
        metrics, layer_detail = per_layer(traced, untraced)
        detail["trace"] = layer_detail
        units = layer_units
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics named in BENCHMARK.json but not measured: {sorted(missing)}")
    result = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    detail.update(
        workload=workload,
        environment=env,
        digest=sorted(digests),
        failures=checked["failures"],
        setup_samples=setups,
        wall_samples=[r["wall_s"] for r in untraced],
    )
    return result, detail


def _terminate(signum, frame):
    # an exception inside subprocess.run kills and reaps the running worker
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        result, detail = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps({"result": result, "detail": detail}, indent=1))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
