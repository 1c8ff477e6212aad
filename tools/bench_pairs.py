"""Alternating parent/change benchmark pairs, written as BENCH_<N>.json.

    python3 tools/bench_pairs.py PARENT CHANGE --number N --pairs search=10 classify=5 --seed S

For each workload, each pair runs ``perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once on each side with the same seed; the side that
runs first alternates from pair to pair, and every run gets a fresh
``git archive`` export of its commit, removed after the run, so no build
left over from an earlier run (such as ``__pycache__``) reaches it. Seeds
count up from --seed, one per pair, workload after workload in the order
given. The run length T is BENCHMARK.json's ``run_seconds``, the same on
both sides.

The output holds each side's source size (the line count of every
src/brsc/*.py as its commit holds it, and their total), every run (its
end-to-end metrics, failed and attempted operations, correctness and
verdict digest) and, per workload, a summary:
for each end-to-end metric of BENCHMARK.json, each side's median and
quartiles (inclusive method), the pairs in which the change was better
(ties count for neither side), the change's median relative to the
parent's, the parent's interquartile range as a share of its median,
whether the change's median is within the metric's bound, and whether the
pairs resolve the metric: they do when every change run beats every parent
run, or when that share is within the bound and so is the change's shift
toward worse plus that share (a shift the parent's own spread could hide
must stay inside the bound); and whether every pair gave one
verdict digest and every run was correct with no failures. The file is
rewritten after every run, so a stopped run of this tool keeps the runs it
finished. Nothing under perfbench/ or BENCHMARK.json is written. Standard
library only.

The tool refuses to start when the two commits differ under perfbench/ or in
BENCHMARK.json: such pairs would compare two benchmarks, not two programs.
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev, dest):
    """A fresh tree of rev at dest, from git archive."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest, filter="data")


def source_lines(rev):
    """Line count of each src/brsc/*.py at rev, read from the commit rather
    than the work tree, and their total under "total"."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout

    out = {}
    for path in git("ls-tree", "--name-only", rev, "src/brsc/").decode().splitlines():
        if path.endswith(".py"):
            out[path.rsplit("/", 1)[1]] = git("show", f"{rev}:{path}").count(b"\n")
    out["total"] = sum(out.values())
    return out


def same_benchmark(parent, change):
    """Whether the two commits hold the same perfbench/ and BENCHMARK.json."""
    proc = subprocess.run(
        ["git", "diff", "--quiet", parent, change, "--", "perfbench", "BENCHMARK.json"], cwd=ROOT, capture_output=True
    )
    return proc.returncode == 0


def run_side(rev, workload, seed, seconds, workdir):
    """One perfbench run of rev in its own export: (result, detail, elapsed),
    or (None, error text, elapsed) when the run fails."""
    tree = Path(tempfile.mkdtemp(dir=workdir))
    try:
        export(rev, tree)
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=tree, capture_output=True, text=True,
        )
        elapsed = round(time.perf_counter() - t0, 1)
    finally:
        shutil.rmtree(tree)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}", elapsed
    return json.loads(lines[-1]), json.loads(lines[-2]), elapsed


def record(workload, seed, side, first, result, detail, elapsed):
    rec = {"workload": workload, "seed": seed, "side": side, "ran_first": first}
    if result is None:
        rec.update(error=detail, correct=False, elapsed=elapsed)
        return rec
    rec.update({name: m["value"] for name, m in result["metrics"].items()})
    digests = detail["digest"]
    rec.update(
        failed=result["failed"],
        attempted=result["attempted"],
        correct=result["correct"],
        digest=digests[0] if len(digests) == 1 else digests,
        elapsed=elapsed,
    )
    return rec


def quartiles(xs):
    """(q1, median, q3), inclusive method; one sample is all three."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def summarize(runs, spec):
    """Per workload, the summary described in the module docstring."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r
        both = [p for p in pairs.values() if len(p) == 2]
        summary = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            done = [p for p in both if name in p["parent"] and name in p["change"]]
            if not done:
                continue
            sign = 1 if metric["better"] == "lower" else -1
            q = {side: quartiles([p[side][name] for p in done]) for side in ("parent", "change")}
            pq1, pmed, pq3 = q["parent"]
            rel = (q["change"][1] - pmed) / pmed if pmed else 0.0
            better = sum(1 for p in done if sign * (p["change"][name] - p["parent"][name]) < 0)
            iqr_share = (pq3 - pq1) / pmed if pmed else 0.0
            worst_change = max(sign * p["change"][name] for p in done)
            best_parent = min(sign * p["parent"][name] for p in done)
            summary[name] = {
                **{side: {"median": round(m, 4), "q1": round(q1, 4), "q3": round(q3, 4)} for side, (q1, m, q3) in q.items()},
                "change_better_pairs": f"{better}/{len(done)}",
                "change_vs_parent_median": round(rel, 4),
                "parent_iqr_share": round(iqr_share, 4),
                "within_bound": sign * rel <= metric["bound"],
                "resolved": iqr_share + max(sign * rel, 0.0) <= metric["bound"] or worst_change < best_parent,
            }
        summary["same_digest_every_seed"] = bool(both) and all(
            "digest" in p["parent"] and p["parent"]["digest"] == p["change"].get("digest") for p in both
        )
        summary["all_correct_and_no_failures"] = all(
            r["correct"] and r.get("failed") == 0 for p in pairs.values() for r in p.values()
        )
        out[workload] = summary
    return out


def host():
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    info = {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}
    try:
        info["numpy"] = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        pass
    return info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="commit of the parent side")
    parser.add_argument("change", help="commit of the change side")
    parser.add_argument("--number", required=True, type=int, help="writes BENCH_<number>.json at the repository root")
    parser.add_argument("--pairs", required=True, nargs="+", metavar="WORKLOAD=N")
    parser.add_argument("--seed", required=True, type=int, help="seed of the first pair")
    parser.add_argument("--workdir", help="where the exports go (default: the system's temporary directory)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    plan = []
    for item in args.pairs:
        workload, _, count = item.partition("=")
        if not count.isdigit() or int(count) < 1:
            parser.error(f"bad --pairs entry {item!r}: want WORKLOAD=N with N >= 1")
        plan.append((workload, int(count)))
    revs = {}
    for side, rev in (("parent", args.parent), ("change", args.change)):
        proc = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            parser.error(f"unknown commit {rev!r}")
        revs[side] = proc.stdout.strip()
    if not same_benchmark(revs["parent"], revs["change"]):
        parser.error("the two commits differ under perfbench/ or in BENCHMARK.json, so their pairs would compare two benchmarks")

    out_path = ROOT / f"BENCH_{args.number}.json"
    seeds = {}
    seed = args.seed
    for workload, count in plan:
        seeds[workload] = (seed, seed + count - 1)
        seed += count
    seed_text = ", ".join(f"{w} {a}-{b}" for w, (a, b) in seeds.items())
    doc = {
        "description": (
            f"perfbench runs (python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0), "
            f"parent {revs['parent']} and change {revs['change']}, alternating which side runs first in each "
            "pair, each side a fresh git archive export of its commit for every run; metrics are the result "
            "line's, medians and quartiles (inclusive method) per side, digest the verdict digest of the line "
            f"before it. Seeds: {seed_text}. Written by tools/bench_pairs.py."
        ),
        "parent": revs["parent"],
        "change": revs["change"],
        "host": host(),
        "source_lines": {side: source_lines(rev) for side, rev in revs.items()},
        "runs": [],
        "summary": {},
    }
    if args.workdir:
        Path(args.workdir).mkdir(parents=True, exist_ok=True)
    for workload, count in plan:
        for i in range(count):
            seed = seeds[workload][0] + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result, detail, elapsed = run_side(revs[side], workload, seed, seconds, args.workdir)
                doc["runs"].append(record(workload, seed, side, side == order[0], result, detail, elapsed))
                doc["summary"] = summarize(doc["runs"], spec)
                out_path.write_text(json.dumps(doc, indent=1) + "\n")
                print(f"{workload} seed {seed} {side}: {elapsed} s", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
