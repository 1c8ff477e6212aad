"""The summary that tools/bench_pairs.py writes, on made-up runs, the
source size it records, on a made-up repository, and the benchmark's
tracing self-tests, which pin library names."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {
    "end_to_end": [
        {"name": "wall", "better": "lower", "bound": 0.1},
        {"name": "rate", "better": "higher", "bound": 0.1},
    ]
}


def _run(seed, side, wall, rate, digest="d", failed=0):
    return {
        "workload": "w", "seed": seed, "side": side, "wall": wall, "rate": rate,
        "digest": digest, "failed": failed, "correct": failed == 0,
    }


def test_quartiles_use_the_inclusive_method():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_counts_pairs_and_bounds_by_direction():
    walls = [(1.0, 0.9), (1.0, 1.0), (1.2, 1.1), (1.1, 1.3)]
    runs = []
    for seed, (p, c) in enumerate(walls):
        runs += [_run(seed, "parent", p, 10.0), _run(seed, "change", c, 10.0 - seed)]
    s = bench_pairs.summarize(runs, SPEC)["w"]
    wall = s["wall"]
    # a tie counts for neither side
    assert wall["change_better_pairs"] == "2/4"
    assert wall["parent"] == {"median": 1.05, "q1": 1.0, "q3": 1.125}
    assert wall["change"]["median"] == 1.05 and wall["within_bound"]
    assert wall["parent_iqr_share"] == pytest.approx(0.125 / 1.05, abs=1e-4)
    rate = s["rate"]
    # higher is better: every change run is lower or equal, and its median
    # (8.5) is 15% below the parent's
    assert rate["change_better_pairs"] == "0/4"
    assert rate["change_vs_parent_median"] == -0.15 and not rate["within_bound"]
    assert s["same_digest_every_seed"] and s["all_correct_and_no_failures"]


def test_summary_flags_digests_failures_and_errors():
    runs = [_run(0, "parent", 1.0, 1.0), _run(0, "change", 1.0, 1.0, digest="e")]
    s = bench_pairs.summarize(runs, SPEC)["w"]
    assert not s["same_digest_every_seed"] and s["all_correct_and_no_failures"]
    runs = [_run(0, "parent", 1.0, 1.0), _run(0, "change", 1.0, 1.0, failed=1)]
    assert not bench_pairs.summarize(runs, SPEC)["w"]["all_correct_and_no_failures"]
    # a run that failed to finish has no metrics and is not correct
    err = {"workload": "w", "seed": 1, "side": "change", "error": "exit 1", "correct": False}
    runs = [_run(0, "parent", 1.0, 1.0), _run(0, "change", 1.0, 1.0), _run(1, "parent", 2.0, 1.0), err]
    s = bench_pairs.summarize(runs, SPEC)["w"]
    assert s["wall"]["change_better_pairs"] == "0/1"
    assert not s["same_digest_every_seed"] and not s["all_correct_and_no_failures"]


def test_summary_marks_unresolved_spreads():
    # the parent's runs spread 0.2 / 1.1 of their median, past the 0.1 bound:
    # resolved only when every change run beats every parent run
    parent = [(1.0, 10.0), (1.2, 12.0), (1.0, 10.0), (1.2, 12.0)]

    def summary(change):
        runs = []
        for seed, ((pw, pr), (cw, cr)) in enumerate(zip(parent, change)):
            runs += [_run(seed, "parent", pw, pr), _run(seed, "change", cw, cr)]
        return bench_pairs.summarize(runs, SPEC)["w"]

    s = summary([(0.9, 12.5), (0.98, 13.0), (0.95, 12.1), (0.99, 14.0)])
    assert s["wall"]["parent_iqr_share"] > 0.1 and s["wall"]["resolved"] and s["rate"]["resolved"]
    # a wall of 1.0 ties the parent's best run, which is no win
    s = summary([(0.9, 12.5), (1.0, 13.0), (0.95, 11.0), (0.99, 14.0)])
    assert not s["wall"]["resolved"] and not s["rate"]["resolved"]
    # a spread within the bound resolves the metric
    runs = [_run(seed, side, 1.0, 10.0) for seed in range(3) for side in ("parent", "change")]
    assert bench_pairs.summarize(runs, SPEC)["w"]["wall"]["resolved"]


def test_source_lines_read_the_commit_not_the_work_tree(tmp_path, monkeypatch):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    src = tmp_path / "src" / "brsc"
    (src / "sub").mkdir(parents=True)
    (src / "a.py").write_text("x = 1\ny = 2\n")
    (src / "b.py").write_text("z = 3\n")
    (src / "notes.txt").write_text("not a module\n")
    (src / "sub" / "c.py").write_text("not at the top level\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-qm", "one")
    # the work tree no longer matches the commit, whose counts are read
    (src / "a.py").write_text("x = 1\n")
    (src / "d.py").write_text("w = 4\n")
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    assert bench_pairs.source_lines("HEAD") == {"a.py": 2, "b.py": 1, "total": 3}


def test_benchmark_tracing_selftests_pass():
    # the tracer wraps cl_T, flats and the cached _t_constraints by name and
    # reads their cache_info(), so a library change that moves them fails here
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py", "Tracing"], cwd=root, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
