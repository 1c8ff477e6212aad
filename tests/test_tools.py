"""The summary that tools/bench_pairs.py writes, on made-up runs, the
source size it records, on a made-up repository, the benchmark's tracing
self-tests, which pin library names, and tools/faults.py on two of its
faults."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _tool("bench_pairs")
faults = _tool("faults")

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


def test_summary_weighs_the_shift_against_the_spread():
    # search setup_s of BENCH_29.json: parent q1/median/q3 0.1232/0.1334/0.1502,
    # a 20% share within the 0.25 bound, and a change median 13.6% worse;
    # shift plus share exceed the bound, and the runs overlap
    parent = [0.1512, 0.1334, 0.1232, 0.1502, 0.1227]
    change = [0.1744, 0.1285, 0.1514, 0.1537, 0.1348]
    spec = {"end_to_end": [{"name": "wall", "better": "lower", "bound": 0.25}]}
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        runs += [_run(seed, "parent", p, 1.0), _run(seed, "change", c, 1.0)]
    wall = bench_pairs.summarize(runs, spec)["w"]["wall"]
    assert wall["parent"] == {"median": 0.1334, "q1": 0.1232, "q3": 0.1502}
    assert wall["change"]["median"] == 0.1514 and wall["within_bound"]
    assert not wall["resolved"]
    # the same spread under a shift toward better, or no shift, resolves it
    for shift in (-0.1, 0.0):
        runs = []
        for seed, p in enumerate(parent):
            runs += [_run(seed, "parent", p, 1.0), _run(seed, "change", p * (1 + shift), 1.0)]
        assert bench_pairs.summarize(runs, spec)["w"]["wall"]["resolved"]


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


def test_pairs_refuse_commits_with_different_benchmarks(tmp_path, monkeypatch, capsys):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    def commit(path, text):
        (tmp_path / path).write_text(text)
        git("add", "-A")
        git("commit", "-qm", path)
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=tmp_path, capture_output=True, text=True).stdout.strip()

    (tmp_path / "perfbench").mkdir()
    (tmp_path / "src").mkdir()
    git("init", "-q")
    (tmp_path / "perfbench" / "run.py").write_text("print(1)\n")
    base = commit("BENCHMARK.json", '{"run_seconds": 1, "end_to_end": []}\n')
    program = commit("src/a.py", "x = 1\n")
    bench = commit("perfbench/run.py", "print(2)\n")
    spec = commit("BENCHMARK.json", '{"run_seconds": 2, "end_to_end": []}\n')
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    assert bench_pairs.same_benchmark(base, program)
    assert not bench_pairs.same_benchmark(program, bench)
    assert not bench_pairs.same_benchmark(bench, spec)
    # the refusal comes before any run or output file
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([program, bench, "--number", "1", "--pairs", "w=1", "--seed", "0"])
    assert exc.value.code == 2 and "differ under perfbench/" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_1.json").exists()


def test_benchmark_tracing_selftests_pass():
    # the tracer wraps cl_T, flats and the cached _t_constraints by name and
    # reads their cache_info(), so a library change that moves them fails here
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py", "Tracing"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "name, tests, want",
    [
        ("extension-dead-candidate-stays-live", ("tests/test_matroid.py", "-k", "list_state_reference and pendant"), True),
        ("extension-constraints-unsorted", ("tests/test_lattice.py", "-k", "extension_constraints_match"), False),
    ],
)
def test_faults_catch_a_wrong_answer_and_pass_a_harmless_change(tmp_path, name, tests, want):
    # on a copy of the work tree, with a narrow selection: a dead candidate
    # left live is chosen, and the search finds 8 extensions of the rank-3
    # forest matroid of K4 plus a pendant edge, against the reference's one;
    # unsorted constraints are the same constraints in another order
    fault = {f.name: f for f in faults.FAULTS}[name]
    assert (fault.harmless is None) == want
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    assert faults.caught(fault, tmp_path, tests) == want
    # the line is gone, so the fault cannot be applied twice
    with pytest.raises(faults.FaultError, match="occurs 0 times"):
        faults.apply(fault, tmp_path)
