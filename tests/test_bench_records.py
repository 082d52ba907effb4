"""Every committed ``BENCH_*.json`` agrees with ``BENCHMARK.json`` and with its own runs.

A record gives, per workload and end-to-end metric, each side's runs in
pair order (the i-th parent run and the i-th change run share a seed), and
figures derived from them.  Each derived figure is recomputed here from the
runs: the medians and quartiles (``statistics.quantiles``, inclusive), the
parent's IQR, the relative change, the pairs won and lost, each metric's
verdict, and the claim's ``met``.  ``tools/bench_record.py`` writes the
records; its builder must reproduce every committed record's figures exactly.
"""

import importlib.util
import json
import statistics
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BETTER = "better: won at least 9 in 10 pairs, by more than the parent's IQR"


def _load(path):
    return json.loads(path.read_text())


def _gain(metric, parent, change):
    """How much better ``change`` is than ``parent`` in the metric's own direction."""
    return change - parent if metric["better"] == "higher" else parent - change


def _rule_met(metric):
    """Nine tenths of the pairs won, 9 of 10, and a median gain beyond the parent's IQR."""
    return (metric["change_won"] * 10 >= 9 * len(metric["runs"]["parent"])
            and _gain(metric, metric["parent"]["median"], metric["change"]["median"])
            > metric["parent_iqr"])


def _metrics(path):
    return [(workload, name, metric)
            for workload, record in _load(path)["workloads"].items()
            for name, metric in record["metrics"].items()]


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_matches_the_benchmark_declaration(path):
    declared = _load(ROOT / "BENCHMARK.json")
    record = _load(path)
    assert set(record["workloads"]) == {w["name"] for w in declared["workloads"]}
    end_to_end = {m["name"]: m for m in declared["end_to_end"]}
    for workload, stats in record["workloads"].items():
        assert set(stats["metrics"]) == set(end_to_end), workload
        for name, metric in stats["metrics"].items():
            for key in ("unit", "better", "bound"):
                assert metric[key] == end_to_end[name][key], (workload, name, key)
        assert stats["pairs"] == len(record["seeds"])
        assert stats["correct"] is True
        assert stats["failed_operations"] == {"parent": 0, "change": 0}
        assert all(stats["outputs_identical_per_seed"].values()), workload


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_figures_follow_from_its_runs(path):
    pairs = len(_load(path)["seeds"])
    for workload, name, metric in _metrics(path):
        where = (workload, name)
        runs = metric["runs"]
        assert len(runs["parent"]) == len(runs["change"]) == pairs, where
        for side in ("parent", "change"):
            q1, median, q3 = statistics.quantiles(runs[side], n=4, method="inclusive")
            assert metric[side]["median"] == pytest.approx(statistics.median(runs[side])), where
            assert metric[side]["median"] == pytest.approx(median), where
            assert (metric[side]["q1"], metric[side]["q3"]) == pytest.approx((q1, q3)), where
        assert metric["parent_iqr"] == pytest.approx(
            metric["parent"]["q3"] - metric["parent"]["q1"]), where
        assert metric["change_vs_parent"] == pytest.approx(
            metric["change"]["median"] / metric["parent"]["median"] - 1.0), where
        gains = [_gain(metric, p, c) for p, c in zip(runs["parent"], runs["change"])]
        assert metric["change_won"] == sum(g > 0 for g in gains), where
        assert metric["change_lost"] == sum(g < 0 for g in gains), where
        assert (metric["verdict"] == BETTER) == _rule_met(metric), where
        if metric["verdict"] != BETTER:
            assert metric["verdict"] == "within its bound", where
            assert -_gain(metric, 1.0, 1.0 + metric["change_vs_parent"]) <= metric["bound"], where


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_claim_is_met_by_its_stated_rule(path):
    record = _load(path)
    claim = record["claim"]
    metric = record["workloads"][claim["workload"]]["metrics"][claim["metric"]]
    assert claim["rule"] == ("the change wins at least 9 of 10 pairs and its median exceeds "
                             "the parent's by more than the parent's IQR")
    assert claim["met"] == _rule_met(metric)


def _bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_script_rebuilds_the_figures_exactly(path):
    bench_record = _bench_record()
    declared = {m["name"]: m for m in _load(ROOT / "BENCHMARK.json")["end_to_end"]}
    record = _load(path)
    for workload, name, metric in _metrics(path):
        runs = metric["runs"]
        rebuilt = bench_record.metric_figures(declared[name], runs["parent"], runs["change"])
        assert rebuilt == metric, (workload, name)
    claim = record["claim"]
    assert bench_record.claim_figures(record["workloads"], claim["workload"],
                                      claim["metric"]) == claim


def test_the_pass_rule_takes_nine_tenths_of_the_pairs():
    declared = {"unit": "1/s", "better": "higher", "bound": 0.25}
    parent = [100.0 + i for i in range(20)]

    def verdict(won):  # the change gains 50 on its first ``won`` pairs and loses 1 on the rest
        change = [p + 50.0 if i < won else p - 1.0 for i, p in enumerate(parent)]
        return _bench_record().metric_figures(declared, parent, change)["verdict"]

    assert [verdict(won) == BETTER for won in (9, 17, 18, 20)] == [False, False, True, True]


@pytest.mark.parametrize("seeds", ["5", "3610-3601", "7-7"])
def test_the_script_refuses_fewer_than_two_seeds_before_a_run(monkeypatch, capsys, seeds):
    bench_record = _bench_record()

    def export(source, dest):
        raise AssertionError("exported a tree")

    monkeypatch.setattr(bench_record, "export", export)
    with pytest.raises(SystemExit) as exit_:
        bench_record.main(["--parent", "HEAD", "--change", ".", "--seeds", seeds,
                           "--claim", "cli:ops_per_s", "--out", "unwritten.json"])
    assert exit_.value.code == 2
    assert f"'{seeds}' is fewer than two seeds" in capsys.readouterr().err


def _repository(root):
    """A repository at ``root`` with one commit, and a ``git`` that runs there and commits as a
    fixed user."""

    def git(*args):
        return subprocess.run(["git", "-c", "user.name=Record Test", "-c", "user.email=t@example",
                               "-c", "commit.gpgsign=false", *args], cwd=root, check=True,
                              capture_output=True).stdout.decode()

    (root / "src" / "rootflow").mkdir(parents=True)
    (root / ".gitignore").write_text("*.log\n")
    (root / "src" / "rootflow" / "kept.py").write_text("kept = 1\n")
    (root / "src" / "rootflow" / "gone.py").write_text("gone = 1\n")
    (root / "run.sh").write_text("echo run\n")
    (root / "tool.sh").write_text("echo tool\n")
    (root / "tool.sh").chmod(0o755)
    (root / "tracked.log").write_text("tracked, though ignored\n")
    git("init", "-q")
    git("add", "--all")
    git("add", "--force", "tracked.log")
    git("commit", "-q", "-m", "base")
    return git


def _files(root):
    """Each file under ``root`` outside ``.git``: its bytes and whether its owner may run it."""
    return {path.relative_to(root).as_posix(): (path.read_bytes(), bool(path.stat().st_mode & 0o100))
            for path in root.rglob("*") if path.is_file() and ".git" not in path.parts}


def test_export_extracts_a_revision_as_committed(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    git = _repository(repo)
    committed = _files(repo)
    (repo / "src" / "rootflow" / "kept.py").write_text("kept = 2\n")
    monkeypatch.chdir(repo)
    commit, tree = _bench_record().export("HEAD", tmp_path / "out")
    assert commit == git("rev-parse", "HEAD").strip()
    assert tree == git("rev-parse", "HEAD:src/rootflow").strip()
    assert _files(tmp_path / "out") == committed
    assert committed["tool.sh"] == (b"echo tool\n", True)


def test_export_extracts_a_working_tree_as_git_add_all_stages_it(tmp_path):
    repo = tmp_path / "repo"
    git = _repository(repo)
    (repo / "src" / "rootflow" / "kept.py").write_text("kept = 2\n")  # modified
    (repo / "src" / "rootflow" / "new.py").write_text("new = 1\n")  # untracked
    (repo / "src" / "rootflow" / "gone.py").unlink()  # deleted, still in the caller's index
    (repo / "src" / "rootflow" / "run.log").write_text("ignored\n")
    (repo / "run.sh").chmod(0o755)  # now executable
    (repo / "staged.txt").write_text("staged\n")
    git("add", "staged.txt")
    before = git("status", "--porcelain"), git("diff", "--cached")
    expected = _files(repo)
    del expected["src/rootflow/run.log"]
    commit, tree = _bench_record().export(str(repo), tmp_path / "out")
    assert (git("status", "--porcelain"), git("diff", "--cached")) == before
    assert _files(tmp_path / "out") == expected
    assert {"src/rootflow/new.py", "tracked.log", "tool.sh"} <= expected.keys()
    assert "src/rootflow/gone.py" not in expected
    assert expected["run.sh"] == (b"echo run\n", True)
    assert commit is None
    git("add", "--all")
    git("commit", "-q", "-m", "the working tree")
    assert tree == git("rev-parse", "HEAD:src/rootflow").strip()


def _perfbench_printing(tree, value):
    """A ``perfbench/run.py`` in ``tree`` that prints a record line and a result line whose one
    metric value is ``value``, as written."""
    result = ('{"correct": true, "attempted": 1, "failed": 0, '
              '"metrics": {"ops_per_s": {"value": %s}}}' % value)
    (tree / "perfbench").mkdir()
    (tree / "perfbench" / "run.py").write_text(f"print('record: {{}}')\nprint({result!r})\n")


def test_a_result_line_is_read_as_json(tmp_path):
    _perfbench_printing(tmp_path, "1.5")
    done = _bench_record().run_once(tmp_path, "basin", 1)
    assert done == {"result": {"correct": True, "attempted": 1, "failed": 0,
                               "metrics": {"ops_per_s": {"value": 1.5}}},
                    "record": {}, "cached": False}


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_a_result_line_with_a_non_number_is_refused(tmp_path, value):
    _perfbench_printing(tmp_path, value)
    with pytest.raises(ValueError, match=f"{value} is not a JSON number"):
        _bench_record().run_once(tmp_path, "basin", 1)
