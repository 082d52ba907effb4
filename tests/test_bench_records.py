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
