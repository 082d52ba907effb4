"""Run perfbench on a change and its parent, and write the A/B record as a ``BENCH_*.json``.

    python3 tools/bench_record.py --parent REV --change REV|PATH --seeds 3601-3610 \\
        --claim cli:ops_per_s --out BENCH_35.json

Run it from a git checkout.  Each side runs from its own ``git archive`` of a
tree: a revision's, or, for a working-tree PATH, the one ``git add --all``
would stage from it (tracked files, and untracked ones not ignored).  Every
run is unmodified ``perfbench/run.py --workload W --seed N --seconds 5 --trace 0``
under ``PYTHONDONTWRITEBYTECODE=1 PYTHONUNBUFFERED=1``, one at a time: per
seed basin, then precision, then cli, the parent first on odd seeds and the
change first on even ones.  The record gives, per workload and end-to-end
metric of ``BENCHMARK.json``, both sides' runs in seed order and the figures
derived from them; ``tests/test_bench_records.py`` checks that format.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
SECONDS = 5
BETTER = "better: won at least 9 in 10 pairs, by more than the parent's IQR"
RULE = ("the change wins at least 9 of 10 pairs and its median exceeds "
        "the parent's by more than the parent's IQR")
# What must be equal between the two sides' runs of one seed and workload.
IDENTICAL = ("digest", "op_digests", "counts_per_round", "evaluations_per_round")


def parse_seeds(text: str) -> list[int]:
    """``3601-3610`` or ``1,5,9`` as a list of ints, at least two: a side's quartiles need two
    runs."""
    if "-" in text:
        first, last = map(int, text.split("-"))
        seeds = list(range(first, last + 1))
    else:
        seeds = [int(seed) for seed in text.split(",")]
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(f"{text!r} is fewer than two seeds, and a record needs "
                                         "at least two; a range runs from low to high")
    return seeds


def _git(*args, cwd=None, env=None) -> bytes:
    return subprocess.run(["git", *args], cwd=cwd, env=env, check=True, capture_output=True).stdout


def export(source: str, dest: Path) -> tuple[str | None, str]:
    """Extract ``source``, a revision or a working tree as ``git add --all`` would stage it,
    into ``dest``; return its commit (None for a working tree) and ``src/rootflow``'s tree id."""
    if Path(source).is_dir():
        cwd, commit = source, None
        env = {**os.environ, "GIT_INDEX_FILE": os.path.abspath(f"{dest}.index")}
        _git("read-tree", "HEAD", cwd=cwd, env=env)
        _git("add", "--all", cwd=cwd, env=env)
        tree = _git("write-tree", cwd=cwd, env=env).decode().strip()
    else:
        cwd = None
        tree = commit = _git("rev-parse", source + "^{commit}").decode().strip()
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(_git("archive", tree, cwd=cwd))) as tar:
        tar.extractall(dest, filter="data")
    return commit, _git("rev-parse", tree + ":src/rootflow", cwd=cwd).decode().strip()


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One perfbench run in ``tree``: its result line, its record line and the cache state."""
    cached = (tree / "src" / "rootflow" / "__pycache__").exists()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONDONTWRITEBYTECODE="1", PYTHONUNBUFFERED="1")
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]
    out = subprocess.run(argv, cwd=tree, env=env, check=True, stdout=subprocess.PIPE,
                         text=True).stdout.splitlines()
    record = next(json.loads(line[len("record: "):]) for line in out if line.startswith("record: "))
    result = json.loads(out[-1], parse_constant=_refuse)  # no NaN or Infinity, as in CI
    return {"result": result, "record": record, "cached": cached}


def _refuse(constant: str):
    raise ValueError(f"{constant} is not a JSON number")


def _quartiles(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": statistics.median(runs), "q1": q1, "q3": q3}


def _gain(better: str, parent: float, change: float) -> float:
    """How much better ``change`` is than ``parent`` in the metric's own direction."""
    return change - parent if better == "higher" else parent - change


def metric_figures(declared: dict, parent: list[float], change: list[float]) -> dict:
    """One metric's entry of a record: its declaration, both sides' runs and what follows."""
    better = declared["better"]
    p, c = _quartiles(parent), _quartiles(change)
    iqr = p["q3"] - p["q1"]
    relative = c["median"] / p["median"] - 1.0
    gains = [_gain(better, a, b) for a, b in zip(parent, change)]
    won = sum(g > 0 for g in gains)
    # won in nine tenths of the pairs: 9 of the usual 10, as BETTER words it
    if won * 10 >= 9 * len(gains) and _gain(better, p["median"], c["median"]) > iqr:
        verdict = BETTER
    elif -_gain(better, 1.0, 1.0 + relative) <= declared["bound"]:
        verdict = "within its bound"
    else:
        verdict = "worse than its bound"
    return {"unit": declared["unit"], "better": better, "bound": declared["bound"],
            "parent": p, "change": c, "parent_iqr": iqr, "change_vs_parent": relative,
            "change_won": won, "change_lost": sum(g < 0 for g in gains), "verdict": verdict,
            "runs": {"parent": parent, "change": change}}


def workload_figures(end_to_end: list[dict], runs: dict) -> dict:
    """A workload's entry, from ``runs[side]``: that side's run_once results in seed order."""
    parent, change = runs["parent"], runs["change"]

    def values(side: list[dict], name: str) -> list[float]:
        return [r["result"]["metrics"][name]["value"] for r in side]

    def total(key: str) -> dict:
        return {side: sum(r["result"][key] for r in runs[side]) for side in SIDES}

    return {
        "pairs": len(parent),
        "metrics": {m["name"]: metric_figures(m, values(parent, m["name"]), values(change, m["name"]))
                    for m in end_to_end},
        "outputs_identical_per_seed": {
            key: all(a["record"][key] == b["record"][key] for a, b in zip(parent, change))
            for key in IDENTICAL},
        "correct": all(r["result"]["correct"] for r in parent + change),
        "failed_operations": total("failed"),
        "attempted_operations": total("attempted"),
        "bytecode_cache_present_before_run": {side: [r["cached"] for r in runs[side]]
                                              for side in SIDES},
    }


def claim_figures(workloads: dict, workload: str, metric: str) -> dict:
    figures = workloads[workload]["metrics"][metric]
    return {"workload": workload, "metric": metric, "rule": RULE,
            "met": figures["verdict"] == BETTER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the parent revision")
    parser.add_argument("--change", required=True, help="the change: a revision or a working tree")
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 3601-3610")
    parser.add_argument("--claim", required=True, help="WORKLOAD:METRIC the change claims")
    parser.add_argument("--out", required=True, help="the record to write")
    args = parser.parse_args(argv)
    declared = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in declared["workloads"]]  # basin, precision, cli
    claim = args.claim.partition(":")[::2]
    if claim[0] not in workloads or claim[1] not in {m["name"] for m in declared["end_to_end"]}:
        parser.error(f"--claim {args.claim}: expected WORKLOAD:METRIC from BENCHMARK.json")
    with tempfile.TemporaryDirectory(prefix="bench-record-") as tmp:
        trees = {side: Path(tmp, side) for side in SIDES}
        parent_commit, parent_tree = export(args.parent, trees["parent"])
        change_commit, change_tree = export(args.change, trees["change"])
        runs = {w: {side: [] for side in SIDES} for w in workloads}
        for seed in args.seeds:
            for workload in workloads:
                for side in SIDES if seed % 2 else SIDES[::-1]:
                    done = run_once(trees[side], workload, seed)
                    runs[workload][side].append(done)
                    value = done["result"]["metrics"]["ops_per_s"]["value"]
                    print(f"seed {seed} {workload} {side}: ops_per_s {value:.6g}", file=sys.stderr)
    figures = {w: workload_figures(declared["end_to_end"], runs[w]) for w in workloads}
    record = {
        "what": ("End-to-end metrics of perfbench/run.py for this change and its parent, over "
                 f"{len(args.seeds)} alternating pairs of runs per workload, written by "
                 "tools/bench_record.py. For each metric: each side's median and quartiles "
                 "(statistics.quantiles, inclusive), the change's median relative to the "
                 "parent's, and the pairs the change won (ties count for neither)."),
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {SECONDS} --trace 0",
        "seeds": args.seeds,
        "order": ("odd seeds run the parent first, even seeds the change first; one run at a "
                  "time, seed by seed, basin then precision then cli"),
        "parent_commit": parent_commit,
        "parent_src_rootflow_tree": parent_tree,
        "change_src_rootflow_tree": change_tree,
        "change_commit": change_commit or ("the commit that adds this file; its "
                                           "src/rootflow tree is change_src_rootflow_tree"),
        "copies": ("each side ran from its own git archive of a tree; the environment set "
                   "PYTHONDONTWRITEBYTECODE=1 and PYTHONUNBUFFERED=1, so no run found a "
                   "__pycache__ under src/rootflow and every interpreter compiled src/ afresh"),
        "claim": claim_figures(figures, *claim),
        "machine": {"platform": platform.platform(), "python": platform.python_version(),
                    "nproc": os.cpu_count()},
        "workloads": figures,
    }
    Path(args.out).write_text(json.dumps(record, indent=1, allow_nan=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
