"""The runnable scripts still run against the package's public names."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [["scripts/demo.py"], ["scripts/law_sweep.py", "--pairs", "5"]],
    ids=["demo", "law_sweep"],
)
def test_script_exits_zero(argv):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_route_digest_prints_one_digest_per_route_and_the_folds(tmp_path):
    # No PYTHONPATH to src, run from elsewhere, and a decoy ``blackbox`` on
    # the path: the script must import the engine of its own checkout.
    decoy = tmp_path / "blackbox"
    decoy.mkdir()
    (decoy / "__init__.py").write_text("raise ImportError('decoy blackbox imported')\n")
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts/route_digest.py"), "--seeds", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == [
        "blackbox", "blackbox_categorical", "oracle_behavior", "blackbox_fast", "compose_folds",
        "netlists", "cli_json",
    ]
    assert all(len(line.split()[1]) == 64 for line in lines)


# What every route, the compositional folds, the netlists and the JSON text
# print over the benchmark's circuits at seeds 1, 5 and 7.  A change that
# moves one of them changes printed output.
PINNED_DIGESTS = """\
blackbox 6391a10258d461946af3d10cdab8c21a3684f6bb1c3ccd52f556147877d5cbab
blackbox_categorical 6391a10258d461946af3d10cdab8c21a3684f6bb1c3ccd52f556147877d5cbab
oracle_behavior 6391a10258d461946af3d10cdab8c21a3684f6bb1c3ccd52f556147877d5cbab
blackbox_fast 6391a10258d461946af3d10cdab8c21a3684f6bb1c3ccd52f556147877d5cbab
compose_folds ee6ae48be9f2e0ef9a0c41865f2da398be5d3e2ab1123f2e637c6cc8dc133e65
netlists 9b2b19d6226cefdebe644b30ec56aa53036cd7c8c9a411de8f65d6d339a9de8e
cli_json f421f7361a39f13ef14e2d5f61a7e165f47feb3d961d39caf9bc664df5f15f6d
"""


def test_route_digest_prints_the_pinned_digests():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts/route_digest.py"), "--seeds", "1,5,7"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == PINNED_DIGESTS


def test_import_cost_reports_each_engine_module_once(tmp_path):
    # A decoy ``blackbox`` on the path: the script must time its own checkout.
    decoy = tmp_path / "blackbox"
    decoy.mkdir()
    (decoy / "__init__.py").write_text("raise ImportError('decoy blackbox imported')\n")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts/import_cost.py"), "--runs", "1"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(tmp_path)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "import blackbox.cli: median of 1 cold runs (ms)"
    modules = sorted(["blackbox"] + [f"blackbox.{p.stem}" for p in (ROOT / "src/blackbox").glob("*.py")
                                     if p.stem != "__init__"])
    assert [line.split()[0] for line in lines[1:-2]] == modules
    assert lines[-2].startswith("blackbox.* self sum") and lines[-1].startswith("blackbox.cli total")
    times = [float(line.split()[-1]) for line in lines[1:]]
    assert all(t > 0 for t in times) and times[-1] >= times[-2]


def test_import_cost_alternates_two_checkouts_and_prints_them_side_by_side(tmp_path):
    # The other checkout's front end also imports a module of its own.
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src/blackbox", other / "src/blackbox",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (other / "src/blackbox/extra.py").write_text("X = 1\n")
    cli = other / "src/blackbox/cli.py"
    cli.write_text(cli.read_text().replace("from __future__ import annotations\n",
                                           "from __future__ import annotations\nfrom . import extra\n", 1))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts/import_cost.py"), "--runs", "2", "--other", str(other)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == f"import blackbox.cli: median of 2 cold runs of each engine (ms), this checkout then {other}"
    rows = {line[:20].strip(): line[25:].split() for line in lines[1:]}
    modules = sorted(["blackbox"] + [f"blackbox.{p.stem}" for p in (ROOT / "src/blackbox").glob("*.py")
                                     if p.stem != "__init__"] + ["blackbox.extra"])
    assert list(rows) == modules + ["blackbox.* self sum", "blackbox.cli total"]
    extra = rows.pop("blackbox.extra")
    assert extra[0] == "-" and float(extra[1]) > 0
    assert all(len(cells) == 2 and all(float(c) > 0 for c in cells) for cells in rows.values())
    assert all(float(t) >= float(s) for t, s in zip(rows["blackbox.cli total"], rows["blackbox.* self sum"]))


def test_large_routes_times_every_route_on_the_two_smallest_circuits(tmp_path):
    decoy = tmp_path / "blackbox"
    decoy.mkdir()
    (decoy / "__init__.py").write_text("raise ImportError('decoy blackbox imported')\n")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts/large_routes.py"),
         "--circuits", "rc-ladder-64,rlc-mesh-5"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(tmp_path)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "| circuit | `blackbox` | categorical | `blackbox_fast` | oracle |"
    assert [line.split(" | ")[0] for line in lines[2:]] == ["| 64-rung RC ladder", "| 5×5 RLC mesh"]
    assert all(line.count(" s |") == 4 for line in lines[2:])


def test_large_routes_exits_1_when_a_route_disagrees(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src and bench
    lr = _load_script("large_routes")
    monkeypatch.setitem(lr.ROUTES, "oracle", lambda g: lr.blackbox(lr.parse_netlist(
        "nodes: a b\ninputs: a\noutputs: b\nR a b 1\n")))
    monkeypatch.setattr(sys, "argv", ["large_routes.py", "--circuits", "rc-ladder-64"])
    assert lr.main() == 1
    assert capsys.readouterr().err == "64-rung RC ladder: oracle disagrees with `blackbox`\n"


def test_large_routes_times_the_relation_fold_of_mesh_columns(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts/large_routes.py"), "--circuits", "rlc-mesh-5-columns"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["| mesh columns | flat `blackbox` | relation fold |", "|---|---|---|"]
    assert len(lines) == 3 and lines[2].startswith("| 5×5 | ") and lines[2].count(" s |") == 2


def test_large_routes_exits_1_when_the_relation_fold_disagrees(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src and bench
    lr = _load_script("large_routes")
    monkeypatch.setattr(lr, "relation_fold", lambda blocks: lr.blackbox(blocks[0]))
    monkeypatch.setattr(sys, "argv", ["large_routes.py", "--circuits", "rlc-mesh-5-columns"])
    assert lr.main() == 1
    assert capsys.readouterr().err == (
        "5×5 mesh columns: the relation fold disagrees with `blackbox`\n")


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _canned_run(check_ms, rounds, correct=True):
    """The stdout of a ``bench/run.py`` run: summary lines, then the JSON."""
    result = {
        "correct": correct,
        "attempted": 10,
        "failed": 0 if correct else 1,
        "metrics": {"check_p50_ms": {"value": check_ms, "unit": "ms"},
                    "rounds": {"value": rounds, "unit": "count"}},
    }
    return f"workload corpus, seed 1: 5 operations per round\ncheck: p50 {check_ms} ms\n" \
        + json.dumps(result) + "\n"


def test_bench_pairs_summarizes_canned_runs():
    bp = _load_script("bench_pairs")
    parent = [2.0, 1.9, 2.1, 1.8, 2.2]
    change = [1.5, 1.6, 1.4, 1.9, 1.5]
    pairs = [(bp.last_json(_canned_run(p, 10)), bp.last_json(_canned_run(c, 9 + k % 3)))
             for k, (p, c) in enumerate(zip(parent, change))]
    summary = bp.summarize(pairs, {"check_p50_ms": ("lower", 0.25), "rounds": ("higher", 0.1)})
    check = summary["metrics"]["check_p50_ms"]
    assert check["parent_median"] == 2.0 and check["change_median"] == 1.5
    assert check["parent_quartiles"] == pytest.approx((1.85, 2.15))
    assert check["change_quartiles"] == pytest.approx((1.45, 1.75))
    # The fourth pair is lost (1.9 against 1.8).
    assert check["pairs_won"] == 4 and check["pairs"] == 5
    assert check["parent"] == parent and check["change"] == change
    assert check["unit"] == "ms" and check["better"] == "lower"
    rounds = summary["metrics"]["rounds"]
    # Higher is better: only 11 beats 10; 9 loses twice and 10 ties twice.
    assert rounds["change"] == [9, 10, 11, 9, 10] and rounds["pairs_won"] == 1
    assert summary["all_correct"] and summary["failed"] == 0

    pairs[2] = (pairs[2][0], bp.last_json(_canned_run(1.4, 11, correct=False)))
    summary = bp.summarize(pairs, {"check_p50_ms": ("lower", 0.25)})
    assert not summary["all_correct"] and summary["failed"] == 1
    assert bp.quartiles([3.0]) == (3.0, 3.0)
    with pytest.raises(ValueError):
        bp.last_json("\n\n")


def test_bench_pairs_reads_the_end_to_end_metrics():
    bp = _load_script("bench_pairs")
    metrics = bp.end_to_end_metrics()
    assert "check_p50_ms" in metrics and "peak_rss_mb" in metrics
    assert {better for better, _ in metrics.values()} <= {"lower", "higher"}
    assert all(0 < bound < 1 for _, bound in metrics.values())


def _verdicts(parent, change, better="lower", bound=0.25):
    """The summary of canned pairs with these ``check_p50_ms`` values."""
    bp = _load_script("bench_pairs")
    pairs = [(bp.last_json(_canned_run(p, 10)), bp.last_json(_canned_run(c, 10)))
             for p, c in zip(parent, change)]
    m = bp.summarize(pairs, {"check_p50_ms": (better, bound)})["metrics"]["check_p50_ms"]
    return m, bp.report("check_p50_ms", m)


def test_bench_pairs_flags_a_gain_and_a_bound():
    parent = [2.0, 2.1, 1.9, 2.05, 1.95, 2.0, 2.02, 1.98, 2.1, 1.9]
    # A met gain: 10 of 10 pairs, a gap of 0.5 against a parent IQR of 0.125.
    m, line = _verdicts(parent, [p - 0.5 for p in parent])
    assert m["pairs_won"] == 10 and m["gain"] and m["within_bound"]
    assert m["parent_quartiles"][1] - m["parent_quartiles"][0] == pytest.approx(0.125)
    assert line.startswith("check_p50_ms: 2 [1.938, 2.062] -> 1.5 ms (-25.0%), 10 of 10 pairs won")
    assert line.endswith("gain yes, within bound 0.25: yes")
    # The same gap won in only 8 of 10 pairs is no gain.
    change = [p - 0.5 for p in parent[:8]] + [p + 0.01 for p in parent[8:]]
    m, _ = _verdicts(parent, change)
    assert m["pairs_won"] == 8 and not m["gain"]
    # Every pair won, but by a median gap of 0.05, inside the parent's IQR.
    m, line = _verdicts(parent, [p - 0.05 for p in parent])
    assert m["pairs_won"] == 10 and not m["gain"] and m["within_bound"]
    assert "gain no" in line
    # 30% worse exceeds a 0.25 bound; 20% worse does not.
    m, line = _verdicts(parent, [p * 1.3 for p in parent])
    assert not m["within_bound"] and line.endswith("within bound 0.25: NO")
    m, _ = _verdicts(parent, [p * 1.2 for p in parent])
    assert m["within_bound"] and not m["gain"]
    # Where higher is better, a fall is what the bound limits.
    m, _ = _verdicts(parent, [p * 0.85 for p in parent], better="higher", bound=0.1)
    assert m["pairs_won"] == 0 and not m["within_bound"]
    m, _ = _verdicts(parent, [p * 1.2 for p in parent], better="higher", bound=0.1)
    assert m["gain"] and m["within_bound"]


def test_bench_pairs_runs_each_checkout_without_writing_bytecode(tmp_path, monkeypatch):
    bp = _load_script("bench_pairs")
    calls = []

    def fake_run(argv, **kw):
        calls.append((argv, kw))
        metrics = {name: {"value": 1.0, "unit": "s"} for name in bp.end_to_end_metrics()}
        result = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(result) + "\n", stderr="")

    monkeypatch.setattr(bp.subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "")
    monkeypatch.setenv("BENCH_PAIRS_PROBE", "kept")
    out = tmp_path / "pairs.json"
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "old", "new", "--workload", "corpus",
                                      "--seeds", "1,2", "--seconds", "0.1", "--out", str(out),
                                      "--note", "old against new."])
    bp.main()
    # Two pairs, the parent first in the first and the change first in the second.
    assert [str(kw["cwd"]) for _, kw in calls] == ["old", "new", "new", "old"]
    for argv, kw in calls:
        assert argv[1:] == ["bench/run.py", "--workload", "corpus", "--seed", argv[5],
                            "--seconds", "0.1"]
        assert kw["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
        assert kw["env"]["BENCH_PAIRS_PROBE"] == "kept"
    doc = json.loads(out.read_text())
    assert doc["note"] == "old against new. Each run had PYTHONDONTWRITEBYTECODE=1 set."
    assert doc["workloads"]["corpus"]["seeds"] == [1, 2]
