"""Self-tests of the benchmark: generators, the independent reference and the
tracing.  Run with ``python3 -m pytest -q bench``.
"""

import json
import re
import sys
import time
from fractions import Fraction

import pytest

import gen
import reference
import run

sys.path.insert(0, str(run.SRC))
SIGMAS = (Fraction(1, 3), Fraction(1), Fraction(5, 2))


def _netlists(workload):
    texts = [gen.netlist_text(net) for net in workload.circuits]
    texts += [gen.netlist_text(b) for chain in workload.chains for b in chain.blocks]
    return texts


def _structure(text):
    """The netlist with every component value blanked out."""
    return re.sub(r"^([RLC] \S+ \S+) \S+$", r"\1 ?", text, flags=re.M)


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_same_seed_gives_identical_netlists(name):
    make = gen.WORKLOADS[name]
    assert _netlists(make(5)) == _netlists(make(5))


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_second_seed_changes_values_only(name):
    make = gen.WORKLOADS[name]
    first, second = _netlists(make(5)), _netlists(make(6))
    assert first != second
    assert [_structure(t) for t in first] == [_structure(t) for t in second]


def test_corpus_covers_the_acceptance_oddities():
    nets = gen.corpus(1).circuits
    assert len(nets) == gen.CORPUS_SIZE
    assert all(len(n.nodes) <= 7 and len(n.edges) <= 8 for n in nets)
    assert any(len(set(n.inputs + n.outputs)) < len(n.inputs + n.outputs) for n in nets)
    assert any(a == b for n in nets for _, a, b, _ in n.edges)
    assert any(len({frozenset((a, b)) for _, a, b, _ in n.edges}) < len(n.edges) for n in nets)
    assert any(set(n.nodes) - {x for _, a, b, _ in n.edges for x in (a, b)} for n in nets)
    assert {len(n.inputs) for n in nets} == {0, 1, 2, 3}


def test_reference_series_and_parallel_resistors():
    series = gen.Net("s", ("a", "b", "c"),
                     (("R", "a", "b", Fraction(1)), ("R", "b", "c", Fraction(1))), ("a",), ("c",))
    parallel = gen.Net("p", ("a", "b"),
                       (("R", "a", "b", Fraction(2)), ("R", "a", "b", Fraction(2))), ("a",), ("b",))
    for sigma in SIGMAS:
        assert reference.driving_point_impedance(series, sigma) == 2
        assert reference.driving_point_impedance(parallel, sigma) == 1


def test_reference_rlc_series():
    r, l, c = Fraction(2), Fraction(3), Fraction(1, 2)
    rlc = gen.Net("rlc", ("a", "b", "c", "d"),
                  (("R", "a", "b", r), ("L", "b", "c", l), ("C", "c", "d", c)), ("a",), ("d",))
    for sigma in SIGMAS:
        z = sigma * l + r + 1 / (sigma * c)
        assert reference.driving_point_impedance(rlc, sigma) == z
        assert reference.eval_ratfunc("(3*s^2+2*s+2)/(s)", sigma) == z
    assert reference.swell("(3*s^2+2*s+2)/(s)") == (2, 2)
    assert reference.swell("-7/12") == (0, 4)


@pytest.mark.parametrize("name,size", [("corpus", 10), ("networks", 2), ("compose", 10)])
def test_tracing_on_a_slice_of_each_workload(tmp_path, name, size):
    """Traced and untraced rounds agree, every output is right, and each
    traced function the prediction table assigns to the workload is called."""
    bb, ops = run.setup(name, 1, tmp_path / "w")
    head = [op for kind in run.KINDS for op in [o for o in ops if o.kind == kind][:size]]
    result = run.trace_ops(name, bb, head)
    assert result.failures == [] and result.problems == []
    assert result.metrics["trace.overhead_ratio"][0] > 0


def test_times_are_scaled_by_the_calibrations_around_them(monkeypatch):
    monkeypatch.setattr(run, "calibrate", lambda: 2 * run.CAL_REF_S)
    ops = [run.Op("check", str(k), lambda: time.sleep(0.001), None, None) for k in range(3)]
    rnd = run.run_round(ops)
    assert rnd.seconds == [t / 2 for t in rnd.raw]


def test_an_output_that_changes_between_rounds_fails(monkeypatch):
    monkeypatch.setattr(run, "calibrate", lambda: run.CAL_REF_S)
    outputs = iter(range(10**6))
    ops = [run.Op("check", "same", lambda: 0, None, None),
           run.Op("check", "drifts", lambda: next(outputs), None, None)]
    rounds, repeats, failures = run.timed_rounds(ops, 0.05)
    assert len(rounds) > 1 and all(rnd.results is None for rnd in rounds[1:])
    assert repeats == [len(rounds) - 1, 0]
    assert failures == ["check drifts: output differs from the first round's"] * (len(rounds) - 1)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_refuses_to_run_without_engine_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "corpus", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
