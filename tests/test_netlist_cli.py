import json
import random
from fractions import Fraction

import pytest

from blackbox import cli
from blackbox.cli import main
from blackbox.errors import (
    NonPositiveImpedance,
    ParseError,
    UnknownNode,
)
from blackbox.field import MAX_DIGITS, MAX_EXPONENT, Witness, parse_ratfunc
from blackbox.netlist import parse_netlist, print_netlist

from util import rand_circuit

SERIES = """\
# two unit resistors in series
nodes: a b c
inputs: a
outputs: c
R a b 1
R b c 1
"""

RESISTOR_2 = """\
nodes: a c
inputs: a
outputs: c
R a c 2
"""

RLC = """\
nodes: a b c d
inputs: a
outputs: d
R a b 2
L b c 3
C c d 1/2
"""


def test_parse_series_netlist():
    g = parse_netlist(SERIES)
    assert g.graph.nodes == ("a", "b", "c")
    assert g.inputs == ("a",) and g.outputs == ("c",)
    assert len(g.graph.edges) == 2


def test_wire_merges_nodes():
    g = parse_netlist("nodes: a b\ninputs: a\noutputs: b\nW a b\n")
    assert g.graph.nodes == ("a",)
    assert g.inputs == g.outputs == ("a",)


def test_wire_merges_are_transitive():
    g = parse_netlist(
        "nodes: a b c d\ninputs: a\noutputs: d\nR c d 1\nW a b\nW b c\n"
    )
    assert g.graph.nodes == ("a", "d")
    assert g.graph.edges[0][:2] == ("a", "d")
    assert g.inputs == ("a",) and g.outputs == ("d",)


def test_parse_errors():
    with pytest.raises(NonPositiveImpedance):
        parse_netlist("nodes: a b\nR a b 0\n")
    with pytest.raises(UnknownNode):
        parse_netlist("nodes: a\nR a z 1\n")
    with pytest.raises(UnknownNode):
        parse_netlist("nodes: a\ninputs: q\n")
    with pytest.raises(ParseError) as err:
        parse_netlist("nodes: a b\nQ a b 1\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_netlist("nodes: a b\nR a b\n")
    with pytest.raises(ParseError):
        parse_netlist("nodes: a a\n")


def test_raw_impedance_gate():
    text = "nodes: a b\ninputs: a\noutputs: b\nZ a b (s^2+1)/(s+2)\n"
    with pytest.raises(ParseError):
        parse_netlist(text)
    g = parse_netlist(text, allow_raw_z=True)
    z = g.graph.edges[0][2]
    assert z == parse_ratfunc("(s^2+1)/(s+2)")
    assert z.witness is Witness.SAMPLED
    with pytest.raises(NonPositiveImpedance):
        parse_netlist("nodes: a b\nZ a b s-1\n", allow_raw_z=True)


def test_raw_impedance_size_caps(tmp_path, capsys):
    head = "nodes: a b\ninputs: a\noutputs: b\n"
    g = parse_netlist(head + f"Z a b s^{MAX_EXPONENT}+1\n", allow_raw_z=True)
    assert g.graph.edges[0][2].num.degree() == MAX_EXPONENT
    over = _write(tmp_path, "over.net", head + f"Z a b s^{MAX_EXPONENT + 1}\n")
    assert main(["blackbox", over, "--allow-raw-z"]) == 2
    assert "exponent" in capsys.readouterr().err
    long = _write(tmp_path, "long.net", head + "Z a b " + "7" * 5000 + "\n")
    assert main(["blackbox", long, "--allow-raw-z"]) == 2
    assert "digits" in capsys.readouterr().err
    with pytest.raises(ParseError):
        parse_ratfunc("7" * 5000 + "*s")


def test_component_value_caps(tmp_path, capsys):
    head = "nodes: a b\ninputs: a\noutputs: b\n"
    for value in ("1e40000", "1e-40000", "1e1_0000", "9" * 5000):
        net = _write(tmp_path, "big.net", head + f"R a b {value}\n")
        assert main(["blackbox", net, "--as-impedance"]) == 2
        assert "error:" in capsys.readouterr().err
    for value, z in (("1e3", "1000"), ("2.5", "5/2"), ("3/4", "3/4")):
        net = _write(tmp_path, "ok.net", head + f"R a b {value}\n")
        assert main(["blackbox", net, "--as-impedance"]) == 0
        assert capsys.readouterr().out.strip() == z
    g = parse_netlist(head + f"R a b 1e{MAX_DIGITS}\nR a b 1e-{MAX_DIGITS}\n")
    assert [z.as_rat() for _, _, z in g.graph.edges] == [
        10**MAX_DIGITS,
        Fraction(1, 10**MAX_DIGITS),
    ]


def test_print_round_trip_keeps_component_kinds():
    g = parse_netlist(RLC)
    text = print_netlist(g)
    assert "R a b 2" in text and "L b c 3" in text and "C c d 1/2" in text
    assert parse_netlist(text) == g


def test_print_round_trip_random():
    rng = random.Random(1)
    for _ in range(20):
        g = rand_circuit(rng, max_nodes=5, max_edges=5)
        assert parse_netlist(print_netlist(g)) == g


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_equiv_and_blackbox(tmp_path, capsys):
    series = _write(tmp_path, "series.net", SERIES)
    single = _write(tmp_path, "single.net", RESISTOR_2)
    assert main(["equiv", series, single]) == 0
    rlc = _write(tmp_path, "rlc.net", RLC)
    assert main(["equiv", series, rlc]) == 1

    assert main(["blackbox", rlc, "--as-impedance"]) == 0
    out = capsys.readouterr().out.strip().splitlines()[-1]
    assert out == "(3*s^2+2*s+2)/(s)"

    assert main(["blackbox", series, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["generators"] == [["1", "0", "1", "0"], ["0", "1", "2", "1"]]


def test_cli_eliminate_and_eval(tmp_path, capsys):
    series = _write(tmp_path, "series.net", SERIES)
    assert main(["eliminate", series]) == 0
    out = capsys.readouterr().out
    assert "P = (1/2)(psi_a - psi_b)^2 + (1/2)(psi_b - psi_c)^2" in out
    assert "Q = (1/4)(psi_a - psi_c)^2" in out

    rlc = _write(tmp_path, "rlc.net", RLC)
    assert main(["eval", rlc, "--at", "1"]) == 0
    out = capsys.readouterr().out
    assert "[0, 1, 7, 1]" in out
    assert main(["eval", rlc, "--at", "0"]) == 2  # pole of Z
    capsys.readouterr()
    assert main(["eval", rlc, "--at", "one"]) == 2


def test_cli_compose_dagger_tensor(tmp_path, capsys):
    series = _write(tmp_path, "series.net", SERIES)
    single = _write(tmp_path, "single.net", RESISTOR_2)

    assert main(["compose", series, single]) == 0
    comp_text = capsys.readouterr().out
    comp = parse_netlist(comp_text)
    assert len(comp.graph.nodes) == 4

    assert main(["tensor", series, single]) == 0
    tens = parse_netlist(capsys.readouterr().out)
    assert len(tens.graph.nodes) == 5

    assert main(["dagger", series]) == 0
    once = capsys.readouterr().out
    twice_circuit = parse_netlist(once)
    assert twice_circuit.inputs == ("c",) and twice_circuit.outputs == ("a",)
    # dagger twice restores the behavior
    d = _write(tmp_path, "dagger.net", once)
    assert main(["dagger", d]) == 0
    back = parse_netlist(capsys.readouterr().out)
    assert back == parse_netlist(SERIES)


def test_cli_parser_is_built_once_and_reused(tmp_path, capsys):
    series = _write(tmp_path, "series.net", SERIES)
    assert main(["blackbox", series, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["generators"]
    assert main(["eval", series, "--at", "1"]) == 0
    assert capsys.readouterr().out.startswith("columns: ")
    assert main(["blackbox", series, "--as-impedance"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert cli._parser() is cli._parser()


def test_cli_check_and_corpus(tmp_path, capsys):
    _write(tmp_path, "series.net", SERIES)
    _write(tmp_path, "rlc.net", RLC)
    assert main(["check", "--corpus", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("ok ") == 2
    assert main(["check", str(tmp_path / "series.net")]) == 0


def test_cli_check_names_the_disagreeing_route(tmp_path, capsys, monkeypatch):
    import blackbox.cli as cli

    series = _write(tmp_path, "series.net", SERIES)
    wrong = cli.blackbox(parse_netlist(RLC))
    monkeypatch.setattr(cli, "blackbox", lambda g: wrong)
    assert main(["check", series]) == 2
    assert "elimination route disagrees with the categorical black box" in (
        capsys.readouterr().err
    )
    monkeypatch.undo()
    monkeypatch.setattr(cli, "oracle_behavior", lambda g: wrong)
    assert main(["check", series]) == 2
    assert "Kirchhoff/Ohm oracle disagrees with the categorical black box" in (
        capsys.readouterr().err
    )


def test_cli_error_exit_codes(tmp_path, capsys):
    bad = _write(tmp_path, "bad.net", "nodes: a b\nR a b 0\n")
    assert main(["blackbox", bad]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["blackbox", str(tmp_path / "missing.net")]) == 2
    capsys.readouterr()
    two_out = _write(
        tmp_path, "two.net", "nodes: a b\noutputs: a b\nR a b 1\n"
    )
    series = _write(tmp_path, "series.net", SERIES)
    assert main(["compose", two_out, series]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_sample_point_override(tmp_path, capsys, monkeypatch):
    # s - 1 is positive at every sampled point > 1, so a custom grid lets it in.
    text = "nodes: a b\ninputs: a\noutputs: b\nZ a b s+1\n"
    net = _write(tmp_path, "z.net", text)
    monkeypatch.setenv("BLACKBOX_SAMPLE_POINTS", "2, 3, 10")
    assert main(["blackbox", net, "--allow-raw-z"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("BLACKBOX_SAMPLE_POINTS", "not a number")
    assert main(["blackbox", net, "--allow-raw-z"]) == 2


def test_equiv_is_an_equivalence_on_the_corpus(tmp_path):
    series = _write(tmp_path, "series.net", SERIES)
    single = _write(tmp_path, "single.net", RESISTOR_2)
    rlc = _write(tmp_path, "rlc.net", RLC)
    assert main(["equiv", series, series]) == 0
    assert main(["equiv", single, series]) == 0
    assert main(["equiv", rlc, rlc]) == 0
    # symmetric failure
    assert main(["equiv", rlc, series]) == 1
    assert main(["equiv", series, rlc]) == 1
