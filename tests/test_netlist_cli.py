import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from blackbox import cli, netlist
from blackbox.cli import main
from blackbox.errors import (
    NonPositiveImpedance,
    ParseError,
    UnknownNode,
)
from blackbox.circuits import circuit
from blackbox.corel import merge_map
from blackbox.field import MAX_DIGITS, MAX_EXPONENT, from_rat, impedance, parse_ratfunc
from blackbox.netlist import parse_netlist, print_netlist

from util import rand_circuit, rand_composable_pair, reference_component

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


def _merge_path(g, wires):
    """The circuit that ``parse_netlist``'s merge path makes of the netlist
    of ``g`` with a ``W`` line for each pair of ``wires``."""
    j = merge_map(g.graph.nodes, wires)
    return circuit({j[n] for n in g.graph.nodes}, [(j[a], j[b], z) for a, b, z in g.graph.edges],
                   [j[p] for p in g.inputs], [j[p] for p in g.outputs])


def test_a_netlist_parses_as_the_merge_path_does_with_and_without_wires():
    rng = random.Random(2802)
    for k in range(200):
        g = rand_circuit(rng)
        nodes = g.graph.nodes
        wires = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(k % 3)]
        text = print_netlist(g) + "".join(f"W {a} {b}\n" for a, b in wires)
        assert parse_netlist(text) == _merge_path(g, wires), text
    # Without W lines the result is the merge path's, which one wire from a
    # node to itself forces.
    text = print_netlist(g)
    assert parse_netlist(text) == parse_netlist(text + f"W {nodes[0]} {nodes[0]}\n") == g


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
    for line in ("Z a b", "Z a b s 1", "W a", "W a b a"):
        with pytest.raises(ParseError, match="^line 2: [ZW] needs"):
            parse_netlist(f"nodes: a b\n{line}\n", allow_raw_z=True)


def test_raw_impedance_gate():
    text = "nodes: a b\ninputs: a\noutputs: b\nZ a b (s^2+1)/(s+2)\n"
    with pytest.raises(ParseError):
        parse_netlist(text)
    g = parse_netlist(text, allow_raw_z=True)
    z = g.graph.edges[0][2]
    assert z == parse_ratfunc("(s^2+1)/(s+2)")
    with pytest.raises(NonPositiveImpedance):
        parse_netlist("nodes: a b\nZ a b s-1\n", allow_raw_z=True)
    # A pole at a sample point (s = 1) is rejected with its line, like any other Z.
    with pytest.raises(NonPositiveImpedance, match=r"^line 2: .*s = 1 is a pole"):
        parse_netlist("nodes: a b\nZ a b 1/(s^2-2*s+1)\n", allow_raw_z=True)


def test_raw_impedance_size_caps(tmp_path, capsys):
    head = "nodes: a b\ninputs: a\noutputs: b\n"
    g = parse_netlist(head + f"Z a b s^{MAX_EXPONENT}+1\n", allow_raw_z=True)
    assert len(g.graph.edges[0][2].n) - 1 == MAX_EXPONENT
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
    assert [z for _, _, z in g.graph.edges] == [
        from_rat(10**MAX_DIGITS),
        from_rat(Fraction(1, 10**MAX_DIGITS)),
    ]


def _outcome(call):
    """What ``call`` returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def test_component_values_read_as_the_general_reader_reads_them():
    # '²' is a digit to str.isdigit but not to int(); '٣' and '３' are
    # decimal digits that int() and Fraction both read as 3.
    at, over = "7" * MAX_DIGITS, "7" * (MAX_DIGITS + 1)
    tokens = ["7", "007", "4/2", "12/18", "+3", "-2", "0", "0/5", "3/0", "1.5", "2e3", "1_0",
              "٣", "３", "½", "²", "/5", "5/", "1/2/3",
              at, over, f"{at}/3", f"3/{at}", f"{over}/3", f"3/{over}"]
    for kind in "RLC":
        for tok in tokens:
            got = _outcome(lambda: parse_netlist(f"nodes: a b\n{kind} a b {tok}\n").graph.edges[0][2])
            assert got == _outcome(lambda: reference_component(kind, tok, 2)), (kind, tok)


def test_ascii_integer_values_skip_the_general_reader(monkeypatch):
    def refuse(text):
        raise AssertionError(f"parse_rational called on {text!r}")

    monkeypatch.setattr(netlist, "parse_rational", refuse)
    g = parse_netlist("nodes: a b c\nR a b 4/6\nL b c 007\nC a c 3/1\n")
    assert [z for _, _, z in g.graph.edges] == [
        impedance("R", Fraction(2, 3)), impedance("L", 7), impedance("C", 3),
    ]


def test_print_round_trip_keeps_component_kinds():
    g = parse_netlist(RLC)
    text = print_netlist(g)
    assert "R a b 2" in text and "L b c 3" in text and "C c d 1/2" in text
    assert parse_netlist(text) == g
    # Each kind at 30-digit numerators and denominators, and below 1.
    p, q, tiny = "123456789012345678901234567891", "987654321098765432109876543211", "1" + "0" * 25
    for kind in "RLC":
        for value in (f"{p}/{q}", f"{q}/{p}", q, f"3/{tiny}"):
            g = circuit(["a", "b"], [("a", "b", impedance(kind, Fraction(value)))], ["a"], ["b"])
            text = print_netlist(g)
            assert text.splitlines()[-1] == f"{kind} a b {value}"
            assert parse_netlist(text) == g


def test_print_round_trip_random():
    rng = random.Random(1)
    for _ in range(20):
        g = rand_circuit(rng, max_nodes=5, max_edges=5)
        assert parse_netlist(print_netlist(g)) == g


def test_a_label_with_a_comment_mark_is_rejected():
    # Printed, "a#b" would cut its netlist line short at the comment.
    with pytest.raises(ValueError, match="bad node label 'a#b'"):
        circuit(["a#b", "z"], [("a#b", "z", impedance("R", 1))], ["a#b"], ["z"])


@given(st.data())
def test_print_parse_round_trip_of_odd_labels(data):
    labels = data.draw(st.lists(st.text("abzXY09'~:-éΩ#", min_size=1, max_size=4),
                                min_size=1, max_size=5, unique=True))
    node = st.sampled_from(labels)
    edges = [(a, b, impedance(kind, Fraction(num, den))) for a, b, kind, num, den in data.draw(
        st.lists(st.tuples(node, node, st.sampled_from("RLC"), st.integers(1, 4),
                           st.integers(1, 3)), max_size=4))]
    inputs = data.draw(st.lists(node, max_size=2))
    outputs = data.draw(st.lists(node, max_size=2))
    if any("#" in lab for lab in labels):
        with pytest.raises(ValueError, match="bad node label"):
            circuit(labels, edges, inputs, outputs)
    else:
        g = circuit(labels, edges, inputs, outputs)
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
    assert capsys.readouterr().out == ""
    assert main(["eval", rlc, "--at", "one"]) == 2


def test_cli_eval_names_the_columns_by_position(tmp_path, capsys):
    two_in = _write(tmp_path, "two_in.net",
                    "nodes: a b c\ninputs: a b\noutputs: c\nR a c 1\nC b c 2\n")
    assert main(["eval", two_in, "--at", "1"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == "columns: phi(x0) phi(x1) i(x0) i(x1) phi(y0) i(y0)"


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


NET = "<net>"  # stands for a netlist file in the argv below
VERB_ARGS = {  # each verb's positionals, then its options, in a valid call
    "blackbox": ([NET], ["--json"]),
    "compose": ([NET, NET], []),
    "tensor": ([NET, NET], []),
    "dagger": ([NET], []),
    "eliminate": ([NET], []),
    "equiv": ([NET, NET], []),
    "eval": ([NET], ["--at", "1"]),
    "check": ([NET], []),
}
PARITY_CASES = {
    **{f"{verb} {case}": argv
       for verb, (pos, opts) in VERB_ARGS.items()
       for case, argv in [
           ("valid", [verb, *pos, *opts]),
           ("-h", [verb, "-h"]),
           ("missing positional", [verb, *pos[:-1], *opts]),
           ("extra positional", [verb, *pos, "extra.net", *opts]),
           ("unknown option", [verb, *pos, "--bogus", *opts]),
       ]},
    "no argv": [],
    "-h": ["-h"],
    "unknown verb": ["frobnicate", NET],
    "--allow-raw-z before the verb": ["--allow-raw-z", "blackbox", NET],
    "--allow-raw-z after the verb": ["blackbox", NET, "--allow-raw-z"],
    "a file after --": ["blackbox", "--", NET],
    "an abbreviated option": ["blackbox", NET, "--js"],
}


@pytest.mark.parametrize("argv", PARITY_CASES.values(), ids=PARITY_CASES.keys())
def test_main_parses_argv_as_the_full_parser_does(argv, tmp_path, capsys, monkeypatch):
    net = _write(tmp_path, "series.net", SERIES)
    argv = [net if a == NET else a for a in argv]
    try:
        want = cli._build().parse_args(argv)
    except SystemExit as exc:
        want_out = capsys.readouterr()
        with pytest.raises(SystemExit) as got:
            main(argv)
        assert got.value.code == exc.code
        assert capsys.readouterr() == want_out
        assert exc.code == 0 or want_out.out == ""
        return
    seen = []
    parse = cli._parse
    monkeypatch.setattr(cli, "_parse", lambda a: seen.append(parse(a)) or seen[0])
    if main(argv) == 2:  # check with no file fails after parsing
        assert capsys.readouterr().out == ""
    assert vars(seen[0]) == vars(want)


_OPTIONS = sorted({o for verb in cli._VERBS.values() for o in (*verb.switches, *verb.valued)})
_ODD_WORDS = ["-h", "--help", "--js", "--as", "--a", "--al", "--co", "--at=1", "--json=x",
              "--corpus=d", "--", "-", "-1", "-x", ""]
_PLAIN_WORDS = [*cli._VERBS, "net", "1/2", "d"]


@st.composite
def _verb_argv(draw):
    """A well-formed argv of a random verb, its pieces in a random order,
    with up to two words inserted.  Each inserted word is, as likely, one of
    the verb's exact option strings, a short abbreviation of one ("--a" is
    ambiguous for ``blackbox`` and ``eval``), an odd word or a plain word."""
    verb = draw(st.sampled_from(list(cli._VERBS)))
    spec = cli._VERBS[verb]
    plain = st.sampled_from(_PLAIN_WORDS)
    pieces = [[draw(plain)] for _ in range(spec.min_positionals)]
    pieces += [[o] for o in spec.switches if draw(st.booleans())]
    pieces += [[o, draw(plain)] for o, dest in spec.valued.items()
               if dest in spec.required or draw(st.booleans())]
    argv = [word for piece in draw(st.permutations(pieces)) for word in piece]
    own = [*spec.switches, *spec.valued]
    short = sorted({o[:k] for o in own for k in (3, 4) if k < len(o)})
    word = (st.sampled_from(own) | st.sampled_from(short) | st.sampled_from(_ODD_WORDS)
            | st.sampled_from(_PLAIN_WORDS + _OPTIONS))
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(0, len(argv))), draw(word))
    return [verb, *argv]


def _main_parse(argv):
    """The namespace that ``main(argv)`` parses; its handler is not run."""
    seen = []
    parse = cli._parse

    def recording(a):
        seen.append(parse(a))
        return SimpleNamespace(fn=lambda args: 0)

    with mock.patch.object(cli, "_parse", recording):
        main(argv)
    return seen[0]


def _parsed(parse, argv):
    """``parse(argv)``: its namespace's fields or its exit status, then
    what it printed on stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@seed(2803)
@settings(max_examples=1000)
@given(_verb_argv()
       | st.lists(st.sampled_from(_PLAIN_WORDS + _OPTIONS + _ODD_WORDS), max_size=4))
def test_main_parses_any_argv_from_the_verb_vocabulary_as_the_full_parser_does(argv):
    # Verbs, every exact option string, abbreviations, --x=y, --, -, -1, ""
    # and plain words: the table's reader must take an argv exactly as
    # argparse does, or leave it to argparse.
    assert _parsed(_main_parse, argv) == _parsed(cli._parser().parse_args, argv)


def test_main_reads_sys_argv_when_given_none(tmp_path, capsys, monkeypatch):
    series = _write(tmp_path, "series.net", SERIES)
    assert main(["blackbox", series, "--json"]) == 0
    want = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["blackbox", "blackbox", series, "--json"])
    assert main() == 0
    assert capsys.readouterr().out == want


def test_cli_check_and_corpus(tmp_path, capsys):
    _write(tmp_path, "series.net", SERIES)
    _write(tmp_path, "rlc.net", RLC)
    assert main(["check", "--corpus", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("ok ") == 2
    assert main(["check", str(tmp_path / "series.net")]) == 0


def test_cli_check_corpus_with_a_failing_file_prints_nothing_and_names_it_once(tmp_path, capsys):
    # The passing file sorts first: its "ok" line must not reach stdout.
    _write(tmp_path, "a.net", SERIES)
    bad = _write(tmp_path, "b.net", "nodes: a\nR a b 1\n")
    assert main(["check", "--corpus", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: line 2: node 'b' not declared\n"
    # A file that is not UTF-8 is named once, by the reader's own message.
    Path(bad).write_bytes(b"nodes: a\xff\n")
    assert main(["check", "--corpus", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: not UTF-8 text at byte 8\n"


def test_cli_check_refuses_a_file_and_a_corpus_together(tmp_path, capsys):
    series = _write(tmp_path, "series.net", SERIES)
    assert main(["check", series, "--corpus", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert series in captured.err and str(tmp_path) in captured.err
    assert main(["check"]) == 2
    assert capsys.readouterr().err == "error: check needs a file or --corpus\n"
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["check", "--corpus", str(empty)]) == 2
    assert capsys.readouterr().err == f"error: no .net files under {empty}\n"


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


def test_cli_check_names_a_route_that_builds_no_lagrangian_relation(tmp_path, capsys, monkeypatch):
    from blackbox.field import ONE
    from blackbox.lagrel import LagrangianRelation, port_space

    def not_lagrangian(g):
        return LagrangianRelation(port_space(1), port_space(1), [{0: ONE}])

    series = _write(tmp_path, "series.net", SERIES)
    routes = (("blackbox_categorical", "categorical black box"), ("blackbox", "elimination route"),
              ("oracle_behavior", "Kirchhoff/Ohm oracle"))
    for route, name in routes:
        with monkeypatch.context() as patch:
            patch.setattr(cli, route, not_lagrangian)
            assert main(["check", series]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {series}: {name} built no Lagrangian relation (generators do not "
            "span a Lagrangian subspace (dim 1, expected 2))\n"
        )
    assert main(["check", series]) == 0


def test_cli_check_names_the_first_differing_entry(tmp_path, capsys, monkeypatch):
    resistor = _write(tmp_path, "r2.net", RESISTOR_2)
    three_ohms = cli.blackbox(parse_netlist(RESISTOR_2.replace("R a c 2", "R a c 3")))
    monkeypatch.setattr(cli, "oracle_behavior", lambda g: three_ohms)
    assert main(["check", resistor]) == 2
    assert capsys.readouterr().err == (
        f"error: {resistor}: Kirchhoff/Ohm oracle disagrees with the categorical "
        "black box (row 1, column phi(y0): 3, categorical 2)\n"
    )
    two_inputs = cli.blackbox(parse_netlist(RESISTOR_2.replace("inputs: a", "inputs: a a")))
    monkeypatch.setattr(cli, "oracle_behavior", lambda g: two_inputs)
    assert main(["check", resistor]) == 2
    assert capsys.readouterr().err == (
        f"error: {resistor}: Kirchhoff/Ohm oracle disagrees with the categorical "
        "black box (dimension 3, categorical 2)\n"
    )


def test_first_difference_in_port_signs_alone():
    from blackbox.lagrel import identity_relation

    plus, minus = identity_relation((1,)), identity_relation((-1,))
    assert plus.sub == minus.sub and plus != minus
    assert cli._first_difference(minus, plus) == "port signs"


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
    # A file that is not UTF-8 is refused by name, not with a traceback.
    latin = tmp_path / "latin.net"
    latin.write_bytes(b"nodes: a b\xff\ninputs: a\noutputs: b\nR a b 1\n")
    for verb in ("blackbox", "check"):
        assert main([verb, str(latin)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {latin}: not UTF-8 text at byte 10\n"


def _piped(argv, data):
    """Run the CLI in a subprocess under the C locale with ``data`` on stdin."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), LC_ALL="C")
    env.pop("PYTHONIOENCODING", None)
    env.pop("PYTHONUTF8", None)
    return subprocess.run([sys.executable, "-m", "blackbox.cli", *argv], input=data,
                          env=env, capture_output=True, timeout=60)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, blackbox.cli; "
            "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_a_well_formed_argv_never_imports_argparse(tmp_path):
    net = _write(tmp_path, "series.net", SERIES)
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, blackbox.cli; "
            f"code = blackbox.cli.main(['blackbox', {net!r}, '--json']); "
            "print(code, 'argparse' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"
    # Help still comes from argparse.
    proc = _piped(["-h"], b"")
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout.startswith(b"usage: blackbox [-h]")


def test_check_names_piped_input_standard_input():
    proc = _piped(["check", "-"], b"nodes: a\nR a b 1\n")
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == b"error: standard input: line 2: node 'b' not declared\n"


def test_piped_input_is_read_as_utf8_whatever_the_locale(tmp_path):
    latin = b"nodes: a b\xff\ninputs: a\noutputs: b\xff\nR a b\xff 1\n"
    for verb in ("blackbox", "check"):
        proc = _piped([verb, "-"], latin)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == b"error: standard input: not UTF-8 text at byte 10\n"
    text = "nodes: a n\u0153ud\ninputs: a\noutputs: n\u0153ud\nR a n\u0153ud 2\n"
    path = tmp_path / "noeud.net"
    path.write_bytes(text.encode("utf-8"))
    piped = _piped(["blackbox", "-", "--json"], text.encode("utf-8"))
    from_file = _piped(["blackbox", str(path), "--json"], b"")
    assert piped.returncode == from_file.returncode == 0
    assert piped.stdout == from_file.stdout
    assert json.loads(piped.stdout)["outputs"] == ["n\u0153ud"]


def test_a_leading_byte_order_mark_is_ignored(tmp_path, capsys):
    # The same netlist with and without a BOM prints the same, from a file
    # and through a pipe.
    plain = SERIES.encode("utf-8")
    marked = b"\xef\xbb\xbf" + plain
    path = tmp_path / "series.net"
    for verb in (["blackbox"], ["blackbox", "--json"], ["check"], ["eliminate"]):
        outs = []
        for data in (plain, marked):
            path.write_bytes(data)
            assert main([verb[0], str(path), *verb[1:]]) == 0
            outs.append(capsys.readouterr())
        assert outs[0] == outs[1]
    piped = [_piped(["blackbox", "-", "--json"], data) for data in (plain, marked)]
    assert piped[0].returncode == piped[1].returncode == 0
    assert piped[0].stdout == piped[1].stdout and piped[1].stderr == b""


def test_a_bad_byte_after_a_byte_order_mark_is_reported_at_its_raw_offset(tmp_path, capsys):
    bad = b"\xef\xbb\xbfab\xff"
    proc = _piped(["blackbox", "-"], bad)
    assert proc.returncode == 2
    assert proc.stderr == b"error: standard input: not UTF-8 text at byte 5\n"
    path = tmp_path / "bad.net"
    path.write_bytes(bad)
    assert main(["blackbox", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: not UTF-8 text at byte 5\n"


def test_cli_eval_point_caps(tmp_path, capsys):
    rlc = _write(tmp_path, "rlc.net", "nodes: a b c\ninputs: a\noutputs: c\n"
                 "R a b 1\nL b c 2\nC a c 1/3\n")
    assert main(["eval", rlc, "--at", "1e5000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "exponent" in captured.err
    assert main(["eval", rlc, "--at", "1e3"]) == 0
    assert capsys.readouterr().out.startswith("columns: ")
    # A point inside the caps can still give a value with more digits than
    # the interpreter prints: a degree-6 entry at 10^1000.
    lines = ["nodes: gnd " + " ".join(f"n{k}" for k in range(7)), "inputs: n0", "outputs: gnd"]
    lines += [f"R n{k} n{k + 1} 1\nC n{k + 1} gnd 1" for k in range(6)]
    ladder = _write(tmp_path, "ladder.net", "\n".join(lines) + "\n")
    code = main(["eval", ladder, "--at", "1e1000"])
    captured = capsys.readouterr()
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 6000:
        assert code == 2 and captured.out == "" and "digits" in captured.err
    else:
        assert code == 0 and captured.out.startswith("columns: ")


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


@pytest.fixture
def default_digit_limit():
    """The interpreter's default cap on the digits ``str`` gives an int."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter prints ints of any length")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def test_values_too_long_to_print_exit_2_with_nothing_printed(tmp_path, capsys,
                                                              default_digit_limit):
    # A legal netlist whose reduced coefficients pass the 4300-digit limit.
    nodes = "abcdefg"
    lines = ["nodes: " + " ".join(nodes), "inputs: a", "outputs: g"]
    lines += [f"R {x} {y} {'9' * 1000}" for x, y in zip(nodes, nodes[1:])]
    lines += [f"R {x} g {'9' * 999}7" for x in nodes[:-1]]
    assert len(lines) == 15
    net = _write(tmp_path, "long.net", "\n".join(lines) + "\n")
    for argv in (["blackbox"], ["blackbox", "--json"], ["blackbox", "--as-impedance"],
                 ["eliminate"], ["eval", "--at", "1"]):
        assert main([*argv, net]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == "error: a value has too many digits to print\n", argv
    assert main(["check", net]) == 0
    assert capsys.readouterr().out == f"ok {net}\n"


_ODD_TOKENS = ["0", "-1", "1/0", "7" * (MAX_DIGITS + 1), "9" * MAX_DIGITS, "s^1001", "s^20+1",
               "(s+1)/(s^2+3)", "#", "a#b", "1e30", "-s"]


def _odd_netlist(rng, g):
    """The netlist of ``g`` with a few tokens, mostly component values,
    replaced by odd ones, and maybe a raw ``Z`` line, an unknown directive or
    a stray ``#`` added."""
    lines = [line.split() for line in print_netlist(g).splitlines()]
    edges = [words for words in lines if len(words) == 4]
    for _ in range(rng.choice([0, 0, 0, 1, 1, 2, 3])):
        words = rng.choice(edges) if edges and rng.random() < 0.7 else rng.choice(lines)
        k = len(words) - 1 if words in edges else rng.randrange(len(words))
        words[k] = rng.choice(_ODD_TOKENS)
    labels = g.graph.nodes
    extra = [f"Z {rng.choice(labels)} {rng.choice(labels)} s^{rng.randint(0, 20)}+{rng.randint(0, 2)}",
             f"Q {labels[0]} {labels[-1]} 1", f"R {labels[0]} # {labels[-1]} 1"]
    for line in extra:
        if rng.random() < 0.1:
            lines.insert(rng.randint(1, len(lines)), line.split())
    return "\n".join(" ".join(words) for words in lines) + "\n"


def test_odd_netlists_give_an_answer_or_a_clean_exit_2(tmp_path, capsys, default_digit_limit):
    verbs = [["blackbox"], ["blackbox", "--json"], ["blackbox", "--as-impedance"],
             ["compose", None], ["tensor", None], ["dagger"], ["eliminate"], ["equiv", None],
             ["eval", "--at", "1/2"], ["eval", "--at", "0"], ["check"]]
    rng = random.Random(2020)
    codes = set()
    for case in range(22 * len(verbs)):
        g1, g2 = rand_composable_pair(rng, max_nodes=4, max_edges=4)
        first = _write(tmp_path, "first.net", _odd_netlist(rng, g1))
        odd = rng.random() < 0.3
        second = _write(tmp_path, "second.net", _odd_netlist(rng, g2) if odd else print_netlist(g2))
        verb, *rest = verbs[case % len(verbs)]
        argv = [verb, first, *(second if x is None else x for x in rest)]
        if rng.random() < 0.7:
            argv.append("--allow-raw-z")
        try:
            code = main(argv)
        except Exception as exc:  # any escape from main is the failure
            pytest.fail(f"{argv} raised {exc!r} on\n{Path(first).read_text()}")
        captured = capsys.readouterr()
        assert code in (0, 1, 2), argv
        if code == 2:
            assert captured.out == "", argv
        codes.add(code)
    assert codes == {0, 1, 2}
