import copy
import dataclasses
import pickle

import pytest

from oracles import dag_depth_oracle, layerize_reference, random_circuit
from qnocsim.circuit import Circuit, Gate, ParseError, depth, layerize, parse_circuit, serialize_circuit


def test_disjoint_gates_share_a_layer():
    c = Circuit.from_ops(4, [("cx", (0, 1)), ("cx", (2, 3))])
    assert layerize(c) == [[0, 1]]
    assert depth(c) == 1


def test_shared_qubit_forces_two_layers():
    c = Circuit.from_ops(3, [("cx", (0, 1)), ("cx", (1, 2))])
    assert layerize(c) == [[0], [1]]
    assert depth(c) == 2


def test_empty_circuit_has_no_layers():
    c = Circuit(1, ())
    assert layerize(c) == []
    assert depth(c) == 0


def test_single_gate_depth():
    assert depth(Circuit.from_ops(2, [("cx", (0, 1))])) == 1


def test_chain_on_one_qubit_serializes():
    k = 9
    c = Circuit.from_ops(1, [("h", (0,))] * k)
    assert depth(c) == k


def test_layering_respects_per_qubit_order():
    for seed in range(8):
        c = random_circuit(6, 40, seed)
        layer_of = {}
        for level, layer in enumerate(layerize(c)):
            for gate_id in layer:
                layer_of[gate_id] = level
        for i, g1 in enumerate(c.gates):
            for j, g2 in enumerate(c.gates[i + 1:], start=i + 1):
                if set(g1.qubits) & set(g2.qubits):
                    assert layer_of[i] < layer_of[j]


def test_no_layer_shares_an_operand():
    for seed in range(8):
        c = random_circuit(5, 30, seed)
        for layer in layerize(c):
            seen = set()
            for gate_id in layer:
                qubits = set(c.gates[gate_id].qubits)
                assert not (qubits & seen)
                seen |= qubits


_LAYERING_CASES = {
    **{f"random{seed}": random_circuit(6, 60, seed) for seed in range(20)},
    "one_qubit_only": random_circuit(3, 25, 5, two_qubit_bias=0.0),
    "h_u_cx": Circuit.from_ops(3, [("h", (0,)), ("u", (1,)), ("cx", (0, 1)), ("u", (2,)), ("h", (0,)), ("u", (2,))]),
    "empty": Circuit(2, ()),
}


@pytest.mark.parametrize("name", _LAYERING_CASES)
def test_layerize_matches_the_reference(name):
    c = _LAYERING_CASES[name]
    assert layerize(c) == layerize_reference(c)
    assert c.layers == tuple(map(tuple, layerize_reference(c)))
    assert depth(c) == len(layerize_reference(c))


def test_layerize_returns_new_lists_on_every_call():
    c = random_circuit(5, 30, 3)
    expected = layerize_reference(c)
    first = layerize(c)
    first[0].append(99)
    first.append([98])
    assert layerize(c) == expected
    assert c.layers == tuple(map(tuple, expected))
    assert layerize(c) is not layerize(c)


def test_reading_layers_changes_neither_equality_nor_hash():
    read, unread = random_circuit(5, 30, 4), random_circuit(5, 30, 4)
    assert read.layers
    assert read == unread
    assert hash(read) == hash(unread)


def test_replaced_circuit_gets_its_own_layers():
    c = Circuit.from_ops(3, [("cx", (0, 1)), ("cx", (1, 2))])
    assert c.layers == ((0,), (1,))
    d = dataclasses.replace(c, gates=(Gate("cx", (0, 1)), Gate("h", (2,))))
    assert d.layers == ((0, 1),)
    assert c.layers == ((0,), (1,))


def test_gate_and_circuit_survive_pickle_deepcopy_and_replace():
    c = random_circuit(5, 30, 6)
    assert c.layers
    for value in (c.gates[0], c):
        for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), dataclasses.replace(value)):
            assert clone == value
    assert pickle.loads(pickle.dumps(c)).layers == c.layers
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.gates[0].name = "h"


@pytest.mark.parametrize("seed", range(12))
def test_depth_matches_longest_path_oracle(seed):
    c = random_circuit(7, 50, seed)
    assert depth(c) == dag_depth_oracle(c)


def test_parse_minimal_document():
    c = parse_circuit("qubits 2\ncx 0 1\n")
    assert c.num_qubits == 2
    assert c.gates == (Gate("cx", (0, 1)),)
    assert c.gate_by_id(0) is c.gates[0]
    for gate_id in (-1, 1):  # ids are positions 0..n-1, never counted from the end
        with pytest.raises(KeyError):
            c.gate_by_id(gate_id)


def test_parse_comments_and_blank_lines():
    text = """
# adder fragment
qubits 3

h 0   # prepare
cx 0 1
u 2
"""
    c = parse_circuit(text)
    assert [g.name for g in c.gates] == ["h", "cx", "u"]


def test_parse_rejects_out_of_range_operand():
    with pytest.raises(ParseError) as err:
        parse_circuit("qubits 2\ncx 0 2\n")
    assert (err.value.line, str(err.value)) == (2, "line 2: operand 2 outside 0..1")


def test_parse_rejects_malformed_lines():
    cases = [
        ("qubits 2\ncx 0\n", 2),
        ("qubits 2\nzz 0 1\n", 2),
        ("qubits 2\ncx 0 x\n", 2),
        ("cx 0 1\n", 1),
        ("qubits 2\nqubits 2\n", 2),
        ("qubits 2\ncx 1 1\n", 2),
        ("qubits 4\ncx 0 \u0663\n", 2),  # ARABIC-INDIC DIGIT THREE, which int() reads as 3
        ("qubits 1_0\n", 1),
    ]
    for text, line in cases:
        with pytest.raises(ParseError) as err:
            parse_circuit(text)
        assert err.value.line == line
    with pytest.raises(ParseError):
        parse_circuit("# nothing\n")


# Characters str.splitlines() breaks at but a file read in text mode does not.
NOT_LINE_ENDS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", NOT_LINE_ENDS, ids=lambda c: f"U+{ord(c):04X}")
def test_parse_ends_lines_only_at_newline_and_carriage_return(char):
    """Inside a line such a character is whitespace between fields, or part of a comment."""
    text = f"qubits 2\r\ncx 0{char}1  # a{char}b\rh 1\n"
    assert parse_circuit(text).gates == (Gate("cx", (0, 1)), Gate("h", (1,)))
    with pytest.raises(ParseError) as err:
        parse_circuit(text.replace("h 1", "h 9"))
    assert str(err.value) == "line 3: operand 9 outside 0..1"


@pytest.mark.parametrize("seed", range(10))
def test_serialize_parse_roundtrip(seed):
    c = random_circuit(8, 35, seed)
    assert parse_circuit(serialize_circuit(c)) == c


def test_circuit_validation():
    cases = [
        (2, [("cx", (0, 0))], "gate 0 repeats an operand: (0, 0)"),
        (2, [("cx", (0, 2))], "gate 0 operand 2 outside 0..1"),
        (2, [("h", (0,)), ("cx", (1, 2))], "gate 1 operand 2 outside 0..1"),  # the second operand is the bad one
        (2, [("cx", (-1, 0))], "gate 0 operand -1 outside 0..1"),
        (2, [("u", (0,)), ("h", (5,))], "gate 1 operand 5 outside 0..1"),
        (2, [("h", (0, 1))], "gate 'h' takes 1 operand(s), got (0, 1)"),
        (2, [("cx", (0,))], "gate 'cx' takes 2 operand(s), got (0,)"),
        (2, [("tp", (0,))], "unknown gate name 'tp'"),  # no gate name is reserved for teleport markers
        # A bad gate after valid ones: each leaves the one- or two-operand fast
        # path and gets the same message as the generic checks give it.
        (3, [("h", (0,)), ("cx", (0, 1)), ("cx", (1, 1))], "gate 2 repeats an operand: (1, 1)"),
        (3, [("cx", (0, 1)), ("h", (1,)), ("cx", (0, -1))], "gate 2 operand -1 outside 0..2"),
        (3, [("u", (2,)), ("cx", (0, 1)), ("cx", (0, 1, 2))], "gate 'cx' takes 2 operand(s), got (0, 1, 2)"),
        (3, [("cx", (2, 1)), ("u", (0, 1))], "gate 'u' takes 1 operand(s), got (0, 1)"),
        (3, [("h", (0,)), ("cx", (1, 2)), ("h", (-1,))], "gate 2 operand -1 outside 0..2"),
    ]
    for num_qubits, ops, message in cases:
        with pytest.raises(ValueError) as err:
            Circuit.from_ops(num_qubits, ops)
        assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        Circuit(0, ())
    assert str(err.value) == "circuit needs at least one qubit"
