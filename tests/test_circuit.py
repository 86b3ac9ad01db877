import pytest

from oracles import dag_depth_oracle, random_circuit
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
                qubits = set(c.gate_by_id(gate_id).qubits)
                assert not (qubits & seen)
                seen |= qubits


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
    assert err.value.line == 2


def test_parse_rejects_malformed_lines():
    cases = [
        ("qubits 2\ncx 0\n", 2),
        ("qubits 2\nzz 0 1\n", 2),
        ("qubits 2\ncx 0 x\n", 2),
        ("cx 0 1\n", 1),
        ("qubits 2\nqubits 2\n", 2),
        ("qubits 2\ncx 1 1\n", 2),
    ]
    for text, line in cases:
        with pytest.raises(ParseError) as err:
            parse_circuit(text)
        assert err.value.line == line
    with pytest.raises(ParseError):
        parse_circuit("# nothing\n")


@pytest.mark.parametrize("seed", range(10))
def test_serialize_parse_roundtrip(seed):
    c = random_circuit(8, 35, seed)
    assert parse_circuit(serialize_circuit(c)) == c


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit.from_ops(2, [("cx", (0, 0))])
    with pytest.raises(ValueError):
        Circuit.from_ops(2, [("cx", (0, 2))])
    with pytest.raises(ValueError):
        Circuit.from_ops(2, [("h", (0, 1))])
    with pytest.raises(ValueError):
        Circuit.from_ops(2, [("tp", (0,))])  # no gate name is reserved for teleport markers
    with pytest.raises(ValueError):
        Circuit(0, ())
