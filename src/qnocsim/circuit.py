"""Quantum circuits as ordered gate lists, plus layering and a text format.

Only connectivity matters here: a gate records its arity and operand qubits,
never a unitary. Depth is the number of layers produced by greedy
as-soon-as-possible scheduling of the qubit-sharing dependency order.

Text format, one directive per line:

    qubits <n>      header, required first directive
    h <q>           one-qubit gate
    u <q>           generic one-qubit gate
    cx <q1> <q2>    generic two-qubit gate

``#`` starts a comment; blank lines are ignored; fields are
whitespace-separated decimal integers.
"""

from __future__ import annotations

from dataclasses import dataclass

ONE_QUBIT_NAMES = ("h", "u")
TWO_QUBIT_NAME = "cx"

_ARITY = {"h": 1, "u": 1, "cx": 2}


class ParseError(ValueError):
    """Malformed or invalid circuit document."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Gate:
    gate_id: int
    name: str
    qubits: tuple[int, ...]

    @property
    def is_two_qubit(self) -> bool:
        return self.name == TWO_QUBIT_NAME


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        last_id = -1
        for gate in self.gates:
            if gate.name not in _ARITY:
                raise ValueError(f"unknown gate name {gate.name!r}")
            if len(gate.qubits) != _ARITY[gate.name]:
                raise ValueError(f"gate {gate.name!r} takes {_ARITY[gate.name]} operand(s), got {gate.qubits}")
            if len(set(gate.qubits)) != len(gate.qubits):
                raise ValueError(f"gate {gate.gate_id} repeats an operand: {gate.qubits}")
            for q in gate.qubits:
                if not (0 <= q < self.num_qubits):
                    raise ValueError(f"gate {gate.gate_id} operand {q} outside 0..{self.num_qubits - 1}")
            if gate.gate_id <= last_id:
                raise ValueError(f"gate ids must increase, got {gate.gate_id} after {last_id}")
            last_id = gate.gate_id

    @classmethod
    def from_ops(cls, num_qubits: int, ops) -> "Circuit":
        """Build a circuit from (name, qubits) pairs, assigning sequential ids."""
        gates = tuple(Gate(i, name, tuple(qubits)) for i, (name, qubits) in enumerate(ops))
        return cls(num_qubits, gates)

    def gate_by_id(self, gate_id: int) -> Gate:
        gate = self._id_index().get(gate_id)
        if gate is None:
            raise KeyError(gate_id)
        return gate

    def _id_index(self) -> dict[int, Gate]:
        index = getattr(self, "_index_cache", None)
        if index is None:
            index = {g.gate_id: g for g in self.gates}
            object.__setattr__(self, "_index_cache", index)
        return index


def layerize(circuit: Circuit) -> list[list[int]]:
    """Greedy ASAP layering: lists of gate ids, no two gates in a layer
    sharing an operand, per-qubit program order preserved."""
    layers: list[list[int]] = []
    qubit_level = [0] * circuit.num_qubits
    for gate in circuit.gates:
        level = max(qubit_level[q] for q in gate.qubits)
        if level == len(layers):
            layers.append([])
        layers[level].append(gate.gate_id)
        for q in gate.qubits:
            qubit_level[q] = level + 1
    return layers


def depth(circuit: Circuit) -> int:
    return len(layerize(circuit))


def parse_circuit(text: str) -> Circuit:
    """Parse a gate-list document into a Circuit.

    Raises ParseError with the offending line number on malformed input or
    out-of-range operands.
    """
    num_qubits = None
    ops: list[tuple[str, tuple[int, ...]]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        directive, args = fields[0], fields[1:]
        if directive == "qubits":
            if num_qubits is not None:
                raise ParseError("duplicate qubits header", line_no)
            num_qubits = _parse_int(args, 1, directive, line_no)[0]
            if num_qubits < 1:
                raise ParseError("qubit count must be positive", line_no)
            continue
        if num_qubits is None:
            raise ParseError("gate before qubits header", line_no)
        if directive in ONE_QUBIT_NAMES:
            (q,) = _parse_int(args, 1, directive, line_no)
            operands = (q,)
        elif directive == TWO_QUBIT_NAME:
            q1, q2 = _parse_int(args, 2, directive, line_no)
            if q1 == q2:
                raise ParseError(f"cx operands must differ, got {q1} {q2}", line_no)
            operands = (q1, q2)
        else:
            raise ParseError(f"unknown directive {directive!r}", line_no)
        for q in operands:
            if not (0 <= q < num_qubits):
                raise ParseError(f"operand {q} outside 0..{num_qubits - 1}", line_no)
        ops.append((directive, operands))
    if num_qubits is None:
        raise ParseError("missing qubits header")
    return Circuit.from_ops(num_qubits, ops)


def _parse_int(args: list[str], count: int, directive: str, line_no: int) -> list[int]:
    if len(args) != count:
        raise ParseError(f"{directive} takes {count} argument(s), got {len(args)}", line_no)
    values = []
    for a in args:
        try:
            values.append(int(a))
        except ValueError:
            raise ParseError(f"expected integer, got {a!r}", line_no) from None
    return values


def serialize_circuit(circuit: Circuit) -> str:
    """Render a circuit in the text format; parse(serialize(c)) == c."""
    lines = [f"qubits {circuit.num_qubits}"]
    for gate in circuit.gates:
        lines.append(" ".join([gate.name, *map(str, gate.qubits)]))
    return "\n".join(lines) + "\n"
