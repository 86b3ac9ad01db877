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

import gc
import io
from dataclasses import dataclass
from functools import cached_property, wraps

_ARITY = {"h": 1, "u": 1, "cx": 2}


def _collector_paused(fn):
    """Decorate fn to run with automatic cyclic garbage collection paused, then
    restore the collector's state as found, also when fn raises: a collector
    the caller disabled stays off. Never calls gc.collect().

    Gates, layers and hop rows hold no reference cycles, so a collection their
    allocations trigger scans them and frees nothing. The switch is process
    wide, so another thread goes uncollected meanwhile. A plain wrapper, not a
    contextlib context manager, which cost 1-2% of a bundle pass.
    """

    @wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


class ParseError(ValueError):
    """Malformed or invalid circuit document. reason is the message without
    its lead, which names the file (source) and the line where known."""

    def __init__(self, message: str, line: int | None = None, source: str | None = None):
        self.line, self.reason = line, message
        if source is not None:
            message = f"{source}: {message}" if line is None else f"{source}:{line}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True, slots=True)
class Gate:
    name: str
    qubits: tuple[int, ...]


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        num_qubits = self.num_qubits
        if num_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        arity_of = _ARITY.get
        for gate_id, gate in enumerate(self.gates):
            qubits = gate.qubits
            arity = arity_of(gate.name)
            # Fast path for a valid gate; anything else falls through to the
            # checks below, which name its fault.
            if arity == 2 == len(qubits):
                a, b = qubits
                if a != b and 0 <= a < num_qubits and 0 <= b < num_qubits:
                    continue
            elif arity == 1 == len(qubits) and 0 <= qubits[0] < num_qubits:
                continue
            if arity is None:
                raise ValueError(f"unknown gate name {gate.name!r}")
            if len(qubits) != arity:
                raise ValueError(f"gate {gate.name!r} takes {arity} operand(s), got {qubits}")
            if len(set(qubits)) != arity:
                raise ValueError(f"gate {gate_id} repeats an operand: {qubits}")
            for q in qubits:
                if not (0 <= q < num_qubits):
                    raise ValueError(f"gate {gate_id} operand {q} outside 0..{num_qubits - 1}")

    @classmethod
    @_collector_paused
    def from_ops(cls, num_qubits: int, ops) -> "Circuit":
        """Build a circuit from (name, qubits) pairs.

        ops may be any iterable, such as a generator, and is consumed once,
        with automatic garbage collection paused.
        """
        return cls(num_qubits, tuple(Gate(name, tuple(qubits)) for name, qubits in ops))

    def gate_by_id(self, gate_id: int) -> Gate:
        """The gate at position gate_id; a gate's id is its position."""
        if not 0 <= gate_id < len(self.gates):
            raise KeyError(gate_id)
        return self.gates[gate_id]

    @cached_property
    def layers(self) -> tuple[tuple[int, ...], ...]:
        """Greedy ASAP layering: tuples of gate ids, no two gates in a layer
        sharing an operand, per-qubit program order preserved.

        Computed once per circuit; the circuit is immutable, so the cache
        cannot go stale, and it is not a field, so equality ignores it.
        """
        layers: list[list[int]] = []
        qubit_level = [0] * self.num_qubits
        for gate_id, gate in enumerate(self.gates):
            qubits = gate.qubits
            if len(qubits) == 1:  # __post_init__ allows only arities 1 and 2
                q = qubits[0]
                level = qubit_level[q]
                qubit_level[q] = level + 1
            else:
                a, b = qubits
                level = qubit_level[a]
                if qubit_level[b] > level:
                    level = qubit_level[b]
                qubit_level[a] = qubit_level[b] = level + 1
            if level == len(layers):
                layers.append([gate_id])
            else:
                layers[level].append(gate_id)
        return tuple(map(tuple, layers))


def layerize(circuit: Circuit) -> list[list[int]]:
    """``circuit.layers`` as new lists, which the caller may change."""
    return list(map(list, circuit.layers))


def depth(circuit: Circuit) -> int:
    return len(circuit.layers)


@_collector_paused
def parse_circuit(text: str) -> Circuit:
    """Parse a gate-list document into a Circuit, with automatic garbage
    collection paused.

    Raises ParseError with the offending line number on malformed input or
    out-of-range operands.
    """
    num_qubits = None
    ops: list[tuple[str, tuple[int, ...]]] = []
    for line_no, raw in enumerate(io.StringIO(text, newline=None), start=1):
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
        if directive not in _ARITY:
            raise ParseError(f"unknown directive {directive!r}", line_no)
        operands = tuple(_parse_int(args, _ARITY[directive], directive, line_no))
        if len(set(operands)) != len(operands):
            raise ParseError(f"{directive} operands must differ, got {' '.join(map(str, operands))}", line_no)
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
            values.append(ascii_number(a))
        except ValueError:
            raise ParseError(f"expected integer, got {a!r}", line_no) from None
    return values


def ascii_number(text: str, kind=int):
    """kind(text), for ASCII text without '_': int and float also read other
    scripts' digits and digit-group underscores, as in '٣' or '1_0'."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII number: {text!r}")
    return kind(text)


def serialize_circuit(circuit: Circuit) -> str:
    """Render a circuit in the text format; parse(serialize(c)) == c."""
    lines = [f"qubits {circuit.num_qubits}"]
    for gate in circuit.gates:
        lines.append(" ".join([gate.name, *map(str, gate.qubits)]))
    return "\n".join(lines) + "\n"
