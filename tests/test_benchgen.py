import pytest

from golden import GOLDEN, SYNTHETIC_CIRCUITS, synthetic_circuit, synthetic_label
from oracles import two_qubit_count
from qnocsim.benchgen import (
    CrMode,
    GenerationError,
    SynthSpec,
    gen_cuccaro,
    gen_mcmt,
    gen_qft,
    gen_quantum_volume,
    gen_synthetic,
)
from qnocsim.circuit import serialize_circuit
from qnocsim.topology import MeshTopology

MESH = MeshTopology(4, 4)


def _initial_core(qubit, qubits_per_core):
    return qubit // qubits_per_core


# -- synthetic ---------------------------------------------------------------


def test_fixed_radius_six_puts_every_pair_on_opposite_corners():
    spec = SynthSpec(target_depth=8, requests_per_layer=1, cr_mode=CrMode("fixed", 6), seed=4)
    c = gen_synthetic(spec, MESH, 5)
    assert two_qubit_count(c) == 8
    for gate in c.gates:
        a, b = (_initial_core(q, 5) for q in gate.qubits)
        assert MESH.hop_distance(a, b) == 6


def test_fixed_radius_one_pairs_adjacent_cores():
    spec = SynthSpec(target_depth=10, requests_per_layer=2, cr_mode=CrMode("fixed", 1), seed=9)
    c = gen_synthetic(spec, MESH, 4)
    for gate in c.gates:
        a, b = (_initial_core(q, 4) for q in gate.qubits)
        assert MESH.hop_distance(a, b) == 1


@pytest.mark.parametrize("radius", [1, 3, 6])
def test_fixed_radius_matches_distance_oracle(radius):
    spec = SynthSpec(target_depth=6, requests_per_layer=2, cr_mode=CrMode("fixed", radius), seed=1)
    c = gen_synthetic(spec, MESH, 8)
    for gate in c.gates:
        cores = [_initial_core(q, 8) for q in gate.qubits]
        assert MESH.hop_distance(*cores) == radius


def test_random_radius_stays_within_bound():
    spec = SynthSpec(target_depth=12, requests_per_layer=2, cr_mode=CrMode("random", 4), seed=2)
    c = gen_synthetic(spec, MESH, 8)
    radii = set()
    for gate in c.gates:
        cores = [_initial_core(q, 8) for q in gate.qubits]
        radii.add(MESH.hop_distance(*cores))
    assert radii <= set(range(1, 5))
    assert len(radii) > 1


def test_depth_contract_is_exact():
    for depth_k, rpl in ((1, 1), (5, 1), (5, 3), (10, 2), (32, 1)):
        spec = SynthSpec(target_depth=depth_k, requests_per_layer=rpl, cr_mode=CrMode("fixed", 1), seed=6)
        c = gen_synthetic(spec, MESH, 8)
        assert len(c.layers) == depth_k
        assert two_qubit_count(c) == depth_k * rpl
        assert len(c.gates) == depth_k * rpl


def test_gates_within_a_layer_have_disjoint_operands():
    spec = SynthSpec(target_depth=6, requests_per_layer=4, cr_mode=CrMode("random", 6), seed=3)
    c = gen_synthetic(spec, MESH, 8)
    for start in range(0, len(c.gates), 4):
        operands = [q for g in c.gates[start:start + 4] for q in g.qubits]
        assert len(operands) == len(set(operands))


def test_same_seed_reproduces_the_circuit():
    spec = SynthSpec(target_depth=7, requests_per_layer=2, cr_mode=CrMode("random", 6), seed=42)
    assert gen_synthetic(spec, MESH, 4) == gen_synthetic(spec, MESH, 4)
    other = SynthSpec(target_depth=7, requests_per_layer=2, cr_mode=CrMode("random", 6), seed=43)
    assert gen_synthetic(other, MESH, 4) != gen_synthetic(spec, MESH, 4)


def test_infeasible_requests_raise_generation_errors():
    # radius beyond the mesh diameter
    with pytest.raises(GenerationError):
        gen_synthetic(SynthSpec(1, 1, CrMode("fixed", 7), 0), MESH, 2)
    # more pairs per layer than cores can host
    with pytest.raises(GenerationError):
        gen_synthetic(SynthSpec(1, 9, CrMode("fixed", 1), 0), MESH, 2)
    # more fresh qubits than the mesh holds
    with pytest.raises(GenerationError):
        gen_synthetic(SynthSpec(40, 1, CrMode("fixed", 1), 0), MESH, 2)
    # corner walk at radius 6 starves with one qubit per core
    with pytest.raises(GenerationError):
        gen_synthetic(SynthSpec(8, 1, CrMode("fixed", 6), 0), MESH, 1)


@pytest.mark.parametrize("case", SYNTHETIC_CIRCUITS, ids=lambda c: f"{c[0]}x{c[1]}-{c[2]}")
def test_synthetic_circuits_match_pinned_digests(case):
    """Each pinned synthetic case generates exactly its committed golden text;
    the files hash to the sha256 digests this test used to hold."""
    pinned = (GOLDEN / "circuits" / f"{synthetic_label(case)}.qc").read_text(encoding="utf-8")
    assert serialize_circuit(synthetic_circuit(case)).splitlines() == pinned.splitlines()
    assert serialize_circuit(synthetic_circuit(case)) == pinned


def test_cr_mode_parsing():
    assert CrMode.parse("fixed:3") == CrMode("fixed", 3)
    assert CrMode.parse("random:6") == CrMode("random", 6)
    assert str(CrMode.parse("fixed:1")) == "fixed:1"
    for bad in ("fixed", "fixed:", "near:2", "fixed:x", "fixed:0"):
        with pytest.raises(ValueError):
            CrMode.parse(bad)


# -- qft ---------------------------------------------------------------------


def test_qft_single_qubit():
    c = gen_qft(1)
    assert [g.name for g in c.gates] == ["h"]
    assert two_qubit_count(c) == 0


@pytest.mark.parametrize("n,expected", [(4, 6), (8, 28)])
def test_qft_two_qubit_count(n, expected):
    assert two_qubit_count(gen_qft(n)) == expected


def test_qft_covers_every_unordered_pair_once():
    n = 8
    pairs = [frozenset(g.qubits) for g in gen_qft(n).gates if len(g.qubits) == 2]
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == {frozenset((i, j)) for i in range(n) for j in range(i + 1, n)}


# -- cuccaro -----------------------------------------------------------------


def test_cuccaro_one_bit_structure():
    c = gen_cuccaro(1)
    assert c.num_qubits == 4
    assert [g.qubits for g in c.gates] == [
        (2, 1), (2, 0), (0, 1),   # majority on the only triple
        (2, 3),                   # carry out
        (0, 1), (2, 0), (2, 1),   # unmajority walking back
    ]


@pytest.mark.parametrize("n_bits", [1, 2, 5, 15])
def test_cuccaro_counts_and_locality(n_bits):
    c = gen_cuccaro(n_bits)
    assert c.num_qubits == 2 * n_bits + 2
    assert two_qubit_count(c) == 6 * n_bits + 1
    assert len(c.gates) == 6 * n_bits + 1
    for gate in c.gates:
        a, b = gate.qubits
        assert abs(a - b) <= 2


def test_cuccaro_uma_mirrors_maj():
    c = gen_cuccaro(4)
    maj = [g.qubits for g in c.gates[: 3 * 4]]
    uma = [g.qubits for g in c.gates[3 * 4 + 1:]]
    assert uma == [q for q in reversed(maj)]


# -- mcmt --------------------------------------------------------------------


def test_mcmt_degenerate_single_control_single_target():
    c = gen_mcmt(1, 1)
    assert c.num_qubits == 2
    assert [g.qubits for g in c.gates] == [(0, 1)]


def test_mcmt_fanout_shares_the_control():
    c = gen_mcmt(1, 3)
    assert [g.qubits for g in c.gates] == [(0, 1), (0, 2), (0, 3)]


def test_mcmt_accumulation_and_uncomputation_are_mirror_images():
    for k, t in ((2, 1), (3, 2), (5, 4)):
        c = gen_mcmt(k, t)
        assert c.num_qubits == 2 * k - 1 + t
        forward = [g.qubits for g in c.gates[: 3 * (k - 1)]]
        fanout = [g.qubits for g in c.gates[3 * (k - 1): 3 * (k - 1) + t]]
        backward = [g.qubits for g in c.gates[3 * (k - 1) + t:]]
        assert backward == [q for q in reversed(forward)]
        accumulator = 2 * k - 2
        assert all(pair[0] == accumulator for pair in fanout)
        assert len(fanout) == t


# -- quantum volume ----------------------------------------------------------


def test_qv_single_layer_pairs_disjoint_qubits():
    c = gen_quantum_volume(4, 1, seed=0)
    assert two_qubit_count(c) == 2
    used = [q for g in c.gates for q in g.qubits]
    assert len(used) == len(set(used))


def test_qv_two_qubits_always_pair_zero_and_one():
    c = gen_quantum_volume(2, 5, seed=1)
    assert len(c.gates) == 5
    assert all(set(g.qubits) == {0, 1} for g in c.gates)
    assert len(c.layers) == 5


@pytest.mark.parametrize("n,layers", [(4, 3), (5, 4), (9, 2), (16, 5)])
def test_qv_each_layer_is_a_perfect_matching(n, layers):
    c = gen_quantum_volume(n, layers, seed=3)
    per_layer = n // 2
    assert len(c.gates) == per_layer * layers
    for start in range(0, len(c.gates), per_layer):
        used = [q for g in c.gates[start:start + per_layer] for q in g.qubits]
        assert len(used) == len(set(used)) == 2 * per_layer


def test_qv_is_seed_deterministic():
    assert gen_quantum_volume(8, 4, seed=9) == gen_quantum_volume(8, 4, seed=9)
    assert gen_quantum_volume(8, 4, seed=9) != gen_quantum_volume(8, 4, seed=10)


def test_generator_argument_validation():
    with pytest.raises(ValueError):
        gen_qft(0)
    with pytest.raises(ValueError):
        gen_cuccaro(0)
    with pytest.raises(ValueError):
        gen_mcmt(0, 1)
    with pytest.raises(ValueError):
        gen_quantum_volume(1, 1, seed=0)
    with pytest.raises(ValueError, match="^need at least one layer$"):
        gen_quantum_volume(4, 0, 1)
    with pytest.raises(ValueError, match="^target_depth must be positive$"):
        SynthSpec(0, 1, CrMode("fixed", 1), 0)
    with pytest.raises(ValueError, match="^requests_per_layer must be positive$"):
        SynthSpec(1, 0, CrMode("fixed", 1), 0)
