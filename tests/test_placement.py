import copy
import pickle

import pytest

from qnocsim.placement import CapacityError, PlacementMap
from qnocsim.topology import MeshTopology

MESH = MeshTopology(4, 4)


def loads(p, num_qubits, num_cores=MESH.num_cores):
    """Each core's qubit count, counted from core_of rather than read back from the map."""
    counts = [0] * num_cores
    for qubit in range(num_qubits):
        counts[p.core_of(qubit)] += 1
    return counts


def test_identity_mapping_with_one_qubit_per_core():
    p = PlacementMap.initial_mapping(16, MESH, 1)
    assert all(p.core_of(q) == q for q in range(16))


def test_block_mapping_with_two_per_core():
    p = PlacementMap.initial_mapping(32, MESH, 2)
    assert p.core_of(0) == 0 and p.core_of(1) == 0
    assert p.core_of(30) == 15 and p.core_of(31) == 15
    assert loads(p, 32) == [2] * 16


def test_too_many_qubits_is_a_capacity_error():
    with pytest.raises(CapacityError):
        PlacementMap.initial_mapping(17, MESH, 1)
    with pytest.raises(ValueError, match="^n_per_core must be positive$"):
        PlacementMap.initial_mapping(4, MESH, 0)


def test_relocate_to_current_core_is_a_noop():
    p = PlacementMap.initial_mapping(16, MESH, 1)
    assert p.relocate(3, 3) is False
    assert p.core_of(3) == 3
    assert loads(p, 16)[3] == 1


def test_relocate_flags_congestion_past_capacity():
    p = PlacementMap.initial_mapping(16, MESH, 1)
    assert p.relocate(0, 1) is True
    assert loads(p, 16)[:2] == [0, 2]


def test_relocation_below_capacity_is_silent():
    p = PlacementMap.initial_mapping(4, MESH, 2)
    assert p.relocate(0, 2) is False
    assert loads(p, 4)[2] == 1


def test_folding_a_route_moves_the_qubit_to_its_end():
    p = PlacementMap.initial_mapping(16, MESH, 1)
    for core in MESH.xy_route(0, 15)[1:]:
        p.relocate(0, core)
    assert p.core_of(0) == 15
    assert loads(p, 16)[15] == 2


def test_invalid_destination_core():
    p = PlacementMap.initial_mapping(16, MESH, 1)
    with pytest.raises(ValueError):
        p.relocate(0, 16)


@pytest.mark.parametrize("qubit", [-1, 2])
def test_invalid_qubit_is_rejected_and_moves_nothing(qubit):
    p = PlacementMap([0, 1], 2, 1)
    with pytest.raises(ValueError, match=f"qubit {qubit} outside 0..1"):
        p.relocate(qubit, 0)
    assert [p.core_of(0), p.core_of(1)] == [0, 1]
    assert loads(p, 2, 2) == [1, 1]


@pytest.mark.parametrize("cores", [[-1, 0], [5]], ids=["negative", "past_the_last"])
def test_initial_cores_outside_the_mesh_are_rejected(cores):
    with pytest.raises(ValueError, match=f"^qubit 0 placed on core {cores[0]}, outside 0..1$"):
        PlacementMap(cores, 2, 1)


def test_occupancy_is_conserved_under_random_relocations():
    import random

    rng = random.Random(5)
    p = PlacementMap.initial_mapping(20, MESH, 2)
    moves = [(rng.randrange(20), rng.randrange(16)) for _ in range(200)]
    for qubit, core in moves:
        moved = p.core_of(qubit) != core
        assert p.relocate(qubit, core) == (moved and loads(p, 20)[core] > 2)
    assert p.max_occupancy() == max(loads(p, 20))


def test_replaying_a_relocation_log_reproduces_the_map():
    import random

    rng = random.Random(11)
    log = [(rng.randrange(12), rng.randrange(16)) for _ in range(100)]
    first = PlacementMap.initial_mapping(12, MESH, 1)
    flags_first = [first.relocate(q, c) for q, c in log]
    second = PlacementMap.initial_mapping(12, MESH, 1)
    flags_second = [second.relocate(q, c) for q, c in log]
    assert flags_first == flags_second
    assert [first.core_of(q) for q in range(12)] == [second.core_of(q) for q in range(12)]


@pytest.mark.parametrize("capacity", [1, 2, 3])
def test_one_call_move_matches_per_move_relocate(capacity):
    """relocate_all on a seeded move log, no-op moves included, leaves the
    map, the loads, the congestion count and the peak occupancy that one
    relocate per move leaves."""
    import random

    rng = random.Random(23)
    log = [(rng.randrange(12), rng.randrange(16)) for _ in range(300)]
    qubit_core = [q // 2 for q in range(12)]
    log += [(q, qubit_core[q]) for q in range(12)]  # moves to the qubit's own core
    rng.shuffle(log)
    one_call = PlacementMap(qubit_core, 16, capacity)
    per_move = PlacementMap(qubit_core, 16, capacity)
    congestion, peak = 0, per_move.max_occupancy()
    for qubit, core in log:
        congestion += per_move.relocate(qubit, core)
        peak = max(peak, loads(per_move, 12)[core])
    assert one_call.relocate_all(log, one_call.max_occupancy()) == (congestion, peak)
    assert congestion > 0 and peak > 2  # the log congests and raises the peak past the start's 2
    assert list(map(one_call.core_of, range(12))) == list(map(per_move.core_of, range(12)))
    assert one_call.max_occupancy() == per_move.max_occupancy() == max(loads(one_call, 12))


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))], ids=["deepcopy", "pickle"])
def test_a_copied_map_looks_up_its_own_qubits(clone):
    original = PlacementMap.initial_mapping(4, MESH, 1)
    copied = clone(original)
    copied.relocate_all([(0, 5)], 0)
    assert (copied.core_of(0), original.core_of(0)) == (5, 0)
    with pytest.raises(IndexError):
        copied.core_of(4)
