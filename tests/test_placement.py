import copy
import pickle

import pytest

from qnocsim.placement import CapacityError, PlacementMap
from qnocsim.topology import MeshTopology

MESH = MeshTopology(4, 4)


def loads(p, num_qubits, num_cores=MESH.num_cores):
    """Each core's qubit count, counted from cores rather than read back from the map."""
    assert len(p.cores) == num_qubits
    counts = [0] * num_cores
    for core in p.cores:
        counts[core] += 1
    return counts


@pytest.mark.parametrize("num_qubits, num_cores, capacity",
                         [(1, 16, 2), (7, 4, 2), (8, 4, 2), (5, 1, 5), (16, 16, 1), (3, 16, 5)])
def test_block_mapping_loads_and_peak_match_a_recount(num_qubits, num_cores, capacity):
    p = PlacementMap(num_qubits, num_cores, capacity)
    assert p.cores == [q // capacity for q in range(num_qubits)]
    counts = loads(p, num_qubits, num_cores)
    assert p._core_load == counts
    assert p.peak == max(counts)


@pytest.mark.parametrize("num_cores, capacity", [(16, 1), (16, 2), (1, 5), (4, 3)])
def test_a_full_mesh_is_accepted_and_one_more_qubit_is_a_capacity_error(num_cores, capacity):
    full = PlacementMap(num_cores * capacity, num_cores, capacity)
    assert full._core_load == loads(full, num_cores * capacity, num_cores) == [capacity] * num_cores
    assert full.peak == capacity
    with pytest.raises(CapacityError, match=f"^{num_cores * capacity + 1} qubits exceed {num_cores} cores x {capacity}$"):
        PlacementMap(num_cores * capacity + 1, num_cores, capacity)


def test_identity_mapping_with_one_qubit_per_core():
    p = PlacementMap(16, MESH.num_cores, 1)
    assert p.cores == list(range(16))


def test_block_mapping_with_two_per_core():
    p = PlacementMap(32, MESH.num_cores, 2)
    assert p.cores[0] == 0 and p.cores[1] == 0
    assert p.cores[30] == 15 and p.cores[31] == 15
    assert loads(p, 32) == [2] * 16


def test_too_many_qubits_is_a_capacity_error():
    with pytest.raises(CapacityError):
        PlacementMap(17, MESH.num_cores, 1)
    with pytest.raises(ValueError, match="^n_per_core must be positive$"):
        PlacementMap(4, MESH.num_cores, 0)


def test_relocate_to_current_core_is_a_noop():
    p = PlacementMap(16, MESH.num_cores, 1)
    assert p.relocate(3, 3) is False
    assert p.cores[3] == 3
    assert loads(p, 16)[3] == 1


def test_relocate_flags_congestion_past_capacity():
    p = PlacementMap(16, MESH.num_cores, 1)
    assert p.relocate(0, 1) is True
    assert loads(p, 16)[:2] == [0, 2]


def test_relocation_below_capacity_is_silent():
    p = PlacementMap(4, MESH.num_cores, 2)
    assert p.relocate(0, 2) is False
    assert loads(p, 4)[2] == 1


def test_folding_a_route_moves_the_qubit_to_its_end():
    p = PlacementMap(16, MESH.num_cores, 1)
    for core in MESH.xy_route(0, 15)[1:]:
        p.relocate(0, core)
    assert p.cores[0] == 15
    assert loads(p, 16)[15] == 2


def test_invalid_destination_core():
    p = PlacementMap(16, MESH.num_cores, 1)
    with pytest.raises(ValueError):
        p.relocate(0, 16)


@pytest.mark.parametrize("qubit", [-1, 2])
def test_invalid_qubit_is_rejected_and_moves_nothing(qubit):
    p = PlacementMap(2, 2, 1)
    with pytest.raises(ValueError, match=f"qubit {qubit} outside 0..1"):
        p.relocate(qubit, 0)
    assert p.cores == [0, 1]
    assert loads(p, 2, 2) == [1, 1]


def test_occupancy_is_conserved_under_random_relocations():
    import random

    rng = random.Random(5)
    p = PlacementMap(20, MESH.num_cores, 2)
    moves = [(rng.randrange(20), rng.randrange(16)) for _ in range(200)]
    peak = p.peak
    for qubit, core in moves:
        moved = p.cores[qubit] != core
        assert p.relocate(qubit, core) == (moved and loads(p, 20)[core] > 2)
        peak = max(peak, *loads(p, 20))
    assert p.peak == peak >= max(loads(p, 20))


def test_replaying_a_relocation_log_reproduces_the_map():
    import random

    rng = random.Random(11)
    log = [(rng.randrange(12), rng.randrange(16)) for _ in range(100)]
    first = PlacementMap(12, MESH.num_cores, 1)
    flags_first = [first.relocate(q, c) for q, c in log]
    second = PlacementMap(12, MESH.num_cores, 1)
    flags_second = [second.relocate(q, c) for q, c in log]
    assert flags_first == flags_second
    assert first.cores == second.cores


@pytest.mark.parametrize("capacity", [1, 2, 3])
def test_one_call_move_matches_per_move_relocate(capacity):
    """relocate_all on a seeded move log, no-op moves included, leaves the
    map, the loads, the congestion count and the peak occupancy that one
    relocate per move leaves."""
    import random

    rng = random.Random(23)
    one_call = PlacementMap(12, 16, capacity)
    per_move = PlacementMap(12, 16, capacity)
    start_peak = max(loads(per_move, 12, 16))
    log = [(rng.randrange(12), rng.randrange(16)) for _ in range(300)]
    log += [(q, per_move.cores[q]) for q in range(12)]  # moves to the qubit's own core
    rng.shuffle(log)
    congestion, peak = 0, per_move.peak
    for qubit, core in log:
        congestion += per_move.relocate(qubit, core)
        peak = max(peak, loads(per_move, 12)[core])
    assert (one_call.relocate_all(log), one_call.peak) == (congestion, peak)
    assert congestion > 0 and peak > start_peak  # the log congests and raises the peak past the start's
    assert one_call.cores == per_move.cores
    assert per_move.peak == peak
    assert loads(one_call, 12) == loads(per_move, 12)


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))], ids=["deepcopy", "pickle"])
def test_a_copied_map_looks_up_its_own_qubits(clone):
    original = PlacementMap(4, MESH.num_cores, 1)
    copied = clone(original)
    copied.relocate_all([(0, 5), (1, 5)])
    assert (copied.cores[0], original.cores[0]) == (5, 0)
    assert (copied.peak, original.peak) == (2, 1)  # core 5 now holds qubits 0 and 1
    with pytest.raises(IndexError):
        copied.cores[4]
