from itertools import permutations

import pytest

from oracles import xy_route_by_steps
from qnocsim.strategy import STRATEGIES, plan, twt_meeting_core
from qnocsim.topology import MeshTopology
from test_topology import MESHES

MESH = MeshTopology(4, 4)


def _rounds_of(src_hops, dst_hops):
    """A plan's rounds: its longer chain, as the engine's RequestRecord.rounds."""
    return max(len(src_hops), len(dst_hops))


def test_hh_corner_to_corner():
    src_hops, dst_hops = plan("hh", MESH, 0, 15)
    assert src_hops == [1, 2, 3, 7, 11, 15]
    assert dst_hops == []
    assert src_hops[-1] == 15
    assert _rounds_of(src_hops, dst_hops) == 6


def test_hh_adjacent_and_short():
    assert plan("hh", MESH, 5, 6)[0] == [6]
    assert _rounds_of(*plan("hh", MESH, 5, 6)) == 1
    assert plan("hh", MESH, 0, 2)[0] == [1, 2]
    assert _rounds_of(*plan("hh", MESH, 0, 2)) == 2


def test_twt_corner_to_corner_meets_near_destination_column():
    src_hops, dst_hops = plan("twt", MESH, 0, 15)
    assert src_hops == [1, 2, 3]
    assert dst_hops == [11, 7, 3]
    assert src_hops[-1] == 3
    assert _rounds_of(src_hops, dst_hops) == 3


def test_twt_same_row_odd_distance_meets_closer_to_destination():
    src_hops, dst_hops = plan("twt", MESH, 0, 3)
    assert src_hops == [1, 2]
    assert dst_hops == [2]
    assert src_hops[-1] == 2
    assert _rounds_of(src_hops, dst_hops) == 2


def test_twt_same_column_mirrors_the_row_rule():
    src_hops, dst_hops = plan("twt", MESH, 0, 12)  # (0,0) -> (0,3)
    assert src_hops == [4, 8]
    assert dst_hops == [8]
    assert src_hops[-1] == 8


def test_twt_adjacent_pair_meets_at_destination():
    src_hops, dst_hops = plan("twt", MESH, 0, 1)
    assert src_hops == [1]
    assert dst_hops == []
    assert src_hops[-1] == 1
    assert _rounds_of(src_hops, dst_hops) == 1
    assert (src_hops, dst_hops) == plan("hh", MESH, 0, 1)


def _rounds(mesh, src, dst):
    """(hop-by-hop rounds, two-way rounds) for one request."""
    return mesh.hop_distance(src, dst), _rounds_of(*plan("twt", mesh, src, dst))


def test_round_counts_examples():
    assert _rounds(MESH, 0, 15) == (6, 3)
    assert _rounds(MESH, 5, 6) == (1, 1)
    # same-row distance 4 on a wider mesh splits evenly
    wide = MeshTopology(5, 1)
    assert _rounds(wide, 0, 4) == (4, 2)


def test_planners_reject_co_located_operands():
    with pytest.raises(ValueError):
        plan("hh", MESH, 3, 3)
    with pytest.raises(ValueError):
        plan("twt", MESH, 3, 3)
    with pytest.raises(ValueError):
        plan("nearest", MESH, 0, 1)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_planners_reject_out_of_range_endpoints(strategy):
    for src, dst in ((-1, 0), (0, -1), (-1, -1), (0, 16), (16, 0)):
        with pytest.raises(ValueError, match="outside"):
            plan(strategy, MESH, src, dst)


@pytest.mark.parametrize("mesh", MESHES + [MeshTopology(1, 5), MeshTopology(6, 1)],
                         ids=lambda t: f"{t.width}x{t.height}")
def test_meeting_core_is_the_planned_exec_core_on_every_pair(mesh):
    for src in range(mesh.num_cores):
        for dst in range(mesh.num_cores):
            if src != dst:
                assert twt_meeting_core(mesh, src, dst) == plan("twt", mesh, src, dst)[0][-1]


@pytest.mark.parametrize("src, dst", [(3, 3), (0, -1), (-1, 0), (16, 0)])
def test_meeting_core_rejects_what_the_planner_rejects(src, dst):
    with pytest.raises(ValueError) as planned:
        plan("twt", MESH, src, dst)
    with pytest.raises(ValueError) as met:
        twt_meeting_core(MESH, src, dst)
    assert str(met.value) == str(planned.value)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("mesh", [MeshTopology(4, 4), MeshTopology(5, 3), MeshTopology(1, 6), MeshTopology(6, 1)],
                         ids=lambda t: f"{t.width}x{t.height}")
def test_plan_chains_total_the_hop_distance_on_every_pair(mesh, strategy):
    """The engine reads a request's distance as the total length of its
    planned chains."""
    for src, dst in permutations(range(mesh.num_cores), 2):
        src_hops, dst_hops = plan(strategy, mesh, src, dst)
        assert len(src_hops) + len(dst_hops) == mesh.hop_distance(src, dst)


@pytest.mark.parametrize("strategy", ["hh", "twt"])
def test_replaying_hops_colocates_both_operands_at_exec_core(strategy):
    for src in range(MESH.num_cores):
        for dst in range(MESH.num_cores):
            if src == dst:
                continue
            src_hops, dst_hops = plan(strategy, MESH, src, dst)
            qubit_core = list(range(16))  # qubit q starts on core q
            for hop in src_hops:
                qubit_core[src] = hop
            for hop in dst_hops:
                qubit_core[dst] = hop
            assert qubit_core[src] == qubit_core[dst] == src_hops[-1]


def test_consecutive_hops_are_adjacent_everywhere():
    for src in range(MESH.num_cores):
        for dst in range(MESH.num_cores):
            if src == dst:
                continue
            for strategy in ("hh", "twt"):
                src_hops, dst_hops = plan(strategy, MESH, src, dst)
                for qubit_start, hops in ((src, src_hops), (dst, dst_hops)):
                    position = qubit_start
                    for hop in hops:
                        assert MESH.hop_distance(position, hop) == 1
                        position = hop


@pytest.mark.parametrize("mesh", [MeshTopology(2, 2), MeshTopology(4, 4), MeshTopology(8, 8), MeshTopology(3, 7)])
def test_twt_never_needs_more_rounds_than_hh(mesh):
    for src in range(mesh.num_cores):
        for dst in range(mesh.num_cores):
            if src == dst:
                continue
            hh_rounds, twt_rounds = _rounds(mesh, src, dst)
            assert twt_rounds <= hh_rounds
            if hh_rounds == 1:
                assert twt_rounds == 1


def test_twt_hops_stay_inside_the_bounding_rectangle():
    for src in range(MESH.num_cores):
        for dst in range(MESH.num_cores):
            if src == dst:
                continue
            sx, sy = MESH.coord_of(src)
            dx, dy = MESH.coord_of(dst)
            src_hops, dst_hops = plan("twt", MESH, src, dst)
            for hop in src_hops + dst_hops:
                x, y = MESH.coord_of(hop)
                assert min(sx, dx) <= x <= max(sx, dx)
                assert min(sy, dy) <= y <= max(sy, dy)


def test_twt_diagonal_split_moves_source_in_x_and_destination_in_y():
    for src in range(MESH.num_cores):
        for dst in range(MESH.num_cores):
            sx, sy = MESH.coord_of(src)
            dx, dy = MESH.coord_of(dst)
            if sx == dx or sy == dy:
                continue
            src_hops, dst_hops = plan("twt", MESH, src, dst)
            assert src_hops[-1] == sy * MESH.width + dx
            assert len(src_hops) == abs(dx - sx)
            assert len(dst_hops) == abs(dy - sy)
            assert all(MESH.coord_of(h)[1] == sy for h in src_hops)
            assert all(MESH.coord_of(h)[0] == dx for h in dst_hops)


def _twt_by_docstring(mesh, src, dst):
    """(src_hops, dst_hops, exec_core) as the strategy docstring describes twt."""
    sx, sy = mesh.coord_of(src)
    dx, dy = mesh.coord_of(dst)
    if sx != dx and sy != dy:
        meet = sy * mesh.width + dx  # the corner: source moves along x, destination along y
    else:
        meet = xy_route_by_steps(mesh, src, dst)[(mesh.hop_distance(src, dst) + 1) // 2]
    return xy_route_by_steps(mesh, src, meet)[1:], xy_route_by_steps(mesh, dst, meet)[1:], meet


@pytest.mark.parametrize("mesh", [MeshTopology(1, 5), MeshTopology(5, 1), MeshTopology(3, 7), MeshTopology(6, 2)])
def test_plans_match_the_docstring_on_every_pair(mesh):
    for src in range(mesh.num_cores):
        for dst in range(mesh.num_cores):
            if src == dst:
                continue
            src_hops, dst_hops = plan("twt", mesh, src, dst)
            assert (src_hops, dst_hops, src_hops[-1]) == _twt_by_docstring(mesh, src, dst)
            src_hops, dst_hops = plan("hh", mesh, src, dst)
            assert (src_hops, dst_hops, src_hops[-1]) == (xy_route_by_steps(mesh, src, dst)[1:], [], dst)
