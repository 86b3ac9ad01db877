import pytest

from oracles import xy_route_by_steps
from qnocsim.strategy import plan, plan_hh, plan_twt, twt_meeting_core
from qnocsim.topology import MeshTopology
from test_topology import MESHES

MESH = MeshTopology(4, 4)


def test_hh_corner_to_corner():
    p = plan_hh(MESH, 0, 15)
    assert p.src_hops == (1, 2, 3, 7, 11, 15)
    assert p.dst_hops == ()
    assert p.exec_core == 15
    assert p.rounds == 6


def test_hh_adjacent_and_short():
    assert plan_hh(MESH, 5, 6).src_hops == (6,)
    assert plan_hh(MESH, 5, 6).rounds == 1
    assert plan_hh(MESH, 0, 2).src_hops == (1, 2)
    assert plan_hh(MESH, 0, 2).rounds == 2


def test_twt_corner_to_corner_meets_near_destination_column():
    p = plan_twt(MESH, 0, 15)
    assert p.src_hops == (1, 2, 3)
    assert p.dst_hops == (11, 7, 3)
    assert p.exec_core == 3
    assert p.rounds == 3


def test_twt_same_row_odd_distance_meets_closer_to_destination():
    p = plan_twt(MESH, 0, 3)
    assert p.src_hops == (1, 2)
    assert p.dst_hops == (2,)
    assert p.exec_core == 2
    assert p.rounds == 2


def test_twt_same_column_mirrors_the_row_rule():
    p = plan_twt(MESH, 0, 12)  # (0,0) -> (0,3)
    assert p.src_hops == (4, 8)
    assert p.dst_hops == (8,)
    assert p.exec_core == 8


def test_twt_adjacent_pair_meets_at_destination():
    p = plan_twt(MESH, 0, 1)
    assert p.src_hops == (1,)
    assert p.dst_hops == ()
    assert p.exec_core == 1
    assert p.rounds == 1
    assert p == plan_hh(MESH, 0, 1)


def _rounds(mesh, src, dst):
    """(hop-by-hop rounds, two-way rounds) for one request."""
    return mesh.hop_distance(src, dst), plan_twt(mesh, src, dst).rounds


def test_round_counts_examples():
    assert _rounds(MESH, 0, 15) == (6, 3)
    assert _rounds(MESH, 5, 6) == (1, 1)
    # same-row distance 4 on a wider mesh splits evenly
    wide = MeshTopology(5, 1)
    assert _rounds(wide, 0, 4) == (4, 2)


def test_planners_reject_co_located_operands():
    with pytest.raises(ValueError):
        plan_hh(MESH, 3, 3)
    with pytest.raises(ValueError):
        plan_twt(MESH, 3, 3)
    with pytest.raises(ValueError):
        plan("nearest", MESH, 0, 1)


@pytest.mark.parametrize("planner", [plan_hh, plan_twt])
def test_planners_reject_out_of_range_endpoints(planner):
    for src, dst in ((-1, 0), (0, -1), (-1, -1), (0, 16), (16, 0)):
        with pytest.raises(ValueError, match="outside"):
            planner(MESH, src, dst)


@pytest.mark.parametrize("mesh", MESHES + [MeshTopology(1, 5), MeshTopology(6, 1)],
                         ids=lambda t: f"{t.width}x{t.height}")
def test_meeting_core_is_the_planned_exec_core_on_every_pair(mesh):
    for src in range(mesh.num_cores):
        for dst in range(mesh.num_cores):
            if src != dst:
                assert twt_meeting_core(mesh, src, dst) == plan_twt(mesh, src, dst).exec_core


@pytest.mark.parametrize("src, dst", [(3, 3), (0, -1), (-1, 0), (16, 0)])
def test_meeting_core_rejects_what_the_planner_rejects(src, dst):
    with pytest.raises(ValueError) as planned:
        plan_twt(MESH, src, dst)
    with pytest.raises(ValueError) as met:
        twt_meeting_core(MESH, src, dst)
    assert str(met.value) == str(planned.value)


def test_plan_dispatch():
    assert plan("hh", MESH, 0, 15) == plan_hh(MESH, 0, 15)
    assert plan("twt", MESH, 0, 15) == plan_twt(MESH, 0, 15)


@pytest.mark.parametrize("strategy", ["hh", "twt"])
def test_replaying_hops_colocates_both_operands_at_exec_core(strategy):
    for src in range(MESH.num_cores):
        for dst in range(MESH.num_cores):
            if src == dst:
                continue
            p = plan(strategy, MESH, src, dst)
            qubit_core = list(range(16))  # qubit q starts on core q
            for hop in p.src_hops:
                qubit_core[src] = hop
            for hop in p.dst_hops:
                qubit_core[dst] = hop
            assert qubit_core[src] == qubit_core[dst] == p.exec_core


def test_consecutive_hops_are_adjacent_everywhere():
    for src in range(MESH.num_cores):
        for dst in range(MESH.num_cores):
            if src == dst:
                continue
            for strategy in ("hh", "twt"):
                p = plan(strategy, MESH, src, dst)
                for qubit_start, hops in ((src, p.src_hops), (dst, p.dst_hops)):
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
            p = plan_twt(MESH, src, dst)
            for hop in p.src_hops + p.dst_hops:
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
            p = plan_twt(MESH, src, dst)
            assert p.exec_core == sy * MESH.width + dx
            assert len(p.src_hops) == abs(dx - sx)
            assert len(p.dst_hops) == abs(dy - sy)
            assert all(MESH.coord_of(h)[1] == sy for h in p.src_hops)
            assert all(MESH.coord_of(h)[0] == dx for h in p.dst_hops)


def _twt_by_docstring(mesh, src, dst):
    """(src_hops, dst_hops, exec_core) as the strategy docstring describes twt."""
    sx, sy = mesh.coord_of(src)
    dx, dy = mesh.coord_of(dst)
    if sx != dx and sy != dy:
        meet = sy * mesh.width + dx  # the corner: source moves along x, destination along y
    else:
        meet = xy_route_by_steps(mesh, src, dst)[(mesh.hop_distance(src, dst) + 1) // 2]
    return tuple(xy_route_by_steps(mesh, src, meet)[1:]), tuple(xy_route_by_steps(mesh, dst, meet)[1:]), meet


@pytest.mark.parametrize("mesh", [MeshTopology(1, 5), MeshTopology(5, 1), MeshTopology(3, 7), MeshTopology(6, 2)])
def test_plans_match_the_docstring_on_every_pair(mesh):
    for src in range(mesh.num_cores):
        for dst in range(mesh.num_cores):
            if src == dst:
                continue
            twt = plan_twt(mesh, src, dst)
            assert (twt.src_hops, twt.dst_hops, twt.exec_core) == _twt_by_docstring(mesh, src, dst)
            hh = plan_hh(mesh, src, dst)
            assert (hh.src_hops, hh.dst_hops, hh.exec_core) == (tuple(xy_route_by_steps(mesh, src, dst)[1:]), (), dst)
