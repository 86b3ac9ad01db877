import pytest

from oracles import xy_route_by_steps
from qnocsim.topology import MeshTopology

MESHES = [MeshTopology(1, 1), MeshTopology(2, 3), MeshTopology(4, 4), MeshTopology(5, 2), MeshTopology(8, 8)]


def test_core_numbering_is_row_major():
    t = MeshTopology(4, 4)
    assert t.coord_of(0) == (0, 0)
    assert t.coord_of(15) == (3, 3)
    assert t.coord_of(3) == (3, 0)


@pytest.mark.parametrize("t", MESHES, ids=lambda t: f"{t.width}x{t.height}")
def test_coord_roundtrip(t):
    for core in range(t.num_cores):
        x, y = t.coord_of(core)
        assert y * t.width + x == core


@pytest.mark.parametrize("t", MESHES, ids=lambda t: f"{t.width}x{t.height}")
def test_neighbor_degrees(t):
    degree = [0] * t.num_cores
    for link in t.bsm_links():
        for core in link:
            degree[core] += 1
    for core in range(t.num_cores):
        x, y = t.coord_of(core)
        expected = 4 - (x == 0) - (x == t.width - 1) - (y == 0) - (y == t.height - 1)
        assert degree[core] == expected
    if t.width >= 3 and t.height >= 3:
        corners = [0, t.num_cores - 1]  # (0, 0) and (width - 1, height - 1)
        assert all(degree[c] == 2 for c in corners)
        assert degree[1] == 3  # (1, 0)
        assert degree[t.width + 1] == 4  # (1, 1)


def test_bsm_link_count_matches_grid_formula():
    for t in MESHES:
        links = t.bsm_links()
        assert len(links) == t.height * (t.width - 1) + t.width * (t.height - 1)
        assert len(set(links)) == len(links)
        assert links == sorted(links)
        adjacent_pairs = {
            (a, b)
            for a in range(t.num_cores)
            for b in range(a + 1, t.num_cores)
            if t.hop_distance(a, b) == 1
        }
        assert set(links) == adjacent_pairs


def test_hop_distance_examples():
    t = MeshTopology(4, 4)
    assert t.hop_distance(0, 0) == 0
    assert t.hop_distance(0, 15) == 6
    assert t.hop_distance(0, 3) == 3
    assert t.diameter == 6


def test_hop_distance_bounds_error():
    t = MeshTopology(4, 4)
    with pytest.raises(ValueError):
        t.hop_distance(0, 16)
    with pytest.raises(ValueError):
        t.coord_of(-1)


def test_xy_route_corner_to_corner():
    t = MeshTopology(4, 4)
    assert t.xy_route(0, 15) == [0, 1, 2, 3, 7, 11, 15]


def test_xy_route_trivial_and_single_hop():
    t = MeshTopology(4, 4)
    assert t.xy_route(0, 0) == [0]
    assert t.xy_route(5, 6) == [5, 6]


@pytest.mark.parametrize("t", MESHES, ids=lambda t: f"{t.width}x{t.height}")
def test_xy_route_properties_exhaustive(t):
    for src in range(t.num_cores):
        for dst in range(t.num_cores):
            route = t.xy_route(src, dst)
            assert len(route) == t.hop_distance(src, dst) + 1
            assert len(set(route)) == len(route)
            assert route[0] == src and route[-1] == dst
            for a, b in zip(route, route[1:]):
                assert t.hop_distance(a, b) == 1
            # x is corrected before y ever changes
            dst_x = t.coord_of(dst)[0]
            seen_y_move = False
            for a, b in zip(route, route[1:]):
                if t.coord_of(a)[1] != t.coord_of(b)[1]:
                    seen_y_move = True
                elif seen_y_move:
                    pytest.fail(f"route {src}->{dst} moved x after y")
            if len(route) > 1 and t.coord_of(src)[0] != dst_x:
                assert t.coord_of(route[1])[1] == t.coord_of(src)[1]


def test_xy_routes_of_swapped_endpoints_differ_for_diagonal_pairs():
    t = MeshTopology(4, 4)
    forward = t.xy_route(0, 5)
    backward = t.xy_route(5, 0)
    assert forward == [0, 1, 5]
    assert backward == [5, 4, 0]
    assert forward != list(reversed(backward))


def test_bsm_link_is_canonical_and_symmetric():
    t = MeshTopology(4, 4)
    assert t.bsm_link_between(1, 0) == (0, 1)
    assert t.bsm_link_between(3, 7) == (3, 7)
    for a, b in t.bsm_links():
        assert t.bsm_link_between(a, b) == t.bsm_link_between(b, a)


def test_bsm_link_rejects_non_adjacent_pair():
    t = MeshTopology(4, 4)
    with pytest.raises(ValueError):
        t.bsm_link_between(0, 15)
    with pytest.raises(ValueError):
        t.bsm_link_between(2, 2)
    with pytest.raises(ValueError, match="non-adjacent"):
        t.bsm_link_between(3, 4)  # consecutive ids on different rows
    with pytest.raises(ValueError, match="outside"):
        t.bsm_link_between(-1, 0)  # must not wrap around a table


def test_rejects_degenerate_dimensions():
    with pytest.raises(ValueError):
        MeshTopology(0, 4)


@pytest.mark.parametrize("t", MESHES, ids=lambda t: f"{t.width}x{t.height}")
def test_ring_matches_brute_force_filter(t):
    fresh = MeshTopology(t.width, t.height)  # an empty ring table, whatever earlier tests cached on t
    for _table in ("cold", "warm"):
        for origin in range(t.num_cores):
            for radius in range(t.diameter + 2):
                expected = tuple(c for c in range(t.num_cores) if t.hop_distance(origin, c) == radius)
                assert fresh.ring(origin, radius) == expected


def test_ring_cannot_be_mutated_into_a_later_answer():
    t = MeshTopology(4, 4)
    ring = t.ring(5, 1)
    with pytest.raises(TypeError):
        ring[0] = 15
    ring += (15,)  # rebinds the caller's name only
    assert t.ring(5, 1) == (1, 4, 6, 9)


def test_equal_meshes_share_no_ring_table():
    a, b = MeshTopology(4, 4), MeshTopology(4, 4)
    assert a == b and a._rings is not b._rings
    assert a.ring(0, 2) is a.ring(0, 2)
    assert b._rings == {}
    assert b.ring(0, 2) == a.ring(0, 2) and b.ring(0, 2) is not a.ring(0, 2)


def test_ring_rejects_out_of_range_origin():
    t = MeshTopology(4, 4)
    for _table in ("cold", "warm"):
        for origin in (-1, 16):
            with pytest.raises(ValueError, match="outside"):
                t.ring(origin, 1)
        for origin in range(t.num_cores):
            t.ring(origin, 1)
    assert (-1, 1) not in t._rings


@pytest.mark.parametrize("t", MESHES, ids=lambda t: f"{t.width}x{t.height}")
def test_xy_route_matches_step_by_step_reference(t):
    for src in range(t.num_cores):
        for dst in range(t.num_cores):
            assert t.xy_route(src, dst) == xy_route_by_steps(t, src, dst)


def test_xy_route_rejects_out_of_range_endpoints():
    t = MeshTopology(4, 4)
    for src, dst in ((-1, 0), (0, -1), (-1, -1), (0, 16), (16, 0)):
        with pytest.raises(ValueError, match="outside"):
            t.xy_route(src, dst)
