import pytest

from qnocsim.topology import MeshTopology

MESHES = [MeshTopology(1, 1), MeshTopology(2, 3), MeshTopology(4, 4), MeshTopology(5, 2), MeshTopology(8, 8)]


def test_core_numbering_is_row_major():
    t = MeshTopology(4, 4)
    assert t.core_at(0, 0) == 0
    assert t.core_at(3, 3) == 15
    assert t.core_at(3, 0) == 3


@pytest.mark.parametrize("t", MESHES, ids=lambda t: f"{t.width}x{t.height}")
def test_coord_roundtrip(t):
    for core in range(t.num_cores):
        assert t.core_at(*t.coord_of(core)) == core


@pytest.mark.parametrize("t", MESHES, ids=lambda t: f"{t.width}x{t.height}")
def test_neighbor_degrees(t):
    for core in range(t.num_cores):
        x, y = t.coord_of(core)
        expected = 4 - (x == 0) - (x == t.width - 1) - (y == 0) - (y == t.height - 1)
        assert len(t.neighbors(core)) == expected
    if t.width >= 3 and t.height >= 3:
        corners = [t.core_at(0, 0), t.core_at(t.width - 1, t.height - 1)]
        assert all(len(t.neighbors(c)) == 2 for c in corners)
        assert len(t.neighbors(t.core_at(1, 0))) == 3
        assert len(t.neighbors(t.core_at(1, 1))) == 4


def test_bsm_link_count_matches_grid_formula():
    for t in MESHES:
        links = t.bsm_links()
        assert len(links) == t.height * (t.width - 1) + t.width * (t.height - 1)
        assert len(set(links)) == len(links)
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
        t.core_at(4, 0)
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
