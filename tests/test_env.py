"""Grid world: map parsing, sensing, frontiers, and the map generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlfrontier.env import (
    ACTIONS,
    DOWN,
    LEFT,
    RIGHT,
    STAY,
    UP,
    KnownSet,
    MapFormatError,
    format_map,
    frontiers,
    info_gain,
    is_frontier,
    load_map,
    random_map,
    sense,
)

EMPTY_2X2 = """map 2 2
start 0 0
legend
..
..
"""

LABELED = """map 4 3
start 0 0
legend L=l P=p S=s
.LL.
.LP.
...S
"""


class TestLoadMap:
    def test_minimal(self):
        grid = load_map(EMPTY_2X2)
        assert (grid.width, grid.height) == (2, 2)
        assert grid.start == (0, 0)
        assert grid.labels == {}
        assert grid.one_way_label is None

    def test_labels_and_one_way_default(self):
        grid = load_map(LABELED)
        assert grid.labels[(1, 0)] == "l"
        assert grid.labels[(2, 1)] == "p"
        assert grid.labels[(3, 2)] == "s"
        assert grid.alphabet.names == ("l", "p", "s")
        assert grid.one_way_label == "l"

    def test_letter_at(self):
        grid = load_map(LABELED)
        assert grid.letter_at((0, 0)) == frozenset()
        assert grid.letter_at((2, 1)) == frozenset({"p"})

    def test_row_length_mismatch(self):
        with pytest.raises(MapFormatError, match="row"):
            load_map("map 3 2\nstart 0 0\nlegend\n...\n..\n")

    def test_row_count_mismatch(self):
        with pytest.raises(MapFormatError, match="rows"):
            load_map("map 2 3\nstart 0 0\nlegend\n..\n..\n")

    def test_unknown_character(self):
        with pytest.raises(MapFormatError, match="unknown map character"):
            load_map("map 2 2\nstart 0 0\nlegend\n.X\n..\n")

    def test_missing_start(self):
        with pytest.raises(MapFormatError, match="start"):
            load_map("map 2 2\nlegend\n..\n..\n")

    def test_start_out_of_bounds(self):
        with pytest.raises(MapFormatError, match="outside"):
            load_map("map 2 2\nstart 5 0\nlegend\n..\n..\n")

    def test_reserved_dot(self):
        with pytest.raises(MapFormatError, match="reserved"):
            load_map("map 2 2\nstart 0 0\nlegend .=l\n..\n..\n")

    def test_format_roundtrip(self):
        grid = load_map(LABELED)
        assert load_map(format_map(grid)).labels == grid.labels


class TestTransitions:
    def test_four_connected_moves(self):
        grid = load_map(EMPTY_2X2)
        assert grid.move((0, 0), RIGHT) == (1, 0)
        assert grid.move((0, 0), DOWN) == (0, 1)
        assert grid.move((0, 0), UP) is None
        assert grid.move((0, 0), LEFT) is None

    def test_stay_is_identity(self):
        grid = load_map(LABELED)
        for cell in grid.cells():
            assert grid.move(cell, STAY) == cell

    def test_one_way_blocks_exits_to_unlabeled(self):
        grid = load_map(LABELED)
        # (1,1) is l; left neighbor (0,1) is unlabeled, up neighbor (1,0) is l
        assert grid.move((1, 1), LEFT) is None
        assert grid.move((1, 1), UP) == (1, 0)
        # labeled destinations stay reachable: (2,1) is p
        assert grid.move((1, 1), RIGHT) == (2, 1)

    def test_unlabeled_to_labeled_always_exists(self):
        grid = load_map(LABELED)
        assert grid.move((0, 0), RIGHT) == (1, 0)

    def test_determinism(self):
        grid = load_map(LABELED)
        for cell in grid.cells():
            for action in ACTIONS:
                assert grid.move(cell, action) == grid.move(cell, action)


def big_empty(n=20):
    rows = "\n".join("." * n for _ in range(n))
    return load_map(f"map {n} {n}\nstart 0 0\nlegend\n{rows}\n")


class TestSensing:
    def test_center_diamond(self):
        grid = big_empty()
        k = sense(grid, (10, 10), 3, KnownSet())
        assert len(k) == 25

    def test_corner_clipping(self):
        grid = big_empty()
        k = sense(grid, (0, 0), 1, KnownSet())
        assert k.cells == frozenset({(0, 0), (1, 0), (0, 1)})

    def test_idempotent(self):
        grid = big_empty()
        k1 = sense(grid, (5, 5), 3, KnownSet())
        k2 = sense(grid, (5, 5), 3, k1)
        assert k1 == k2

    def test_monotone(self):
        grid = big_empty()
        k1 = sense(grid, (5, 5), 3, KnownSet())
        k2 = sense(grid, (12, 12), 3, k1)
        assert k1.cells <= k2.cells

    @given(st.integers(0, 19), st.integers(0, 19), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_diamond_is_manhattan_ball(self, c, r, h):
        grid = big_empty()
        k = sense(grid, (c, r), h, KnownSet())
        expected = {
            cell
            for cell in grid.cells()
            if abs(cell[0] - c) + abs(cell[1] - r) <= h
        }
        assert k.cells == expected


class TestFrontiers:
    def test_fully_known_has_none(self):
        grid = load_map(EMPTY_2X2)
        k = sense(grid, (0, 0), 4, KnownSet())
        assert len(k) == 4
        assert frontiers(grid, k) == set()

    def test_ring_cells_are_frontiers(self):
        grid = big_empty()
        k = sense(grid, (10, 10), 1, KnownSet())
        fs = frontiers(grid, k)
        assert (10, 10) not in fs
        assert fs == {(9, 10), (11, 10), (10, 9), (10, 11)}

    def test_one_by_one_map(self):
        grid = load_map("map 1 1\nstart 0 0\nlegend\n.\n")
        k = sense(grid, (0, 0), 1, KnownSet())
        assert frontiers(grid, k) == set()

    def test_is_frontier_matches_set(self):
        grid = big_empty()
        k = sense(grid, (4, 7), 3, KnownSet())
        fs = frontiers(grid, k)
        for cell in k.cells:
            assert is_frontier(grid, k, cell) == (cell in fs)


class TestInfoGain:
    def test_zero_when_everything_known(self):
        grid = load_map(EMPTY_2X2)
        k = sense(grid, (0, 0), 4, KnownSet())
        assert info_gain(grid, (0, 0), 3, k) == 0

    def test_interior_diamond_minus_self(self):
        grid = big_empty()
        k = KnownSet(frozenset({(10, 10)}))
        assert info_gain(grid, (10, 10), 3, k) == 24

    def test_bounded_by_unknown_count(self):
        grid = big_empty()
        k = sense(grid, (3, 3), 3, KnownSet())
        unknown = grid.size() - len(k)
        for cell in frontiers(grid, k):
            assert 0 < info_gain(grid, cell, 3, k) <= unknown

    def test_unknown_cell_rejected(self):
        grid = big_empty()
        with pytest.raises(ValueError):
            info_gain(grid, (10, 10), 3, KnownSet())


class TestRandomMap:
    def test_no_blocks_means_no_l(self):
        grid = random_map(20, 0, seed=1)
        assert "l" not in set(grid.labels.values())
        assert sorted(grid.labels.values()) == ["p", "p", "s", "s"]

    def test_deterministic(self):
        a = random_map(20, 5, seed=42)
        b = random_map(20, 5, seed=42)
        assert format_map(a) == format_map(b)

    def test_different_seeds_differ(self):
        assert format_map(random_map(20, 5, seed=1)) != format_map(random_map(20, 5, seed=2))

    def test_blocks_fully_inside(self):
        for seed in range(10):
            grid = random_map(20, 5, seed=seed)
            for (c, r), name in grid.labels.items():
                assert 0 <= c < 20 and 0 <= r < 20

    def test_constraint_holds(self):
        from collections import deque

        for seed in range(25):
            grid = random_map(20, 5, seed=seed)
            # breadth-first over non-l cells from the start
            seen = {grid.start}
            queue = deque([grid.start])
            assert grid.labels.get(grid.start) != "l"
            while queue:
                cell = queue.popleft()
                for nxt in grid.neighbors4(cell):
                    if nxt in seen or grid.labels.get(nxt) == "l":
                        continue
                    seen.add(nxt)
                    queue.append(nxt)
            labels = {grid.labels.get(cell) for cell in seen}
            assert "p" in labels and "s" in labels

    def test_alphabet_always_declares_all_labels(self):
        grid = random_map(20, 0, seed=3)
        assert grid.alphabet.names == ("l", "p", "s")

    def test_size_guard(self):
        with pytest.raises(ValueError):
            random_map(5, 0, seed=0)
