"""Grid-world transition system with hop-limited sensing.

Cells are (col, row) with row 0 at the top. Motion is 4-connected plus
Stay; every state-action pair has unit weight. Cells carry at most one
observation, so environment letters are empty or singletons.

Labels named by `one_way_label` mark ground that cannot be left for
unlabeled cells: once the robot stands on such a cell, only labeled
neighbors remain reachable. Sensing and frontier adjacency ignore this
and use plain undirected 4-adjacency (sensors see terrain regardless of
traversability).

The frontier layer is kept, not recomputed. Each `KnownSet` that `sense`
returns carries its frontier cells and the information gains asked of it
so far (`FrontierLayer`). Sensing re-tests only the newly known cells and
their 4-neighbours, the only cells whose frontier status can change, and
lowers each cached gain by the new cells within its radius, as the
incremental detection of Keidar and Kaminka's Fast Frontier Detector does
("Efficient frontier detection for robot exploration", IJRR 2014). So
`frontiers` and `is_frontier` read a set, and `info_gain` scans a diamond
only for a cell it has not seen. A known set built by hand gets its layer
from one full scan, on first use.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Iterator, Optional

from .scltl.alphabet import EMPTY_LETTER, AlphabetError, Letter, ObservationSet

Cell = tuple

UP, DOWN, LEFT, RIGHT, STAY = "up", "down", "left", "right", "stay"
ACTIONS = (UP, DOWN, LEFT, RIGHT, STAY)
_MOVES = {UP: (0, -1), DOWN: (0, 1), LEFT: (-1, 0), RIGHT: (1, 0), STAY: (0, 0)}


class MapFormatError(ValueError):
    """Malformed map text."""


class MapGenerationError(RuntimeError):
    """Random generation could not meet the placement constraint."""


@dataclass(frozen=True, eq=False)
class GridMap:
    width: int
    height: int
    start: Cell
    labels: dict  # cell -> observation name
    alphabet: ObservationSet
    legend: dict  # map character -> observation name
    one_way_label: Optional[str] = None

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise MapFormatError("map dimensions must be positive")
        if not self.in_bounds(self.start):
            raise MapFormatError(f"start {self.start} outside the {self.width}x{self.height} grid")
        for cell, name in self.labels.items():
            if not self.in_bounds(cell):
                raise MapFormatError(f"labeled cell {cell} outside the grid")
            if name not in self.alphabet:
                raise MapFormatError(f"label {name!r} not in the declared alphabet")

    def in_bounds(self, cell: Cell) -> bool:
        c, r = cell
        return 0 <= c < self.width and 0 <= r < self.height

    def cells(self) -> Iterator:
        for r in range(self.height):
            for c in range(self.width):
                yield (c, r)

    def size(self) -> int:
        return self.width * self.height

    @cached_property
    def _singletons(self) -> dict:
        """One shared letter per observation name, built on first use."""
        return {name: frozenset((name,)) for name in self.alphabet}

    def letter_at(self, cell: Cell) -> Letter:
        name = self.labels.get(cell)
        return EMPTY_LETTER if name is None else self._singletons[name]

    def neighbors4(self, cell: Cell) -> list:
        """Undirected adjacency, used by sensing and frontier detection."""
        c, r = cell
        out = []
        for dc, dr in ((0, -1), (0, 1), (-1, 0), (1, 0)):
            nxt = (c + dc, r + dr)
            if self.in_bounds(nxt):
                out.append(nxt)
        return out

    def move(self, cell: Cell, action: str) -> Optional[Cell]:
        """Deterministic transition; None when the move does not exist."""
        if action == STAY:
            return cell
        dc, dr = _MOVES[action]
        nxt = (cell[0] + dc, cell[1] + dr)
        if not self.in_bounds(nxt):
            return None
        ow = self.one_way_label
        if ow is not None and self.labels.get(cell) == ow and nxt not in self.labels:
            # one-way ground: no way back onto unlabeled cells
            return None
        return nxt

    def glyph(self, cell: Cell) -> str:
        name = self.labels.get(cell)
        if name is None:
            return "."
        for char, obs in self.legend.items():
            if obs == name:
                return char
        return name[0].upper()


@dataclass
class FrontierLayer:
    """The frontier cells of one known set on one grid, and the information
    gains asked of it so far, each for sensing radius `gain_h`."""

    grid: GridMap
    cells: frozenset
    gain_h: int = 0
    gains: dict = field(default_factory=dict)  # cell -> unknown cells within gain_h


@dataclass(frozen=True)
class KnownSet:
    """The cells whose labels have been revealed so far.

    `layer` is the set's frontier layer, carried forward by `sense`; it is
    not part of the set's value.
    """

    cells: frozenset = frozenset()
    layer: Optional[FrontierLayer] = field(default=None, compare=False, repr=False)

    def __contains__(self, cell: Cell) -> bool:
        return cell in self.cells

    def __len__(self) -> int:
        return len(self.cells)

    def frontier_layer(self, grid: GridMap) -> FrontierLayer:
        """The frontier layer on `grid`, built by one scan of the known
        cells unless `sense` carried it forward to this set."""
        layer = self.layer
        if layer is None or layer.grid is not grid:
            known = self.cells
            layer = FrontierLayer(grid, frozenset(c for c in known if not known.issuperset(grid.neighbors4(c))))
            object.__setattr__(self, "layer", layer)  # a memo, not part of the value
        return layer


def load_map(text: str) -> GridMap:
    """Parse the plain-text map format.

    Line 1: ``map <width> <height>``; line 2: ``start <col> <row>``;
    line 3: ``legend <char>=<obs> ...`` ('.' is reserved for unlabeled);
    then `height` rows of `width` characters.
    """
    lines = [line.rstrip("\r") for line in text.splitlines()]
    while lines and not lines[-1].strip():
        lines.pop()
    if len(lines) < 3:
        raise MapFormatError("expected map, start, and legend header lines")

    fields = lines[0].split()
    if len(fields) != 3 or fields[0] != "map":
        raise MapFormatError("line 1 must be 'map <width> <height>'")
    try:
        width, height = int(fields[1]), int(fields[2])
    except ValueError:
        raise MapFormatError("map dimensions must be integers") from None

    fields = lines[1].split()
    if len(fields) != 3 or fields[0] != "start":
        raise MapFormatError("line 2 must be 'start <col> <row>' (missing start)")
    try:
        start = (int(fields[1]), int(fields[2]))
    except ValueError:
        raise MapFormatError("start coordinates must be integers") from None

    fields = lines[2].split()
    if not fields or fields[0] != "legend":
        raise MapFormatError("line 3 must be 'legend <char>=<obs> ...'")
    legend = {}
    for item in fields[1:]:
        char, sep, obs = item.partition("=")
        if not sep or len(char) != 1 or not obs:
            raise MapFormatError(f"bad legend entry {item!r}")
        if char == ".":
            raise MapFormatError("'.' is reserved for unlabeled cells")
        if char in legend:
            raise MapFormatError(f"duplicate legend character {char!r}")
        legend[char] = obs
    try:
        alphabet = ObservationSet(legend.values())
    except AlphabetError as exc:
        raise MapFormatError(f"bad legend: {exc}") from None

    rows = lines[3:]
    if len(rows) != height:
        raise MapFormatError(f"expected {height} grid rows, found {len(rows)}")
    labels = {}
    for r, row in enumerate(rows):
        if len(row) != width:
            raise MapFormatError(f"grid row {r} has {len(row)} characters, expected {width}")
        for c, char in enumerate(row):
            if char == ".":
                continue
            if char not in legend:
                raise MapFormatError(f"unknown map character {char!r} at ({c}, {r})")
            labels[(c, r)] = legend[char]

    one_way = "l" if "l" in alphabet else None
    return GridMap(
        width=width,
        height=height,
        start=start,
        labels=labels,
        alphabet=alphabet,
        legend=legend,
        one_way_label=one_way,
    )


def format_map(grid: GridMap) -> str:
    """Inverse of `load_map`."""
    inverse = {obs: char for char, obs in grid.legend.items()}
    lines = [
        f"map {grid.width} {grid.height}",
        f"start {grid.start[0]} {grid.start[1]}",
        "legend " + " ".join(f"{char}={obs}" for char, obs in sorted(grid.legend.items())),
    ]
    for r in range(grid.height):
        lines.append(
            "".join(
                inverse.get(grid.labels.get((c, r)), ".") for c in range(grid.width)
            )
        )
    return "\n".join(lines) + "\n"


@cache
def _ball(h: int) -> tuple:
    """The offsets `(dc, dr)` within h undirected hops of a cell."""
    return tuple((dc, dr) for dr in range(-h, h + 1) for dc in range(abs(dr) - h, h - abs(dr) + 1))


def _diamond(grid: GridMap, x: Cell, h: int) -> set:
    """Cells within h undirected hops of x (a clipped Manhattan diamond)."""
    c0, r0 = x
    w, hh = grid.width, grid.height
    # no radius past the grid's largest Manhattan distance reaches more cells
    ball = _ball(min(h, w + hh - 2))
    return {(c0 + dc, r0 + dr) for dc, dr in ball if 0 <= c0 + dc < w and 0 <= r0 + dr < hh}


def sense(grid: GridMap, x: Cell, h: int, k: KnownSet) -> KnownSet:
    """Reveal every cell within h hops of x; idempotent, only ever grows.

    The result carries the frontier layer of `k` forward: only the newly
    known cells and their 4-neighbours are tested again, and each cached
    gain drops by the new cells within its radius.
    """
    if h < 1:
        raise ValueError("sensing radius must be at least 1")
    if not grid.in_bounds(x):
        raise ValueError(f"sensing position {x} outside the grid")
    new = _diamond(grid, x, h) - k.cells
    if not new:
        return k
    old = k.frontier_layer(grid)
    known = k.cells | new
    touched = set(new)
    for cell in new:
        touched.update(grid.neighbors4(cell))
    cells = set(old.cells)
    for cell in touched:
        if cell in known and not known.issuperset(grid.neighbors4(cell)):
            cells.add(cell)
        else:
            cells.discard(cell)
    gains = {cell: gain for cell, gain in old.gains.items() if cell in cells}
    if gains:
        ball = _ball(min(old.gain_h, grid.width + grid.height - 2))
        for c, r in new:
            for dc, dr in ball:
                near = (c + dc, r + dr)
                if near in gains:  # so in bounds
                    gains[near] -= 1
    return KnownSet(known, FrontierLayer(grid, frozenset(cells), old.gain_h, gains))


def is_frontier(grid: GridMap, k: KnownSet, cell: Cell) -> bool:
    return cell in k.frontier_layer(grid).cells


def frontiers(grid: GridMap, k: KnownSet) -> frozenset:
    """Known cells adjacent to at least one unknown cell."""
    return k.frontier_layer(grid).cells


def info_gain(grid: GridMap, x: Cell, h: int, k: KnownSet) -> int:
    """Number of still-unknown cells a visit to x would reveal."""
    if x not in k.cells:
        raise ValueError(f"information gain queried for unknown cell {x}")
    layer = k.frontier_layer(grid)
    if layer.gain_h != h:
        layer.gain_h, layer.gains = h, {}
    gain = layer.gains.get(x)
    if gain is None:
        gain = layer.gains[x] = sum(1 for cell in _diamond(grid, x, h) if cell not in k.cells)
    return gain


def _non_blocked_reach(grid: GridMap, blocked_label: str) -> set:
    """Cells reachable from the start without crossing `blocked_label` cells."""
    if grid.labels.get(grid.start) == blocked_label:
        return set()
    seen = {grid.start}
    queue = deque([grid.start])
    while queue:
        cell = queue.popleft()
        for nxt in grid.neighbors4(cell):
            if nxt in seen or grid.labels.get(nxt) == blocked_label:
                continue
            seen.add(nxt)
            queue.append(nxt)
    return seen


RANDOM_MAP_MIN_SIZE = 10


def random_map(
    size: int,
    n_blocks: int,
    seed: int,
    block: int = 5,
    max_attempts: int = 10_000,
) -> GridMap:
    """Benchmark map: `n_blocks` l-labeled blocks plus two p and two s cells.

    Blocks are placed uniformly, fully inside the grid (mutual overlap is
    fine). Maps are rejection-sampled until at least one p and one s cell
    lie outside the blocks and are reachable from the start without
    touching an l cell. Deterministic for a fixed seed.
    """
    if size < RANDOM_MAP_MIN_SIZE:
        raise ValueError(f"size must be at least {RANDOM_MAP_MIN_SIZE}")
    if n_blocks < 0:
        raise ValueError("n_blocks must be non-negative")
    rng = random.Random(seed)
    legend = {"L": "l", "P": "p", "S": "s"}
    alphabet = ObservationSet(legend.values())
    start = (0, 0)
    pool = [cell for cell in ((c, r) for r in range(size) for c in range(size)) if cell != start]

    for _ in range(max_attempts):
        labels = {}
        for _ in range(n_blocks):
            c0 = rng.randrange(size - block + 1)
            r0 = rng.randrange(size - block + 1)
            for r in range(r0, r0 + block):
                for c in range(c0, c0 + block):
                    labels[(c, r)] = "l"
        special = rng.sample(pool, 4)
        for cell in special[:2]:
            labels[cell] = "p"
        for cell in special[2:]:
            labels[cell] = "s"
        grid = GridMap(
            width=size,
            height=size,
            start=start,
            labels=labels,
            alphabet=alphabet,
            legend=legend,
            one_way_label="l",
        )
        reach = _non_blocked_reach(grid, "l")
        has_p = any(labels.get(cell) == "p" for cell in reach)
        has_s = any(labels.get(cell) == "s" for cell in reach)
        if has_p and has_s:
            return grid
    raise MapGenerationError(
        f"no valid map after {max_attempts} attempts (size={size}, n_blocks={n_blocks}, seed={seed})"
    )
