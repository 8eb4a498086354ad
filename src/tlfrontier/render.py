"""Batch rendering of episodes: ascii frames and a final-state svg.

Glyphs: '?' unknown, '.' known unlabeled, the legend character for labeled
cells, '@' the robot, '*' the trail so far.
"""

from __future__ import annotations

from dataclasses import dataclass

from .env import GridMap, KnownSet, sense

_LABEL_COLORS = {"l": "#e8c547", "p": "#58a55c", "s": "#4a7ebb"}
_FALLBACK_COLORS = ("#b06ab3", "#d97642", "#6aa3a0", "#8d8741")


class RenderError(ValueError):
    """Unsupported format or inconsistent trajectory."""


@dataclass(frozen=True)
class RenderFrame:
    step: int
    rows: tuple  # one string per map row

    def text(self) -> str:
        return "\n".join(self.rows)


def replay_known_sets(grid: GridMap, trajectory, h: int) -> list:
    """Known-set timeline implied by sensing at every visited cell."""
    known = KnownSet()
    timeline = []
    for cell in trajectory:
        known = sense(grid, cell, h, known)
        timeline.append(known)
    return timeline


def ascii_frame(grid: GridMap, known: KnownSet, trajectory, step: int) -> RenderFrame:
    robot = trajectory[step]
    trail = set(trajectory[: step + 1])
    rows = []
    for r in range(grid.height):
        chars = []
        for c in range(grid.width):
            cell = (c, r)
            if cell == robot:
                chars.append("@")
            elif cell not in known:
                chars.append("?")
            elif cell in trail:
                chars.append("*")
            else:
                chars.append(grid.glyph(cell))
        rows.append("".join(chars))
    return RenderFrame(step=step, rows=tuple(rows))


def _svg_color(grid: GridMap, name: str) -> str:
    if name in _LABEL_COLORS:
        return _LABEL_COLORS[name]
    others = sorted(n for n in grid.alphabet.names if n not in _LABEL_COLORS)
    return _FALLBACK_COLORS[others.index(name) % len(_FALLBACK_COLORS)]


def svg_document(grid: GridMap, known: KnownSet, trajectory) -> str:
    """Self-contained svg of the final state with the full trail."""
    cell_px = 24
    w = grid.width * cell_px
    h = grid.height * cell_px
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="#ffffff"/>',
    ]
    for r in range(grid.height):
        for c in range(grid.width):
            cell = (c, r)
            if cell not in known:
                fill = "#9a9a9a"
            else:
                name = grid.labels.get(cell)
                fill = "#ffffff" if name is None else _svg_color(grid, name)
            parts.append(
                f'<rect x="{c * cell_px}" y="{r * cell_px}" width="{cell_px}" '
                f'height="{cell_px}" fill="{fill}" stroke="#d0d0d0"/>'
            )
    if trajectory:
        points = " ".join(
            f"{c * cell_px + cell_px // 2},{r * cell_px + cell_px // 2}"
            for c, r in trajectory
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="#111111" stroke-width="2"/>'
        )
        sc, sr = trajectory[0]
        parts.append(
            f'<circle cx="{sc * cell_px + cell_px // 2}" cy="{sr * cell_px + cell_px // 2}" '
            f'r="{cell_px // 3}" fill="none" stroke="#cc2222" stroke-width="3"/>'
        )
        fc, fr = trajectory[-1]
        parts.append(
            f'<circle cx="{fc * cell_px + cell_px // 2}" cy="{fr * cell_px + cell_px // 2}" '
            f'r="{cell_px // 4}" fill="#cc2222"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def render_trajectory(grid: GridMap, timeline, trajectory, fmt: str = "ascii", steps=None) -> str:
    """Render the requested steps of an episode.

    `timeline` is the known-set after each trajectory position (see
    `replay_known_sets`). Ascii renders one frame per requested step
    (default: the final one); svg always renders the final state.
    """
    if len(timeline) != len(trajectory):
        raise RenderError("timeline and trajectory lengths differ")
    for cell in trajectory:
        if not grid.in_bounds(cell):
            raise RenderError(f"trajectory cell {cell} outside the grid")
    if fmt == "ascii":
        if steps is None:
            steps = [len(trajectory) - 1]
        frames = []
        for step in steps:
            if not 0 <= step < len(trajectory):
                raise RenderError(f"step {step} outside the episode (0-{len(trajectory) - 1})")
            frame = ascii_frame(grid, timeline[step], trajectory, step)
            frames.append(f"step {frame.step}\n{frame.text()}")
        return "\n\n".join(frames) + "\n"
    if fmt == "svg":
        return svg_document(grid, timeline[-1], trajectory) + "\n"
    raise RenderError(f"unsupported format {fmt!r}")
