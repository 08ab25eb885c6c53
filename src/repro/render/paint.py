"""Display-list construction: turn a layout tree into paint commands."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.render.box import LayoutBox, Rect, TextRun
from repro.render.raster import Canvas


@dataclass(frozen=True)
class FillCommand:
    rect: Rect
    color: tuple[int, int, int]
    gradient: bool = False


@dataclass(frozen=True)
class StrokeCommand:
    rect: Rect
    color: tuple[int, int, int]
    width: int


@dataclass(frozen=True)
class TextCommand:
    run: TextRun


@dataclass(frozen=True)
class PlaceholderCommand:
    rect: Rect
    texture_seed: int = 0


PaintCommand = Union[FillCommand, StrokeCommand, TextCommand, PlaceholderCommand]


def build_display_list(root: LayoutBox) -> list[PaintCommand]:
    """Paint order: each box's background and border, then its text, then
    children — a pre-order walk, which matches stacking of non-positioned
    content."""
    commands: list[PaintCommand] = []
    _paint_box(root, commands)
    return commands


def _paint_box(box: LayoutBox, commands: list[PaintCommand]) -> None:
    # Zero-size boxes paint nothing themselves but still paint their
    # children (e.g. collapsed rows).
    if box.rect.width > 0 and box.rect.height > 0:
        if box.background is not None:
            commands.append(
                FillCommand(box.rect, box.background, gradient=box.gradient)
            )
        if box.border_width > 0 and box.border_color is not None:
            commands.append(
                StrokeCommand(
                    box.rect, box.border_color, max(1, int(box.border_width))
                )
            )
        if box.box_type == "image":
            commands.append(
                PlaceholderCommand(box.rect, texture_seed=box.texture_seed)
            )
    for run in box.text_runs:
        commands.append(TextCommand(run))
    for child in box.children:
        _paint_box(child, commands)


def paint_onto(canvas: Canvas, commands: list[PaintCommand]) -> None:
    """Execute a display list against a :class:`Canvas`.

    Fills, strokes and placeholders are painted one at a time; each
    maximal sequence of consecutive text commands between them goes to
    ``Canvas.draw_runs`` as one batch, which stamps its runs in order.
    Nothing moves across a non-text command, so the canvas ends as if
    every command were painted alone, in list order.
    """
    runs: list[TextRun] = []
    for command in commands:
        if isinstance(command, TextCommand):
            runs.append(command.run)
            continue
        if runs:
            canvas.draw_runs(runs)
            runs = []
        if isinstance(command, FillCommand):
            if command.gradient:
                canvas.fill_gradient(command.rect, command.color)
            else:
                canvas.fill_rect(command.rect, command.color)
        elif isinstance(command, StrokeCommand):
            canvas.stroke_rect(command.rect, command.color, command.width)
        elif isinstance(command, PlaceholderCommand):
            canvas.draw_photo_placeholder(command.rect, command.texture_seed)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown paint command {command!r}")
    if runs:
        canvas.draw_runs(runs)
