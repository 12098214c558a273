"""Renders forecast documents into the four study layouts.

Conditions: ``baseline`` (summary first, then period blocks), ``summary_last``
(period blocks first), ``icons`` (baseline plus a worst-case icon row at the
top), and ``per_day_icons`` (summary-last plus an icon row inside every
period block). Formats: ``svg``, ``html``, ``plain``.

Icons always augment the text; no rendering ever drops a sentence or a
field. The baseline and summary_last outputs contain exactly the same
elements, reordered. Rendering is pure: a document, a condition, a format,
and the scale tables fully determine the output bytes.
"""

from __future__ import annotations

import html
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .hazards import (
    DEFAULT_ICON_CONFIG,
    GLYPH_IDS,
    HazardIcon,
    HazardKind,
    IconRuleConfig,
    derive_document_icons,
    derive_icons,
    load_tables,
)
from .model import (  # noqa: F401  (the condition names are re-exported)
    CONDITION_TOKENS,
    FORMATS,
    ForecastDocument,
    ForecastPeriod,
    LayoutCondition,
    _fmt_num,
    condition_from_token,
    require_valid,
)

STYLESHEET_VERSION = "hsf-layout/1"


@dataclass(frozen=True)
class RenderedDocument:
    format: str
    payload: bytes
    manifest: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class _TextElement:
    element_id: str
    source: str
    lines: tuple[str, ...]


@dataclass(frozen=True)
class _IconRow:
    element_id: str
    source: str
    heading: str
    icons: tuple[HazardIcon, ...]


_CHILL_SHORT = {1: "30 MIN", 2: "10 MIN", 3: "5 MIN"}


def _short_label(icon: HazardIcon) -> str:
    if icon.kind is HazardKind.WIND:
        return f"F{icon.level}"
    if icon.kind is HazardKind.WIND_CHILL:
        return _CHILL_SHORT.get(icon.level, f"L{icon.level}")
    if icon.kind is HazardKind.FREEZING_TEMP:
        return "FREEZE"
    return "WINTER"


def _accessible_label(icon: HazardIcon) -> str:
    text = f"{icon.scale_name}: {icon.label}"
    if icon.gust_annotation is not None:
        text += f", gusts to {_fmt_num(icon.gust_annotation)} mph"
    return text


def _plain_icon(icon: HazardIcon) -> str:
    if icon.kind is HazardKind.WIND:
        inner = f"WIND F{icon.level}"
        if icon.gust_annotation is not None:
            inner += f" G{_fmt_num(icon.gust_annotation)}"
    elif icon.kind is HazardKind.WIND_CHILL:
        inner = f"WIND CHILL {_CHILL_SHORT.get(icon.level, f'L{icon.level}').replace(' ', '')}"
    elif icon.kind is HazardKind.FREEZING_TEMP:
        inner = "FREEZING"
    else:
        inner = "WINTER PRECIP"
    return f"[{inner}]"


@lru_cache(maxsize=None)
def _glyph_inner(glyph_id: str) -> str:
    """Inner markup of a packaged glyph, for inline embedding."""
    if glyph_id not in GLYPH_IDS.values():
        raise ValueError(f"unknown glyph_id {glyph_id!r}")
    path = resources.files("summitwx") / "assets" / "glyphs" / f"{glyph_id}.svg"
    text = path.read_text(encoding="utf-8").strip()
    open_end = text.index(">") + 1
    close_start = text.rindex("</svg>")
    return text[open_end:close_start]


def _glyph_color(background: str) -> str:
    """Dark strokes on light backgrounds, white on dark ones."""
    r, g, b = (int(background[i:i + 2], 16) for i in (1, 3, 5))
    luminance = (0.2126 * r + 0.7152 * g + 0.0722 * b) / 255.0
    return "#FFFFFF" if luminance < 0.5 else "#1A1A2E"


def _esc(text: str) -> str:
    return html.escape(text, quote=True)


def _icon_svg(icon: HazardIcon, element_id: str | None = None) -> str:
    inner = _glyph_inner(icon.glyph_id)
    label = _esc(_accessible_label(icon))
    id_attr = f' id="{element_id}"' if element_id else ""
    parts = [
        f'<g{id_attr} class="icon" role="img" aria-label="{label}">',
        f"<title>{label}</title>",
        f'<rect class="icon-bg" width="40" height="40" rx="6" fill="{icon.color}"/>',
        f'<g transform="translate(8 8)" style="color:{_glyph_color(icon.color)}">{inner}</g>',
    ]
    if icon.gust_annotation is not None:
        parts.append(
            f'<text class="icon-badge" x="37" y="37" text-anchor="end" '
            f'fill="{_glyph_color(icon.color)}">G{_fmt_num(icon.gust_annotation)}</text>'
        )
    parts.append(
        f'<text class="icon-label" x="20" y="51" text-anchor="middle">{_esc(_short_label(icon))}</text>'
    )
    parts.append("</g>")
    return "".join(parts)


def _icon_html(icon: HazardIcon, element_id: str | None = None) -> str:
    inner = _glyph_inner(icon.glyph_id)
    label = _esc(_accessible_label(icon))
    id_attr = f' id="{element_id}"' if element_id else ""
    badge = ""
    if icon.gust_annotation is not None:
        badge = f'<span class="icon-badge">G{_fmt_num(icon.gust_annotation)}</span>'
    return (
        f'<span{id_attr} class="icon" role="img" aria-label="{label}" '
        f'style="background:{icon.color};color:{_glyph_color(icon.color)}">'
        f'<svg viewBox="0 0 24 24" width="28" height="28" aria-hidden="true">{inner}</svg>'
        f"{badge}"
        f'<span class="icon-label">{_esc(_short_label(icon))}</span>'
        f"</span>"
    )


def render_icon(icon: HazardIcon, format: str = "plain") -> str:
    """Standalone graphic fragment for one icon."""
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {'|'.join(FORMATS)}")
    _glyph_inner(icon.glyph_id)
    if format == "plain":
        return _plain_icon(icon)
    if format == "svg":
        return _icon_svg(icon)
    return _icon_html(icon)


def _period_elements(index: int, period: ForecastPeriod) -> list[_TextElement]:
    n = index + 1
    prefix = f"periods[{index}]"
    out = [
        _TextElement(f"period-{n}-label", f"{prefix}.label", (f"{period.label}:",)),
        _TextElement(
            f"period-{n}-temperature",
            f"{prefix}.temperature",
            (f"  Temperatures: {_fmt_num(period.temperature.low)} to {_fmt_num(period.temperature.high)} F",),
        ),
    ]
    wind = period.wind
    direction = f"{wind.direction} " if wind.direction else ""
    wind_line = (
        f"  Winds: {direction}{_fmt_num(wind.sustained.low)} to {_fmt_num(wind.sustained.high)} mph"
    )
    if wind.gust_high is not None:
        wind_line += f", gusts to {_fmt_num(wind.gust_high)} mph"
    out.append(_TextElement(f"period-{n}-wind", f"{prefix}.wind", (wind_line,)))
    if period.wind_chill is not None:
        out.append(
            _TextElement(
                f"period-{n}-wind-chill",
                f"{prefix}.wind_chill",
                (f"  Wind chills: {_fmt_num(period.wind_chill.low)} to {_fmt_num(period.wind_chill.high)} F",),
            )
        )
    for k, event in enumerate(period.precip_events):
        kind_text = event.kind.value.replace("_", " ")
        out.append(
            _TextElement(
                f"period-{n}-precip-{k + 1}",
                f"{prefix}.precip_events[{k}]",
                (f"  Precipitation: {kind_text} ({event.certainty.value})",),
            )
        )
    for k, note in enumerate(period.extra_hazard_notes):
        out.append(
            _TextElement(
                f"period-{n}-note-{k + 1}",
                f"{prefix}.extra_hazard_notes[{k}]",
                (f"  Note: {note}",),
            )
        )
    return out


def _build_groups(
    doc: ForecastDocument,
    condition: LayoutCondition,
    tables,
    config: IconRuleConfig,
) -> list[list[object]]:
    masthead: list[object] = [
        _TextElement("title", "constant", ("HIGHER SUMMITS FORECAST",)),
        _TextElement("issued", "issued_at", (f"Issued: {doc.issued_at.isoformat()}",)),
    ]
    if doc.source_id:
        masthead.append(_TextElement("source", "source_id", (f"Source: {doc.source_id}",)))

    summary_group: list[object] = [
        _TextElement("summary", "summary_text", tuple(doc.summary_text.split("\n")))
    ]

    period_groups: list[list[object]] = []
    for i, period in enumerate(doc.periods):
        elements = _period_elements(i, period)
        if condition is LayoutCondition.PER_DAY_ICONS:
            row = _IconRow(
                f"icons-period-{i + 1}",
                f"derived:periods[{i}]",
                "HAZARDS:",
                derive_icons(period, tables, config),
            )
            elements.insert(1, row)
        period_groups.append(elements)

    groups = [masthead]
    if condition is LayoutCondition.ICONS:
        groups.append([
            _IconRow(
                "icons-overall",
                "derived:worst_case",
                "HAZARDS (48 HOURS):",
                derive_document_icons(doc, "overall", tables, config)[0],
            )
        ])
    if condition in (LayoutCondition.BASELINE, LayoutCondition.ICONS):
        groups.append(summary_group)
        groups.extend(period_groups)
    else:
        groups.extend(period_groups)
        groups.append(summary_group)
    return groups


def _manifest(groups: list[list[object]]) -> tuple[tuple[str, str], ...]:
    entries: list[tuple[str, str]] = []
    for group in groups:
        for el in group:
            entries.append((el.element_id, el.source))
            if isinstance(el, _IconRow):
                for k in range(len(el.icons)):
                    entries.append((f"{el.element_id}-icon-{k + 1}", el.source))
    return tuple(entries)


_PLAIN_SEPARATOR = "\n\n"


def _render_plain(groups: list[list[object]]) -> str:
    blocks = []
    for group in groups:
        lines: list[str] = []
        for el in group:
            if isinstance(el, _IconRow):
                lines.append(el.heading + "".join(f" {_plain_icon(i)}" for i in el.icons))
            else:
                lines.extend(el.lines)
        blocks.append("\n".join(lines))
    return _PLAIN_SEPARATOR.join(blocks) + "\n"


_SVG_STYLE = (
    f"/* {STYLESHEET_VERSION} */\n"
    "text { font-family: 'DejaVu Sans', Helvetica, Arial, sans-serif;"
    " font-size: 14px; fill: #1A1A2E; }\n"
    ".title { font-size: 16px; font-weight: bold; letter-spacing: 1px; }\n"
    ".row-heading { font-weight: bold; }\n"
    ".icon-label { font-size: 9px; }\n"
    ".icon-badge { font-size: 9px; font-weight: bold; }"
)

_PAD = 16
_LINE_H = 22
_ICON_CELL_H = 56
_ICON_PITCH = 48
_GROUP_GAP = 12


def _render_svg(groups: list[list[object]]) -> str:
    parts = ["", f"<style>{_SVG_STYLE}</style>"]  # the header waits for the height
    y = _PAD
    for group in groups:
        for el in group:
            if isinstance(el, _IconRow):
                parts.append(f'<g id="{el.element_id}">')
                parts.append(f'<text class="row-heading" x="{_PAD}" y="{y + 16}">{_esc(el.heading)}</text>')
                y += _LINE_H
                x = _PAD
                for k, icon in enumerate(el.icons):
                    parts.append(f'<g transform="translate({x} {y})">')
                    parts.append(_icon_svg(icon, element_id=f"{el.element_id}-icon-{k + 1}"))
                    parts.append("</g>")
                    x += _ICON_PITCH
                if el.icons:
                    y += _ICON_CELL_H
                parts.append("</g>")
            else:
                css = ' class="title"' if el.element_id == "title" else ""
                parts.append(f'<g id="{el.element_id}">')
                for line in el.lines:
                    parts.append(f'<text{css} x="{_PAD}" y="{y + 16}">{_esc(line)}</text>')
                    y += _LINE_H
                parts.append("</g>")
        y += _GROUP_GAP
    height = y + _PAD - _GROUP_GAP
    parts[0] = (f'<svg xmlns="http://www.w3.org/2000/svg" width="760" height="{height}" '
                f'viewBox="0 0 760 {height}">')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_HTML_STYLE = (
    f"/* {STYLESHEET_VERSION} */\n"
    "body { font-family: 'DejaVu Sans', Helvetica, Arial, sans-serif;"
    " font-size: 15px; color: #1A1A2E; background: #FFFFFF; margin: 2rem; }\n"
    "main.forecast { max-width: 46rem; }\n"
    "section.group { margin-bottom: 1rem; }\n"
    "p { margin: 0 0 0.25rem 0; white-space: pre-wrap; }\n"
    "#title { font-weight: bold; letter-spacing: 1px; }\n"
    ".row-heading { font-weight: bold; }\n"
    ".icon-row { display: flex; gap: 8px; align-items: center; }\n"
    ".icon { display: inline-flex; flex-direction: column; align-items: center;"
    " border-radius: 6px; padding: 4px; min-width: 40px; }\n"
    ".icon-label, .icon-badge { font-size: 9px; font-weight: bold; }"
)


def _render_html(groups: list[list[object]]) -> str:
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en">',
        '<head><meta charset="utf-8"><title>Higher Summits Forecast</title>',
        f"<style>{_HTML_STYLE}</style></head>",
        "<body>",
        '<main class="forecast">',
    ]
    for group in groups:
        parts.append('<section class="group">')
        for el in group:
            if isinstance(el, _IconRow):
                parts.append(f'<div class="icon-row" id="{el.element_id}">')
                parts.append(f'<span class="row-heading">{_esc(el.heading)}</span>')
                for k, icon in enumerate(el.icons):
                    parts.append(_icon_html(icon, element_id=f"{el.element_id}-icon-{k + 1}"))
                parts.append("</div>")
            else:
                body = "<br>".join(_esc(line) for line in el.lines)
                parts.append(f'<p id="{el.element_id}">{body}</p>')
        parts.append("</section>")
    parts.extend(["</main>", "</body>", "</html>"])
    return "\n".join(parts) + "\n"


def render(
    doc: ForecastDocument,
    condition: LayoutCondition,
    format: str = "plain",
    tables=None,
    config: IconRuleConfig = DEFAULT_ICON_CONFIG,
) -> RenderedDocument:
    """Render one document under one condition. Pure and byte-deterministic."""
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {'|'.join(FORMATS)}")
    if not isinstance(condition, LayoutCondition):
        raise ValueError(f"unknown condition {condition!r}")
    groups = _build_groups(require_valid(doc), condition, tables or load_tables(), config)
    if format == "plain":
        text = _render_plain(groups)
    elif format == "svg":
        text = _render_svg(groups)
    else:
        text = _render_html(groups)
    return RenderedDocument(
        format=format, payload=text.encode("utf-8"), manifest=_manifest(groups)
    )


def render_stimulus_set(
    docs,
    condition: LayoutCondition,
    format: str = "plain",
    tables=None,
    config: IconRuleConfig = DEFAULT_ICON_CONFIG,
) -> tuple[tuple[RenderedDocument, ...], str]:
    """Render every document under one fixed condition.

    Returns the renders plus an index manifest (one line per stimulus:
    ordinal, source id, condition, format, payload digest) for study
    administration.
    """
    import hashlib  # here, so that a render or a classify alone never loads it

    renders = tuple(
        render(doc, condition, format=format, tables=tables, config=config) for doc in docs
    )
    lines = []
    for i, (doc, rendered) in enumerate(zip(docs, renders)):
        digest = hashlib.sha256(rendered.payload).hexdigest()
        name = doc.source_id or f"doc-{i + 1}"
        lines.append(f"{i + 1:02d}\t{name}\t{condition.value}\t{format}\t{digest}")
    return renders, "".join(f"{line}\n" for line in lines)
