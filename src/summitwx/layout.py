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
from typing import NamedTuple

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


class _TextElement(NamedTuple):
    element_id: str
    source: str
    lines: tuple[str, ...]


class _IconRow(NamedTuple):
    element_id: str
    source: str
    heading: str
    icons: tuple[tuple[str, HazardIcon], ...]  # (element id, icon) pairs


#: A layout: groups of elements (``_TextElement`` and ``_IconRow``), each
#: group a paragraph or block. Tuples, since one layout serves several renders.
_Groups = tuple[tuple[object, ...], ...]


def _icon_row(element_id: str, source: str, heading: str, icons) -> _IconRow:
    """An icon row whose k-th icon (from 1) has the id ``<row>-icon-<k>``."""
    return _IconRow(element_id, source, heading,
                    tuple((f"{element_id}-icon-{k}", icon) for k, icon in enumerate(icons, 1)))


_CHILL_SHORT = {1: "30 MIN", 2: "10 MIN", 3: "5 MIN"}

#: Per kind: the plain-text word and the short label. ``{level}`` is the
#: icon's level, ``{chill}`` the frostbite time of a wind-chill level, and
#: ``{label}`` the short label without spaces.
_ICON_WORDS = {
    HazardKind.WIND: ("WIND {label}", "F{level}"),
    HazardKind.WIND_CHILL: ("WIND CHILL {label}", "{chill}"),
    HazardKind.FREEZING_TEMP: ("FREEZING", "FREEZE"),
    HazardKind.WINTER_PRECIP: ("WINTER PRECIP", "WINTER"),
}


@lru_cache(maxsize=128)
def _icon_words(kind: HazardKind, level: int) -> tuple[str, str]:
    """The plain-text word and the short label of ``kind`` at ``level``."""
    plain, short = _ICON_WORDS[kind]
    short = short.format(level=level, chill=_CHILL_SHORT.get(level, f"L{level}"))
    return plain.format(label=short.replace(" ", "")), short


def _short_label(icon: HazardIcon) -> str:
    return _icon_words(icon.kind, icon.level)[1]


def _badge(icon: HazardIcon) -> str:
    return f"G{_fmt_num(icon.gust_annotation)}"


def _accessible_label(icon: HazardIcon) -> str:
    text = f"{icon.scale_name}: {icon.label}"
    if icon.gust_annotation is not None:
        text += f", gusts to {_fmt_num(icon.gust_annotation)} mph"
    return text


def _plain_icon(icon: HazardIcon) -> str:
    inner = _icon_words(icon.kind, icon.level)[0]
    if icon.gust_annotation is not None:
        inner += f" {_badge(icon)}"
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
    color = _glyph_color(icon.color)
    badge = ""
    if icon.gust_annotation is not None:
        badge = (f'<text class="icon-badge" x="37" y="37" text-anchor="end" '
                 f'fill="{color}">{_badge(icon)}</text>')
    return (
        f'<g{id_attr} class="icon" role="img" aria-label="{label}">'
        f"<title>{label}</title>"
        f'<rect class="icon-bg" width="40" height="40" rx="6" fill="{icon.color}"/>'
        f'<g transform="translate(8 8)" style="color:{color}">{inner}</g>'
        f"{badge}"
        f'<text class="icon-label" x="20" y="51" text-anchor="middle">{_esc(_short_label(icon))}</text>'
        "</g>"
    )


def _icon_html(icon: HazardIcon, element_id: str | None = None) -> str:
    inner = _glyph_inner(icon.glyph_id)
    label = _esc(_accessible_label(icon))
    id_attr = f' id="{element_id}"' if element_id else ""
    badge = ""
    if icon.gust_annotation is not None:
        badge = f'<span class="icon-badge">{_badge(icon)}</span>'
    return (
        f'<span{id_attr} class="icon" role="img" aria-label="{label}" '
        f'style="background:{icon.color};color:{_glyph_color(icon.color)}">'
        f'<svg viewBox="0 0 24 24" width="28" height="28" aria-hidden="true">{inner}</svg>'
        f"{badge}"
        f'<span class="icon-label">{_esc(_short_label(icon))}</span>'
        f"</span>"
    )


def _writer(writers: dict, format: str):
    """The writer of ``format`` in ``writers``, keyed by every name in FORMATS."""
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {'|'.join(FORMATS)}")
    return writers[format]


_ICON_WRITERS = {"plain": _plain_icon, "svg": _icon_svg, "html": _icon_html}


def render_icon(icon: HazardIcon, format: str = "plain") -> str:
    """Standalone graphic fragment for one icon."""
    write = _writer(_ICON_WRITERS, format)
    _glyph_inner(icon.glyph_id)
    return write(icon)


def _period_elements(index: int, period: ForecastPeriod) -> tuple[_TextElement, ...]:
    t, wind, chill = period.temperature, period.wind, period.wind_chill
    direction = f"{wind.direction} " if wind.direction else ""
    wind_line = (f"  Winds: {direction}{_fmt_num(wind.sustained.low)} to "
                 f"{_fmt_num(wind.sustained.high)} mph")
    if wind.gust_high is not None:
        wind_line += f", gusts to {_fmt_num(wind.gust_high)} mph"
    rows = [  # (id suffix, source field, line)
        ("label", "label", f"{period.label}:"),
        ("temperature", "temperature",
         f"  Temperatures: {_fmt_num(t.low)} to {_fmt_num(t.high)} F"),
        ("wind", "wind", wind_line),
    ]
    if chill is not None:
        rows.append(("wind-chill", "wind_chill",
                     f"  Wind chills: {_fmt_num(chill.low)} to {_fmt_num(chill.high)} F"))
    for k, event in enumerate(period.precip_events):
        rows.append((f"precip-{k + 1}", f"precip_events[{k}]", f"  Precipitation: "
                     f"{event.kind.value.replace('_', ' ')} ({event.certainty.value})"))
    for k, note in enumerate(period.extra_hazard_notes):
        rows.append((f"note-{k + 1}", f"extra_hazard_notes[{k}]", f"  Note: {note}"))
    n = index + 1
    # ``tuple.__new__`` skips the NamedTuple's Python-level ``__new__``: a
    # tenth of the time it takes to build a period's elements.
    return tuple([tuple.__new__(_TextElement,
                                (f"period-{n}-{suffix}", f"periods[{index}].{field}", (line,)))
                  for suffix, field, line in rows])


def _text_groups(doc: ForecastDocument) -> tuple[tuple, tuple, _Groups]:
    """The masthead, the summary and the period blocks: the text that every
    condition shows, arranged differently."""
    masthead = (
        _TextElement("title", "constant", ("HIGHER SUMMITS FORECAST",)),
        _TextElement("issued", "issued_at", (f"Issued: {doc.issued_at.isoformat()}",)),
    )
    if doc.source_id:
        masthead += (_TextElement("source", "source_id", (f"Source: {doc.source_id}",)),)
    summary = (_TextElement("summary", "summary_text", tuple(doc.summary_text.split("\n"))),)
    return masthead, summary, tuple(_period_elements(i, p) for i, p in enumerate(doc.periods))


def _build_groups(doc: ForecastDocument, condition: LayoutCondition, tables,
                  config: IconRuleConfig, text: tuple[tuple, tuple, _Groups]) -> _Groups:
    masthead, summary, periods = text
    if condition is LayoutCondition.PER_DAY_ICONS:
        periods = tuple(
            (elements[0],
             _icon_row(f"icons-period-{i + 1}", f"derived:periods[{i}]", "HAZARDS:",
                       derive_icons(period, tables, config)),
             *elements[1:])
            for i, (elements, period) in enumerate(zip(periods, doc.periods))
        )
    if condition is LayoutCondition.ICONS:
        overall = (_icon_row("icons-overall", "derived:worst_case", "HAZARDS (48 HOURS):",
                             derive_document_icons(doc, "overall", tables, config)[0]),)
        return (masthead, overall, summary, *periods)
    if condition is LayoutCondition.BASELINE:
        return (masthead, summary, *periods)
    return (masthead, *periods, summary)


#: The layouts of the documents the last call rendered: ``(tables, config,
#: {id(doc): (doc, pieces)})``. ``render`` is a call with one document,
#: ``render_stimulus_set`` a call with its whole set. ``pieces`` fills as
#: conditions ask for it: ``"text"`` holds what :func:`_text_groups` returns,
#: shared by the four conditions, and each condition its ``(groups,
#: manifest)``, shared by the three formats. A hit needs the very same
#: objects, not equal ones: equal documents may print differently
#: (``issued_at`` 12:00+00:00 equals 07:00-05:00). Each call keeps the pieces
#: of its documents that the last call held and drops every other document in
#: one assignment, so at most one call's documents are held.
_last: tuple = (None, None, {})


def _render_all(docs: tuple, condition: LayoutCondition, format: str, tables,
                config: IconRuleConfig) -> tuple[RenderedDocument, ...]:
    """Render each of ``docs`` under one condition and format, in order."""
    global _last
    write = _writer(_DOCUMENT_WRITERS, format)
    if not isinstance(condition, LayoutCondition):
        raise ValueError(f"unknown condition {condition!r}")
    for doc in docs:
        require_valid(doc)
    tables = tables or load_tables()
    last_tables, last_config, held = _last
    if last_tables is not tables or last_config is not config:
        held = {}
    # A held document stays alive, so no other object can have its id.
    layouts = {}
    for doc in docs:
        layouts[id(doc)] = held.get(id(doc)) or (doc, {})
    _last = (tables, config, layouts)
    renders = []
    for doc in docs:
        pieces = layouts[id(doc)][1]
        laid_out = pieces.get(condition)
        if laid_out is None:
            text = pieces.get("text")
            if text is None:
                text = pieces["text"] = _text_groups(doc)
            groups = _build_groups(doc, condition, tables, config, text)
            laid_out = pieces[condition] = (groups, _manifest(groups))
        renders.append(RenderedDocument(format, write(laid_out[0]).encode("utf-8"), laid_out[1]))
    return tuple(renders)


def _manifest(groups: _Groups) -> tuple[tuple[str, str], ...]:
    entries: list[tuple[str, str]] = []
    for group in groups:
        for el in group:
            entries.append((el.element_id, el.source))
            if isinstance(el, _IconRow):
                entries.extend((icon_id, el.source) for icon_id, _ in el.icons)
    return tuple(entries)


def _render_plain(groups: _Groups) -> str:
    blocks = []
    for group in groups:
        lines: list[str] = []
        for el in group:
            if isinstance(el, _IconRow):
                lines.append(el.heading + "".join(f" {_plain_icon(i)}" for _, i in el.icons))
            else:
                lines.extend(el.lines)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


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


def _render_svg(groups: _Groups) -> str:
    parts = ["", f"<style>{_SVG_STYLE}</style>"]  # the header waits for the height
    y = _PAD
    for group in groups:
        for el in group:
            parts.append(f'<g id="{el.element_id}">')
            if isinstance(el, _IconRow):
                parts.append(f'<text class="row-heading" x="{_PAD}" y="{y + 16}">{_esc(el.heading)}</text>')
                y += _LINE_H
                x = _PAD
                for icon_id, icon in el.icons:
                    parts.append(f'<g transform="translate({x} {y})">')
                    parts.append(_icon_svg(icon, icon_id))
                    parts.append("</g>")
                    x += _ICON_PITCH
                if el.icons:
                    y += _ICON_CELL_H
            else:
                css = ' class="title"' if el.element_id == "title" else ""
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


def _render_html(groups: _Groups) -> str:
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
                for icon_id, icon in el.icons:
                    parts.append(_icon_html(icon, icon_id))
                parts.append("</div>")
            else:
                body = "<br>".join(_esc(line) for line in el.lines)
                parts.append(f'<p id="{el.element_id}">{body}</p>')
        parts.append("</section>")
    parts.extend(["</main>", "</body>", "</html>"])
    return "\n".join(parts) + "\n"


_DOCUMENT_WRITERS = {"plain": _render_plain, "svg": _render_svg, "html": _render_html}


def render(
    doc: ForecastDocument,
    condition: LayoutCondition,
    format: str = "plain",
    tables=None,
    config: IconRuleConfig = DEFAULT_ICON_CONFIG,
) -> RenderedDocument:
    """Render one document under one condition. Pure and byte-deterministic.

    The layouts of the documents the last call rendered are reused, so
    rendering one document in several conditions and formats in a row builds
    it once.
    """
    return _render_all((doc,), condition, format, tables, config)[0]


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
    administration. The set's layouts are kept until the next call, so
    rendering one set under each condition and format builds each document
    once.
    """
    import hashlib  # here, so that a render or a classify alone never loads it

    docs = tuple(docs)
    renders = _render_all(docs, condition, format, tables, config)
    lines = []
    for i, (doc, rendered) in enumerate(zip(docs, renders)):
        digest = hashlib.sha256(rendered.payload).hexdigest()
        name = doc.source_id or f"doc-{i + 1}"
        lines.append(f"{i + 1:02d}\t{name}\t{condition.value}\t{format}\t{digest}")
    return renders, "".join(f"{line}\n" for line in lines)
