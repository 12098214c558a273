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

from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources
from typing import NamedTuple

from .hazards import (
    GLYPH_IDS,
    HazardIcon,
    derive_icon_rows,
    load_tables,
)
from .model import (  # noqa: F401  (the condition names are re-exported)
    CONDITION_TOKENS,
    FORMATS,
    ForecastDocument,
    ForecastPeriod,
    LayoutCondition,
    _fmt_num,
    _read_input,
    condition_from_token,
)

STYLESHEET_VERSION = "hsf-layout/1"


@dataclass(frozen=True)
class RenderedDocument:
    """One render: its format, its payload bytes and its element manifest."""

    format: str
    payload: bytes
    manifest: tuple[tuple[str, str], ...]


class _Block(NamedTuple):
    """One element, or one group of elements, written in every format once.
    ``svg`` holds a ``%d`` for each y coordinate (and ``%%`` for a ``%``), and
    ``ys`` the coordinates as offsets below the block's top; the block is
    ``height`` tall. A group's ``html`` is its whole ``<section>``."""

    manifest: tuple[tuple[str, str], ...]
    plain: str
    html: str
    svg: str
    ys: tuple[int, ...]
    height: int


#: A layout: its groups, each a paragraph or block. One layout serves several
#: renders, and the groups every condition shows are shared between them.
_Groups = tuple[_Block, ...]


@lru_cache(maxsize=None)
def _glyph_inner(glyph_id: str) -> str:
    """Inner markup of a packaged glyph, for inline embedding."""
    if glyph_id not in GLYPH_IDS.values():
        raise ValueError(f"unknown glyph_id {glyph_id!r}")
    path = resources.files("summitwx") / "assets" / "glyphs" / f"{glyph_id}.svg"
    text = _read_input(path, str(path), ValueError).strip()
    open_end = text.index(">") + 1
    close_start = text.rindex("</svg>")
    return text[open_end:close_start]


def _glyph_color(background: str) -> str:
    """Dark strokes on light backgrounds, white on dark ones."""
    r, g, b = (int(background[i:i + 2], 16) for i in (1, 3, 5))
    luminance = (0.2126 * r + 0.7152 * g + 0.0722 * b) / 255.0
    return "#FFFFFF" if luminance < 0.5 else "#1A1A2E"


def _esc(text: str) -> str:
    """``html.escape(text, quote=True)``, written out: the html module would
    load its 2 231-entry entity table, which escaping does not use."""
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;").replace("'", "&#x27;"))


def _band_markup(icon: HazardIcon) -> tuple[tuple[str, str, str, str], tuple[str, str, str]]:
    """The svg and html markup of the band of ``icon``, without a gust badge,
    after its ``<g`` or ``<span`` and ``id`` attribute, in parts: a badge's
    label suffix goes after svg parts 1 and 2 and html part 1, and its element
    after svg part 3 and html part 2."""
    inner, ink = _glyph_inner(icon.glyph_id), _glyph_color(icon.color)
    label, short = _esc(f"{icon.scale_name}: {icon.label}"), _esc(icon.short_label)
    head = f' class="icon" role="img" aria-label="{label}'
    return ((head, f'"><title>{label}',
             f'</title><rect class="icon-bg" width="40" height="40" rx="6" fill="{icon.color}"/>'
             f'<g transform="translate(8 8)" style="color:{ink}">{inner}</g>',
             f'<text class="icon-label" x="20" y="51" text-anchor="middle">{short}</text></g>'),
            (head, f'" style="background:{icon.color};color:{ink}"><svg viewBox="0 0 24 24" '
             f'width="28" height="28" aria-hidden="true">{inner}</svg>',
             f'<span class="icon-label">{short}</span></span>'))


def _spliced(icon: HazardIcon, svg: tuple, html: tuple) -> tuple[str, str]:
    """The svg and html markup of ``icon`` from the parts of its band's: a gust
    badge adds ``, gusts to <gust> mph`` to the accessible label, and a badge
    element. Neither holds a character that html escapes or a ``%``."""
    if icon.gust_annotation is None:
        return "".join(svg), "".join(html)
    suffix, badge = f", gusts to {_fmt_num(icon.gust_annotation)} mph", icon.badge
    return (f'{svg[0]}{suffix}{svg[1]}{suffix}{svg[2]}<text class="icon-badge" x="37" y="37" '
            f'text-anchor="end" fill="{_glyph_color(icon.color)}">{badge}</text>{svg[3]}',
            f'{html[0]}{suffix}{html[1]}<span class="icon-badge">{badge}</span>{html[2]}')


def _check_format(format: str) -> None:
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {'|'.join(FORMATS)}")


def render_icon(icon: HazardIcon, format: str = "plain") -> str:
    """Standalone graphic fragment for one icon."""
    _check_format(format)
    _glyph_inner(icon.glyph_id)
    if format == "plain":
        return icon.plain_text
    svg, html = _spliced(icon, *_band_markup(icon))
    return "<g" + svg if format == "svg" else "<span" + html


_PAD = 16
_LINE_H = 22
_ICON_CELL_H = 56
_ICON_PITCH = 48
_GROUP_GAP = 12


def _text(element_id: str, source: str, line: str) -> _Block:
    """A text element of one ``line``."""
    shown = _esc(line)
    css = ' class="title"' if element_id == "title" else ""
    # ``tuple.__new__`` skips the NamedTuple's Python-level ``__new__``: a
    # document has some 30 text elements.
    return tuple.__new__(_Block, (
        ((element_id, source),), line, f'<p id="{element_id}">{shown}</p>',
        f'<g id="{element_id}">\n<text{css} x="{_PAD}" y="%d">'
        f'{shown.replace("%", "%%")}</text>\n</g>\n',
        (16,), _LINE_H))


def _summary(text: str) -> _Block:
    """The summary element, one ``<text>`` per line of ``text`` in svg."""
    shown = [_esc(line) for line in text.split("\n")]
    svg = "".join([f'<text x="{_PAD}" y="%d">{line.replace("%", "%%")}</text>\n' for line in shown])
    return _Block((("summary", "summary_text"),), text, f'<p id="summary">{"<br>".join(shown)}</p>',
                  f'<g id="summary">\n{svg}</g>\n',
                  tuple(range(16, 16 + _LINE_H * len(shown), _LINE_H)), _LINE_H * len(shown))


def _icon_markup(icon: HazardIcon, markup: dict) -> tuple[str, str, str]:
    """The plain text of ``icon`` and its svg (each ``%`` doubled) and html
    markup after the id attribute. Its band's, without a gust badge, are kept
    whole and in parts in ``markup`` under its glyph and level, which name one
    band of the tables ``markup`` is kept for; a gust badge is spliced in."""
    key = (icon.glyph_id, icon.level)
    kept = markup.get(key)
    if kept is None:
        band = icon if icon.gust_annotation is None else replace(icon, gust_annotation=None)
        svg, html = _band_markup(band)
        svg = tuple([part.replace("%", "%%") for part in svg])
        kept = markup[key] = (band.plain_text, *_spliced(band, svg, html), svg, html)
    if icon.gust_annotation is None:
        return kept[:3]
    return (icon.plain_text, *_spliced(icon, *kept[3:]))


def _icon_row(element_id: str, source: str, heading: str, icons, markup: dict) -> _Block:
    """An icon row whose k-th icon (from 1) has the id ``<row>-icon-<k>``. A row
    without a gust badge is kept in ``markup`` under its id and its icons'
    identities: they are the tables' own band icons, which outlive ``markup``."""
    key = (element_id, *map(id, icons))
    row = markup.get(key)
    if row is not None:
        return row
    ids = [f"{element_id}-icon-{k}" for k in range(1, len(icons) + 1)]
    written = [_icon_markup(icon, markup) for icon in icons]
    heading_html = _esc(heading)
    svg = [f'<g id="{element_id}">\n<text class="row-heading" x="{_PAD}" y="%d">'
           f'{heading_html.replace("%", "%%")}</text>\n']
    for k, (icon_id, (_, svg_tail, _)) in enumerate(zip(ids, written)):
        svg.append(f'<g transform="translate({_PAD + k * _ICON_PITCH} %d)">\n'
                   f'<g id="{icon_id}"{svg_tail}\n</g>\n')
    svg.append("</g>\n")
    row = _Block(
        ((element_id, source), *[(icon_id, source) for icon_id in ids]),
        heading + "".join([f" {plain}" for plain, _, _ in written]),
        "\n".join([f'<div class="icon-row" id="{element_id}">',
                   f'<span class="row-heading">{heading_html}</span>',
                   *[f'<span id="{icon_id}"{html_tail}'
                     for icon_id, (_, _, html_tail) in zip(ids, written)],
                   "</div>"]),
        "".join(svg), (16, *[_LINE_H] * len(icons)),
        _LINE_H + (_ICON_CELL_H if icons else 0))
    if all([icon.gust_annotation is None for icon in icons]):
        markup[key] = row
    return row


def _group(elements) -> _Block:
    """The group of ``elements``, one ``<section>`` in html."""
    manifest, plain, html, svg, ys, top = [], [], ['<section class="group">'], [], [], 0
    for el_manifest, el_plain, el_html, el_svg, el_ys, height in elements:
        manifest += el_manifest
        plain.append(el_plain)
        html.append(el_html)
        svg.append(el_svg)
        ys += [top + y for y in el_ys]
        top += height
    html.append("</section>")
    return _Block(tuple(manifest), "\n".join(plain), "\n".join(html), "".join(svg), tuple(ys), top)


def _period_elements(index: int, period: ForecastPeriod) -> list[_Block]:
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
    return [_text(f"period-{n}-{suffix}", f"periods[{index}].{field}", line)
            for suffix, field, line in rows]


def _layouts(doc: ForecastDocument, tables, markup: dict) -> dict:
    """Each condition's ``(groups, manifest)``: one masthead, summary and set of
    period blocks, arranged four ways, two with icon rows added. Each group is
    written once, each line of text escaped as its element is written, and each
    band's icon markup and each icon row without a gust badge is taken from or
    kept in ``markup``."""
    overall, per_period = derive_icon_rows(doc, tables)  # validates
    masthead = [
        _text("title", "constant", "HIGHER SUMMITS FORECAST"),
        _text("issued", "issued_at", f"Issued: {doc.issued_at.isoformat()}"),
    ]
    if doc.source_id:
        masthead.append(_text("source", "source_id", f"Source: {doc.source_id}"))
    masthead = _group(masthead)
    summary = _group([_summary(doc.summary_text)])
    periods, per_day = [], []
    for i, (period, icons) in enumerate(zip(doc.periods, per_period)):
        label, *rest = _period_elements(i, period)
        periods.append(_group([label, *rest]))
        per_day.append(_group([label, _icon_row(f"icons-period-{i + 1}", f"derived:periods[{i}]",
                                                "HAZARDS:", icons, markup), *rest]))
    overall = _group([_icon_row("icons-overall", "derived:worst_case", "HAZARDS (48 HOURS):",
                                overall, markup)])
    return {condition: (groups, tuple([entry for group in groups for entry in group.manifest]))
            for condition, groups in (
                (LayoutCondition.BASELINE, (masthead, summary, *periods)),
                (LayoutCondition.SUMMARY_LAST, (masthead, *periods, summary)),
                (LayoutCondition.ICONS, (masthead, overall, summary, *periods)),
                (LayoutCondition.PER_DAY_ICONS, (masthead, *per_day, summary)),
            )}


#: The layouts of the documents the last call rendered (``render`` a call with
#: one document, ``render_stimulus_set`` one with its whole set), and the
#: markup of each band's icon and of each icon row without a gust badge that
#: they show: ``(tables, {id(doc): (doc, _layouts(doc, tables, markup))},
#: markup)``. The markup is kept for as long as the tables are, so it holds
#: one entry per band, and per row id (five) one row per combination of shown
#: bands, at most (640 rows for the packaged tables); a document laid out
#: later takes its icons' and rows' markup from it. A document is
#: validated only as it is laid out, so every held layout is of a valid one. A
#: hit needs the very same objects: equal documents may print differently
#: (``issued_at`` 12:00+00:00 equals 07:00-05:00). A call replaces the memo in
#: one assignment once all its documents are laid out, so it holds one call's
#: documents at most and a call that fails leaves its layouts as they were.
_last: tuple = (None, {}, {})


def _render_all(docs: tuple, condition: LayoutCondition, format: str,
                tables) -> tuple[RenderedDocument, ...]:
    """Render each of ``docs`` under one condition and format, in order."""
    global _last
    _check_format(format)
    if not isinstance(condition, LayoutCondition):
        raise ValueError(f"unknown condition {condition!r}")
    tables = tables or load_tables()
    last_tables, held, markup = _last
    if last_tables is not tables:
        held, markup = {}, {}
    # A held document stays alive, so no other object can have its id.
    layouts = {}
    for doc in docs:
        key = id(doc)
        layouts[key] = layouts.get(key) or held.get(key) or (doc, _layouts(doc, tables, markup))
    _last = (tables, layouts, markup)
    write = _DOCUMENT_WRITERS[format]
    return tuple([RenderedDocument(format, write(groups).encode("utf-8"), manifest)
                  for groups, manifest in [layouts[id(doc)][1][condition] for doc in docs]])


def _render_plain(groups: _Groups) -> str:
    return "\n\n".join([group.plain for group in groups]) + "\n"


_SVG_STYLE = (
    f"/* {STYLESHEET_VERSION} */\n"
    "text { font-family: 'DejaVu Sans', Helvetica, Arial, sans-serif;"
    " font-size: 14px; fill: #1A1A2E; }\n"
    ".title { font-size: 16px; font-weight: bold; letter-spacing: 1px; }\n"
    ".row-heading { font-weight: bold; }\n"
    ".icon-label { font-size: 9px; }\n"
    ".icon-badge { font-size: 9px; font-weight: bold; }"
)


def _render_svg(groups: _Groups) -> str:
    body = []
    top = _PAD
    for group in groups:
        body.append(group.svg % tuple([top + y for y in group.ys]))
        top += group.height + _GROUP_GAP
    height = top + _PAD - _GROUP_GAP
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="760" height="{height}" '
            f'viewBox="0 0 760 {height}">\n<style>{_SVG_STYLE}</style>\n{"".join(body)}</svg>\n')


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

_HTML_HEAD = (
    '<!DOCTYPE html>\n<html lang="en">\n'
    '<head><meta charset="utf-8"><title>Higher Summits Forecast</title>\n'
    f'<style>{_HTML_STYLE}</style></head>\n<body>\n<main class="forecast">\n'
)


def _render_html(groups: _Groups) -> str:
    body = "\n".join([group.html for group in groups])
    return f"{_HTML_HEAD}{body}\n</main>\n</body>\n</html>\n"


_DOCUMENT_WRITERS = {"plain": _render_plain, "svg": _render_svg, "html": _render_html}


def render(
    doc: ForecastDocument,
    condition: LayoutCondition,
    format: str = "plain",
    tables=None,
) -> RenderedDocument:
    """Render one document under one condition. Pure and byte-deterministic.

    A document is laid out in all four conditions at once, and the last
    call's layouts are reused, so rendering one document in several
    conditions and formats in a row builds it once.
    """
    return _render_all((doc,), condition, format, tables)[0]


def render_stimulus_set(
    docs,
    condition: LayoutCondition,
    format: str = "plain",
    tables=None,
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
    renders = _render_all(docs, condition, format, tables)
    lines = []
    for i, (doc, rendered) in enumerate(zip(docs, renders)):
        digest = hashlib.sha256(rendered.payload).hexdigest()
        name = doc.source_id or f"doc-{i + 1}"
        lines.append(f"{i + 1:02d}\t{name}\t{condition.value}\t{format}\t{digest}")
    return renders, "".join(f"{line}\n" for line in lines)
