"""The program's public functions as the benchmark calls them, plus tracing.

The benchmark calls every layer through one namespace built by :func:`bind`.
Untraced, the namespace holds the library functions themselves, so an
untraced run pays nothing for the indirection. Traced, each function is
wrapped to record a span around the call. Spans are recorded only here, at
the boundary between the benchmark and the package; nothing inside
``src/`` is instrumented.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

from summitwx import canonical, hazards, layout, model, stats, textparse

# Span name -> function. The first dotted part of a name is its layer.
PUBLIC = {
    "textparse.parse_forecast": textparse.parse_forecast,
    "canonical.emit_canonical": canonical.emit_canonical,
    "canonical.parse_canonical": canonical.parse_canonical,
    "model.validate": model.validate,
    "hazards.derive_document_icons": hazards.derive_document_icons,
    "hazards.triad_advisory": hazards.triad_advisory,
    "layout.render": layout.render,
    "layout.render_stimulus_set": layout.render_stimulus_set,
    "stats.load_study": stats.load_study,
    "stats.build_report": stats.build_report,
    "stats.format_report": stats.format_report,
    "stats.emit_report": stats.emit_report,
    "stats.emit_plot_spec": stats.emit_plot_spec,
}


# Span name -> what the span's detail field records about the call.
DETAIL = {
    "textparse.parse_forecast": lambda args, kwargs: str(len(args[0].encode("utf-8"))),
    "layout.render": lambda args, kwargs: f"{args[1].value}.{kwargs.get('format', 'plain')}",
    "cli.main": lambda args, kwargs: args[0],
}


class Tracer:
    """In-memory span recorder.

    A span is ``(name, detail, op_id, parent, start, end)``: ``op_id``
    identifies the operation (one input, or one batch) and is shared by all
    its spans; ``parent`` is the index of the enclosing span, or -1 for an
    operation's root span.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._open: list[int] = []
        self._op_id = ""

    def begin(self, name: str, op_id: int, detail: str = "") -> None:
        self._op_id = f"{name}-{op_id}"
        parent = self._parent()
        self._open.append(len(self.spans))
        self.spans.append([name, detail, self._op_id, parent, time.perf_counter(), None])

    def end(self) -> None:
        self.spans[self._open.pop()][5] = time.perf_counter()

    def _parent(self) -> int:
        return self._open[-1] if self._open else -1

    def wrap(self, name: str, fn):
        detail_of = DETAIL.get(name)

        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                detail = detail_of(args, kwargs) if detail_of else ""
                self.spans.append((name, detail, self._op_id, self._parent(), start, end))

        return traced

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        own = [end - start for *_, start, end in self.spans]
        for name, _, _, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


def bind(tracer: Tracer | None = None) -> SimpleNamespace:
    """Namespace of the public functions, wrapped for ``tracer`` if given."""
    return SimpleNamespace(**{
        name.split(".")[1]: (tracer.wrap(name, fn) if tracer else fn)
        for name, fn in PUBLIC.items()
    })
