"""Higher-summits forecast toolkit.

Parsing of raw forecast text, cold-weather hazard icon derivation from
published scale tables, forecast layout rendering, and the statistics
pipeline for layout studies.

The namespace is lazy (PEP 562): ``import summitwx`` loads no submodule,
and each public name imports its home module on first use, so a caller
pays only for the layers it touches.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: Home module of each public name.
_EXPORTS = {
    "canonical": ("SCHEMA", "emit_canonical", "parse_canonical"),
    "hazards": (
        "KIND_ORDER", "WIND_DISPLAY_FLOOR", "HazardIcon", "HazardKind", "ScaleBand",
        "ScaleTable", "ScaleTableError", "TriadAdvisory", "TriadThresholds", "TriadVerdict",
        "beaufort_force", "derive_document_icons", "derive_icon_rows", "load_scale_table",
        "load_tables", "period_wind_chill", "round_half_away", "triad_advisory", "wind_chill",
        "wind_chill_category",
    ),
    "layout": (
        "STYLESHEET_VERSION", "RenderedDocument", "render", "render_icon", "render_stimulus_set",
    ),
    "model": (
        "COMPASS_POINTS", "CONDITION_TOKENS", "FORMATS", "WINTER_PRECIP_KINDS",
        "WORST_CASE_LABEL", "Certainty", "ForecastDocument", "ForecastPeriod",
        "InvalidDocument", "LayoutCondition", "PrecipEvent", "PrecipKind", "ValueRange",
        "Violation", "WindPrediction", "condition_from_token", "require_valid", "validate",
        "validate_period",
    ),
    "stats": (
        "ACTIVITIES", "AnovaResult", "CodingCell", "CodingTable", "GroupSummary",
        "PairwiseResult", "Participant", "RegressionResult", "StatsReport", "StudyDataError",
        "build_report", "emit_plot_spec", "emit_report", "format_report", "grips_regression",
        "load_study", "one_way_anova", "pairwise_t_tests", "percentage", "t_ci95",
    ),
    "textparse": ("Diagnostic", "ParseResult", "Severity", "format_diagnostic", "parse_forecast"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "distributions"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
