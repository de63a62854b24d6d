"""Exception types raised by the verification engine.

Each class carries a short machine-readable ``slug`` so that reports and the
CLI can classify failures without parsing messages.
"""


class KahlercheckError(Exception):
    slug = "error"


class UnsupportedOrderError(KahlercheckError):
    slug = "unsupported-order"


class BadAxisError(KahlercheckError):
    slug = "bad-axis"


class DomainError(KahlercheckError):
    slug = "domain-error"


class SingularJetError(KahlercheckError):
    slug = "singular-jet"


class OrderExhaustedError(KahlercheckError):
    slug = "order-exhausted"


class DegenerateMetricError(KahlercheckError):
    slug = "degenerate-metric"


class BadVolumeError(KahlercheckError):
    slug = "bad-volume"


class NoOverlapError(KahlercheckError):
    slug = "no-overlap"


class NanInFieldError(KahlercheckError):
    slug = "nan-in-field"


class BadValenceError(KahlercheckError):
    slug = "bad-valence"


class BadDegreeError(KahlercheckError):
    slug = "bad-degree"


class UnsupportedGeometryError(KahlercheckError):
    slug = "unsupported-geometry"


class UnsupportedDegreeError(KahlercheckError):
    slug = "unsupported-degree"


class BadInputError(KahlercheckError):
    slug = "bad-input"


class DegenerateBasisError(KahlercheckError):
    slug = "degenerate-basis"


class FlowDivergedError(KahlercheckError):
    slug = "flow-diverged"


class ConfigError(KahlercheckError):
    slug = "config-error"
