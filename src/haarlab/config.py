"""Global limits.

Every index, interval and grid in the package lives on a dyadic scale.  The
level cap bounds how fine that scale may get; it exists to keep exhaustive
sweeps and grid tables at desk scale.  Override with the HAARLAB_MAX_LEVEL
environment variable.
"""

import os

from .errors import DomainError

DEFAULT_MAX_LEVEL = 20


def max_level() -> int:
    raw = os.environ.get("HAARLAB_MAX_LEVEL")
    if raw is None:
        return DEFAULT_MAX_LEVEL
    try:
        value = int(raw)
    except ValueError as exc:
        raise DomainError(f"must be an integer, got {raw!r}", "HAARLAB_MAX_LEVEL") from exc
    if value < 1:
        raise DomainError(f"must be >= 1, got {value}", "HAARLAB_MAX_LEVEL")
    return value


def _level_limit(limit: int | None) -> int:
    """The finest level a run may use: `limit` where one is given, never
    above the configured cap."""
    cap = max_level()
    return cap if limit is None else min(limit, cap)


def check_level(level: int, what: str = "level", field: str | None = None) -> int:
    """Validate a dyadic level against the configured cap; `field` names
    the option that set the level, if one did."""
    cap = max_level()
    if level > cap:
        raise DomainError(f"{what} {level} exceeds the configured maximum level {cap}", field)
    return level
