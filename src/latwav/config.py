"""Runtime limits and defaults shared by the CLI and the library."""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .errors import InputFormatError, shown
from .intlat import as_int, checked_make
from .jsonio import finite_number, load_json

DEFAULT_TOLERANCE = 1e-10
DEFAULT_LEVEL_CAP = 12
DEFAULT_CELL_BUDGET = 5_000_000
DEFAULT_PAIR_BUDGET = 5_000_000


class _ConfigFields(NamedTuple):
    tolerance: float = DEFAULT_TOLERANCE
    cascade_level_cap: int = DEFAULT_LEVEL_CAP
    cell_budget: int = DEFAULT_CELL_BUDGET
    output_dir: str = "."
    pair_budget: int = DEFAULT_PAIR_BUDGET


class Config(_ConfigFields):
    """Limits and defaults: a tuple record whose fields are checked at
    construction, and by ``_replace``."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, *args, **kwargs):
        given = super().__new__(cls, *args, **kwargs)  # the defaults, unchecked
        try:
            number = finite_number(given.tolerance, "tolerance")
        except InputFormatError:
            number = 0.0
        if number <= 0:
            raise InputFormatError(f"tolerance must be a positive number, "
                                   f"got {shown(given.tolerance)}")
        counts = {}
        for name in ("cascade_level_cap", "cell_budget", "pair_budget"):
            value = getattr(given, name)
            try:
                counts[name] = as_int(value)
            except TypeError:
                counts[name] = 0
            if counts[name] <= 0:
                raise InputFormatError(f"{name} must be a positive integer, got {shown(value)}")
        if not isinstance(given.output_dir, str):
            raise InputFormatError(f"output_dir must be a string, got {shown(given.output_dir)}")
        return super().__new__(cls, given.tolerance, output_dir=given.output_dir, **counts)

    @classmethod
    def from_file(cls, path: str | Path) -> "Config":
        data = load_json(path)
        if not isinstance(data, dict):
            raise InputFormatError(f"{path}: config must be a JSON object")
        unknown = set(data) - set(cls._fields)
        if unknown:
            raise InputFormatError(f"{path}: unknown config keys {sorted(unknown)}")
        try:
            return cls(**data)
        except InputFormatError as exc:
            raise InputFormatError(f"{path}: {exc}") from exc
