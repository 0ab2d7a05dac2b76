"""Runtime limits and defaults shared by the CLI and the library."""

from __future__ import annotations

from pathlib import Path

from .errors import InputFormatError
from .intlat import as_int
from .jsonio import finite_number, load_json

DEFAULT_TOLERANCE = 1e-10
DEFAULT_LEVEL_CAP = 12
DEFAULT_CELL_BUDGET = 5_000_000
DEFAULT_PAIR_BUDGET = 5_000_000


class Config:
    """Limits and defaults; the fields are the ``__slots__``, validated at
    construction and compared as a tuple."""

    __slots__ = ("tolerance", "cascade_level_cap", "cell_budget", "output_dir", "pair_budget")

    def __init__(self, tolerance: float = DEFAULT_TOLERANCE,
                 cascade_level_cap: int = DEFAULT_LEVEL_CAP,
                 cell_budget: int = DEFAULT_CELL_BUDGET, output_dir: str = ".",
                 pair_budget: int = DEFAULT_PAIR_BUDGET):
        try:
            number = finite_number(tolerance, "tolerance")
        except InputFormatError:
            number = 0.0
        if number <= 0:
            raise InputFormatError(f"tolerance must be a positive number, got {tolerance!r}")
        for name, value in (("cascade_level_cap", cascade_level_cap),
                            ("cell_budget", cell_budget), ("pair_budget", pair_budget)):
            try:
                count = as_int(value)
            except TypeError:
                count = 0
            if count <= 0:
                raise InputFormatError(f"{name} must be a positive integer, got {value!r}")
            setattr(self, name, count)
        if not isinstance(output_dir, str):
            raise InputFormatError(f"output_dir must be a string, got {output_dir!r}")
        self.tolerance = tolerance
        self.output_dir = output_dir

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"Config({fields})"

    @classmethod
    def from_file(cls, path: str | Path) -> "Config":
        data = load_json(path)
        if not isinstance(data, dict):
            raise InputFormatError(f"{path}: config must be a JSON object")
        unknown = set(data) - set(cls.__slots__)
        if unknown:
            raise InputFormatError(f"{path}: unknown config keys {sorted(unknown)}")
        try:
            return cls(**data)
        except InputFormatError as exc:
            raise InputFormatError(f"{path}: {exc}") from exc
