"""Runtime limits and defaults shared by the CLI and the library."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import InputFormatError

DEFAULT_CELL_BUDGET = 5_000_000


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass
class Config:
    tolerance: float = 1e-10
    cascade_level_cap: int = 12
    cell_budget: int = DEFAULT_CELL_BUDGET
    output_dir: str = "."

    def __post_init__(self):
        tol = self.tolerance
        if not (_is_int(tol) or isinstance(tol, float)) or not math.isfinite(tol) or tol <= 0:
            raise InputFormatError(f"tolerance must be a positive number, got {tol!r}")
        for name in ("cascade_level_cap", "cell_budget"):
            value = getattr(self, name)
            if not _is_int(value) or value <= 0:
                raise InputFormatError(f"{name} must be a positive integer, got {value!r}")
        if not isinstance(self.output_dir, str):
            raise InputFormatError(f"output_dir must be a string, got {self.output_dir!r}")

    @classmethod
    def from_file(cls, path: str | Path) -> "Config":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, UnicodeDecodeError) as exc:
            raise InputFormatError(f"{path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
        if not isinstance(data, dict):
            raise InputFormatError(f"{path}: config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise InputFormatError(f"{path}: unknown config keys {sorted(unknown)}")
        try:
            return cls(**data)
        except InputFormatError as exc:
            raise InputFormatError(f"{path}: {exc}") from exc
