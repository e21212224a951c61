"""Deterministic CSV/JSON serialization.

Floats are always rendered with 17 significant digits (%.17g), which
round-trips IEEE doubles exactly, and containers are written in a fixed
order, so identical results produce byte-identical files.  A dataclass
instance is written as an object of its fields in declaration order.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from pathlib import Path


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value {x!r} in a result file")
    return f"{x:.17g}"


def _format_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_float(v)
    if isinstance(v, (int, str)):
        return str(v)
    if isinstance(v, Fraction):
        return str(v)
    raise TypeError(f"unsupported CSV cell type {type(v).__name__}")


def write_csv(path: Path | str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = [_format_cell(v) for v in row]
        if any("," in c or '"' in c or "\n" in c for c in cells):
            raise ValueError("cells requiring CSV quoting are not produced by this tool")
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _json_fragment(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"')
    elif isinstance(obj, Fraction):
        _json_fragment(str(obj), out)
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _json_fragment(v, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            _json_fragment(str(k), out)
            out.append(":")
            _json_fragment(v, out)
        out.append("}")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _json_fragment({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}, out)
    else:
        raise TypeError(f"unsupported JSON value type {type(obj).__name__}")


def json_dumps(obj) -> str:
    out: list[str] = []
    _json_fragment(obj, out)
    return "".join(out)


def write_json(path: Path | str, obj) -> None:
    Path(path).write_text(json_dumps(obj) + "\n", encoding="utf-8")
