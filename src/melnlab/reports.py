"""Deterministic report serialization (fixed float formatting) and plot data.

Floats are rendered with 17 significant digits everywhere so identical runs
produce byte-identical artifacts.  Plot output is data plus a gnuplot script;
no rendering dependency.
"""

from __future__ import annotations

import math
from pathlib import Path

__all__ = ["format_float", "dumps_json", "write_json", "write_csv", "write_gnuplot"]

JSON_INDENT = 2


def format_float(x: float) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return f"{x:.17g}"
    return str(x)


def _render(obj, level: int) -> str:
    pad = " " * (JSON_INDENT * level)
    pad_in = " " * (JSON_INDENT * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad_in}"{key}": {_render(val, level + 1)}'
                 for key, val in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in seq)
        if flat and len(seq) <= 8:
            return "[" + ", ".join(_render(v, level + 1) for v in seq) + "]"
        items = [f"{pad_in}{_render(v, level + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        s = format_float(obj)
        return f'"{s}"' if s in ("NaN", "Infinity", "-Infinity") else s
    if isinstance(obj, int):
        return str(obj)
    text = str(obj).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{text}"'


def dumps_json(obj) -> str:
    """JSON text with floats pinned to 17 significant digits."""
    return _render(obj, 0) + "\n"


def write_json(path: str | Path, obj) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps_json(obj))
    return path


def write_csv(path: str | Path, header: list[str], rows) -> Path:
    """Floats as ``format_float`` renders them, anything else by ``str``.

    A table of finite floats in rows of one width takes one %-format, since
    ``"%.17g" % x`` gives the bytes of ``f"{x:.17g}"``; a finite sum has no
    NaN or inf term.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = list(rows)
    flat = [v for row in rows for v in row]
    lines = [",".join(header)]
    if len({len(row) for row in rows}) == 1 and set(map(type, flat)) == {float} \
            and math.isfinite(sum(flat)):
        lines.append("\n".join([",".join(["%.17g"] * len(rows[0]))] * len(rows)) % tuple(flat))
    else:
        lines += (",".join(format_float(v) if isinstance(v, float) else str(v) for v in row)
                  for row in rows)
    path.write_text("\n".join(lines) + "\n")
    return path


def write_gnuplot(path: str | Path, title: str, curves) -> Path:
    """Emit a gnuplot script; ``curves`` is a list of (csv_name, x_col, y_col, label)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        "set datafile separator ','",
        f"set title '{title}'",
        "set key autotitle columnhead",
        "set logscale x",
        "plot " + ", \\\n     ".join(
            f"'{name}' using {xc}:{yc} with linespoints title '{label}'"
            for name, xc, yc, label in curves),
    ]
    path.write_text("\n".join(lines) + "\n")
    return path
