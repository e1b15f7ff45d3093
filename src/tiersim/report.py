"""Result files: the sweep CSV (schema=1) and four static SVG line charts.

No plotting stack; the charts are small hand-assembled SVG documents, which
keeps the runtime dependency-free and the bytes deterministic.
"""

import math
import os

from .core import SimulationError
from .metrics import RunSummary

CSV_COLUMNS = RunSummary.field_names()
_PARSE = {"tps": float, "avg_us": float, **dict.fromkeys((
    "containers", "min_us", "max_us", "p90_us", "p95_us", "p99_us",
    "demand_faults", "prefetch_issued", "prefetch_hits", "mispredictions",
    "evictions", "seed"), int)}
_OPT_COLS = {"min_us", "avg_us", "max_us", "p90_us", "p95_us", "p99_us"}


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_sweep_csv(path, summaries):
    lines = ["# schema=1", ",".join(CSV_COLUMNS)]
    for s in summaries:
        lines.append(",".join(_fmt(getattr(s, col)) for col in CSV_COLUMNS))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_sweep_csv(path):
    """The rows of a sweep CSV; a line that is not UTF-8 text, a foreign
    header, a wrong cell count or a bad number raises SimulationError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise SimulationError(f"{path}: line {line} is not UTF-8 text") from None
    rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
    if not rows or rows[0].split(",") != CSV_COLUMNS:
        raise SimulationError(f"{path}: unrecognized sweep CSV header")
    out = []
    for row in rows[1:]:
        if not row:
            continue
        vals = row.split(",")
        if len(vals) != len(CSV_COLUMNS):
            raise SimulationError(f"{path}: bad column count in row {row!r}")
        kw = {}
        for col, val in zip(CSV_COLUMNS, vals):
            try:
                kw[col] = (None if col in _OPT_COLS and val == "" else
                           _PARSE.get(col, str)(val))
            except ValueError:
                raise SimulationError(
                    f"{path}: bad {col} {val!r} in row {row!r}") from None
        out.append(RunSummary(**kw))
    return out


# -- charts ----------------------------------------------------------------

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 80, 24, 46, 54
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#17becf", "#7f7f7f", "#bcbd22", "#e377c2"]


def _axis_ticks(lo, hi, n=5):
    if hi <= lo:
        hi = lo + 1
    step = (hi - lo) / n
    return [lo + i * step for i in range(n + 1)]


def _fmt_tick(v):
    if abs(v) >= 1000:
        return f"{v:.3g}"
    if v == int(v):
        return str(int(v))
    return f"{v:.2f}"


def line_chart(path, title, x_label, y_label, series, log_y=False):
    """series: list of (label, [(x, y), ...]); y values must be positive
    when log_y is set."""
    pts_all = [(x, y) for _, pts in series for x, y in pts if y is not None]
    if not pts_all:
        raise SimulationError(f"no data for chart {title!r}")
    xs = [p[0] for p in pts_all]
    ys = [p[1] for p in pts_all]
    x_lo, x_hi = min(xs), max(xs)
    if log_y:
        y_lo = math.floor(math.log10(max(min(ys), 1)))
        y_hi = math.ceil(math.log10(max(max(ys), 1)))
        if y_hi == y_lo:
            y_hi += 1
        y_ticks = list(range(int(y_lo), int(y_hi) + 1))
    else:
        y_lo, y_hi = 0.0, max(ys) * 1.05 or 1.0
        y_ticks = _axis_ticks(y_lo, y_hi)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y):
        if log_y:
            y = math.log10(max(y, 1))
        return _MT + ph - (y - y_lo) / (y_hi - y_lo) * ph

    e = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
         f'font-family="sans-serif" font-size="12">',
         f'<rect width="{_W}" height="{_H}" fill="white"/>',
         f'<text x="{_W / 2:.1f}" y="22" text-anchor="middle" '
         f'font-size="15">{title}</text>']
    for yt in y_ticks:
        yy = py(10 ** yt if log_y else yt)
        label = f"1e{yt}" if log_y else _fmt_tick(yt)
        e.append(f'<line x1="{_ML}" y1="{yy:.1f}" x2="{_W - _MR}" y2="{yy:.1f}" '
                 f'stroke="#dddddd"/>')
        e.append(f'<text x="{_ML - 6}" y="{yy + 4:.1f}" '
                 f'text-anchor="end">{label}</text>')
    for xt in sorted(set(xs)):
        xx = px(xt)
        e.append(f'<text x="{xx:.1f}" y="{_H - _MB + 16}" '
                 f'text-anchor="middle">{_fmt_tick(xt)}</text>')
    e.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
             f'stroke="black"/>')
    e.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" '
             f'y2="{_H - _MB}" stroke="black"/>')
    e.append(f'<text x="{_W / 2:.1f}" y="{_H - 14}" '
             f'text-anchor="middle">{x_label}</text>')
    e.append(f'<text x="18" y="{_H / 2:.1f}" text-anchor="middle" '
             f'transform="rotate(-90 18 {_H / 2:.1f})">{y_label}</text>')
    for i, (label, pts) in enumerate(series):
        pts = [(x, y) for x, y in pts if y is not None]
        if not pts:
            continue
        color = _COLORS[i % len(_COLORS)]
        path_d = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in pts)
        e.append(f'<polyline points="{path_d}" fill="none" stroke="{color}" '
                 f'stroke-width="1.8"/>')
        ly = _MT + 14 * i
        e.append(f'<line x1="{_W - _MR - 130}" y1="{ly}" x2="{_W - _MR - 110}" '
                 f'y2="{ly}" stroke="{color}" stroke-width="2"/>')
        e.append(f'<text x="{_W - _MR - 104}" y="{ly + 4}">{label}</text>')
    e.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(e) + "\n")


def write_charts(out_dir, summaries):
    groups = {}
    for s in summaries:
        groups.setdefault((s.policy, s.device), []).append(s)
    for rows in groups.values():
        rows.sort(key=lambda s: s.containers)

    def seq(rows, field):
        return [(s.containers, getattr(s, field)) for s in rows]

    line_chart(
        os.path.join(out_dir, "tps.svg"),
        "Critical-service throughput vs container density",
        "noise containers", "transactions / s",
        [(f"{p}/{d}", seq(rows, "tps")) for (p, d), rows in groups.items()])
    line_chart(
        os.path.join(out_dir, "latency.svg"),
        "Transaction latency vs container density",
        "noise containers", "latency (us)",
        [(f"{p}/{d} {f[:-3]}", seq(rows, f))
         for (p, d), rows in groups.items()
         for f in ("min_us", "avg_us", "max_us")])
    line_chart(
        os.path.join(out_dir, "latency_log.svg"),
        "Transaction latency vs container density (log scale)",
        "noise containers", "latency (us)",
        [(f"{p}/{d} {f[:-3]}", seq(rows, f))
         for (p, d), rows in groups.items()
         for f in ("avg_us", "max_us")],
        log_y=True)
    line_chart(
        os.path.join(out_dir, "percentiles.svg"),
        "Latency percentiles vs container density",
        "noise containers", "latency (us)",
        [(f"{p}/{d} {f[1:-3]}", seq(rows, f))
         for (p, d), rows in groups.items()
         for f in ("p90_us", "p95_us", "p99_us")],
        log_y=True)
    return ["tps.svg", "latency.svg", "latency_log.svg", "percentiles.svg"]
