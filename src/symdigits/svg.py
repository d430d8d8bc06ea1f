"""Tiny hand-rolled SVG writers for result charts.  No plotting deps."""

from __future__ import annotations

WIDTH, HEIGHT = 640, 360
MARGIN = 50
Y_MAX = 1.0


def _header(title):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH / 2}" y="20" text-anchor="middle" font-family="sans-serif" '
        f'font-size="14">{title}</text>',
    ]


def bar_chart(path, labels, values, reference, title=""):
    """Vertical bars on [0, Y_MAX], each with a reference tick (e.g. its
    published value)."""
    parts = _header(title)
    plot_w, plot_h = WIDTH - 2 * MARGIN, HEIGHT - 2 * MARGIN
    n = len(labels)
    slot = plot_w / max(n, 1)
    bar_w = slot * 0.6
    for i, (label, value) in enumerate(zip(labels, values)):
        x = MARGIN + i * slot + (slot - bar_w) / 2
        h = plot_h * min(value, Y_MAX) / Y_MAX
        y = MARGIN + plot_h - h
        parts.append(f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" '
                     f'height="{h:.1f}" fill="#4878a8"/>')
        parts.append(f'<text x="{x + bar_w / 2:.1f}" y="{y - 4:.1f}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{value:.3f}</text>')
        parts.append(f'<text x="{x + bar_w / 2:.1f}" y="{HEIGHT - MARGIN + 14:.1f}" '
                     f'text-anchor="middle" font-family="sans-serif" font-size="9" '
                     f'transform="rotate(25 {x + bar_w / 2:.1f} {HEIGHT - MARGIN + 14:.1f})"'
                     f'>{label}</text>')
        ry = MARGIN + plot_h * (1 - min(reference[i], Y_MAX) / Y_MAX)
        parts.append(f'<line x1="{x - 3:.1f}" y1="{ry:.1f}" x2="{x + bar_w + 3:.1f}" '
                     f'y2="{ry:.1f}" stroke="#c04040" stroke-width="2"/>')
    parts.append(f'<line x1="{MARGIN}" y1="{MARGIN + plot_h}" x2="{WIDTH - MARGIN}" '
                 f'y2="{MARGIN + plot_h}" stroke="#000000"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(parts) + "\n")


def line_chart(path, xs, ys, title="", x_label="", y_label=""):
    """A single polyline; axes are data-bounds fitted."""
    parts = _header(title)
    plot_w, plot_h = WIDTH - 2 * MARGIN, HEIGHT - 2 * MARGIN
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    points = " ".join(
        f"{MARGIN + plot_w * (x - x_lo) / x_span:.2f},"
        f"{MARGIN + plot_h * (1 - (y - y_lo) / y_span):.2f}"
        for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{points}" fill="none" stroke="#4878a8" '
                 f'stroke-width="1.5"/>')
    parts.append(f'<text x="{WIDTH / 2}" y="{HEIGHT - 8}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="11">{x_label}</text>')
    parts.append(f'<text x="12" y="{HEIGHT / 2}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="11" '
                 f'transform="rotate(-90 12 {HEIGHT / 2})">{y_label}</text>')
    parts.append(f'<text x="{MARGIN}" y="{MARGIN - 6}" font-family="monospace" '
                 f'font-size="9">y: {y_lo:.6g} .. {y_hi:.6g}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(parts) + "\n")
