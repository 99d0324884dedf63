"""Static SVG renderings of the report: bar charts, heatmap, emoji grids.

No plotting dependency; charts are assembled from rect/text/line elements.
Each function returns a standalone SVG document string.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence
from xml.sax.saxutils import escape

import numpy as np

FONT = "font-family='sans-serif'"
WEST_COLOR = "#4878a8"
EAST_COLOR = "#c05850"


def _doc(width: int, height: int, body: list[str], title: str) -> str:
    head = (
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{height}' "
        f"viewBox='0 0 {width} {height}'>"
    )
    titled = [f"<text x='{width / 2}' y='20' text-anchor='middle' font-size='14' "
              f"{FONT} font-weight='bold'>{escape(title)}</text>"]
    return "\n".join([head] + titled + body + ["</svg>"]) + "\n"


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def top_emoji_bars(
    top_by_culture: Mapping[str, Sequence[tuple[str, int, float]]],
    title: str = "Most frequent emoji by culture",
) -> str:
    """Horizontal bar chart: one panel per culture, share of total emoji."""
    cultures = [c for c in ("West", "East") if c in top_by_culture] or list(top_by_culture)
    rows = max((len(top_by_culture[c]) for c in cultures), default=0)
    panel_w, row_h, top_pad = 360, 22, 40
    width = panel_w * len(cultures) + 20
    height = top_pad + rows * row_h + 20
    body = []
    for p, culture in enumerate(cultures):
        x0 = 10 + p * panel_w
        color = WEST_COLOR if culture == "West" else EAST_COLOR
        body.append(f"<text x='{x0 + 40}' y='{top_pad - 8}' font-size='12' {FONT}>"
                    f"{escape(culture)}</text>")
        entries = top_by_culture[culture]
        max_share = max((s for _, _, s in entries), default=1.0) or 1.0
        for i, (emoji, count, share) in enumerate(entries):
            y = top_pad + i * row_h
            bar = (share / max_share) * (panel_w - 150)
            body.append(f"<text x='{x0 + 18}' y='{y + 14}' font-size='14' "
                        f"text-anchor='middle'>{escape(emoji)}</text>")
            body.append(f"<rect x='{x0 + 40}' y='{y + 3}' width='{bar:.1f}' "
                        f"height='{row_h - 8}' fill='{color}'/>")
            body.append(f"<text x='{x0 + 44 + bar:.1f}' y='{y + 14}' font-size='10' "
                        f"{FONT}>{share * 100:.2f}%</text>")
    return _doc(width, height, body, title)


def category_share_bars(
    category_shares: Mapping[str, Mapping[str, float]],
    category_scc: Mapping[str, float],
    title: str = "Emoji share by category, with East-West rank correlation",
) -> str:
    """Grouped vertical bars per category; SCC labels under each group."""
    cultures = [c for c in ("West", "East") if c in category_shares] or list(category_shares)
    categories = sorted({cat for c in cultures for cat in category_shares[c]})
    group_w, chart_h, base_y = 74, 180, 230
    width = 40 + group_w * len(categories)
    height = base_y + 46
    max_share = max(
        (category_shares[c].get(cat, 0.0) for c in cultures for cat in categories),
        default=1.0,
    ) or 1.0
    body = [f"<line x1='30' y1='{base_y}' x2='{width - 10}' y2='{base_y}' stroke='#333'/>"]
    for g, cat in enumerate(categories):
        x0 = 40 + g * group_w
        for p, culture in enumerate(cultures):
            share = category_shares[culture].get(cat, 0.0)
            h = (share / max_share) * chart_h
            color = WEST_COLOR if culture == "West" else EAST_COLOR
            body.append(f"<rect x='{x0 + p * 26}' y='{base_y - h:.1f}' width='22' "
                        f"height='{h:.1f}' fill='{color}'/>")
        label = cat if len(cat) <= 10 else cat[:9] + "…"
        body.append(f"<text x='{x0 + 26}' y='{base_y + 14}' font-size='9' {FONT} "
                    f"text-anchor='middle'>{escape(label)}</text>")
        if cat in category_scc:
            body.append(f"<text x='{x0 + 26}' y='{base_y + 28}' font-size='9' {FONT} "
                        f"text-anchor='middle'>r={_fmt(category_scc[cat])}</text>")
    return _doc(width, height, body, title)


def _heat_color(value: float) -> str:
    """Blue (-1) -> white (0) -> red (+1); symmetric in the value."""
    v = max(-1.0, min(1.0, value))
    if v >= 0:
        other = int(round(255 * (1 - v)))
        return f"rgb(255,{other},{other})"
    other = int(round(255 * (1 + v)))
    return f"rgb({other},{other},255)"


def country_heatmap(
    corpora: Sequence[str], matrix: np.ndarray,
    title: str = "Country pairwise emoji-semantics similarity (Pearson r)",
) -> str:
    n = len(corpora)
    cell, pad = 64, 70
    grid = pad + n * cell + 20
    width = max(grid, 470)  # keep the title from clipping
    body = []
    for i in range(n):
        body.append(f"<text x='{pad - 6}' y='{pad + i * cell + cell / 2 + 4}' font-size='11' "
                    f"{FONT} text-anchor='end'>{escape(corpora[i])}</text>")
        body.append(f"<text x='{pad + i * cell + cell / 2}' y='{pad - 8}' font-size='11' "
                    f"{FONT} text-anchor='middle'>{escape(corpora[i])}</text>")
        for j in range(n):
            v = float(matrix[i, j])
            x, y = pad + j * cell, pad + i * cell
            body.append(f"<rect x='{x}' y='{y}' width='{cell}' height='{cell}' "
                        f"fill='{_heat_color(v)}' stroke='#888'/>")
            body.append(f"<text x='{x + cell / 2}' y='{y + cell / 2 + 4}' font-size='11' "
                        f"{FONT} text-anchor='middle'>{_fmt(v)}</text>")
    return _doc(width, grid, body, title)


def category_top5_grid(
    top5: Mapping[tuple[str, str], Sequence[tuple[str, float]]],
    rho: Mapping[str, float],
    title: str = "Top-5 emoji per lexicon category, West vs East",
) -> str:
    categories = sorted({cat for _, cat in top5})
    row_h, left = 30, 150
    width = left + 2 * 220 + 120
    height = 70 + len(categories) * row_h
    body = [
        f"<text x='{left + 90}' y='42' font-size='11' {FONT}>West</text>",
        f"<text x='{left + 310}' y='42' font-size='11' {FONT}>East</text>",
    ]
    for i, cat in enumerate(categories):
        y = 70 + i * row_h
        body.append(f"<text x='{left - 10}' y='{y}' font-size='11' {FONT} "
                    f"text-anchor='end'>{escape(cat)}</text>")
        for p, culture in enumerate(("West", "East")):
            entries = top5.get((culture, cat), [])
            emoji_run = " ".join(e for e, _ in entries)
            body.append(f"<text x='{left + p * 220}' y='{y}' font-size='15'>"
                        f"{escape(emoji_run)}</text>")
        if cat in rho:
            body.append(f"<text x='{left + 2 * 220 + 10}' y='{y}' font-size='11' {FONT}>"
                        f"ρ={_fmt(rho[cat])}</text>")
    return _doc(width, height, body, title)


def icon_extremes_grid(
    top: Mapping[str, Sequence[tuple[str, float]]],
    bottom: Mapping[str, Sequence[tuple[str, float]]],
    by_category: Mapping[str, tuple[float, float]],
    title: str = "Most and least cross-culturally stable emoji per category",
) -> str:
    categories = sorted(top)
    row_h, left = 30, 140
    width = left + 2 * 200 + 190
    height = 70 + len(categories) * row_h
    body = [
        f"<text x='{left}' y='42' font-size='11' {FONT}>highest SCC</text>",
        f"<text x='{left + 200}' y='42' font-size='11' {FONT}>lowest SCC</text>",
    ]
    for i, cat in enumerate(categories):
        y = 70 + i * row_h
        body.append(f"<text x='{left - 10}' y='{y}' font-size='11' {FONT} "
                    f"text-anchor='end'>{escape(cat)}</text>")
        body.append(f"<text x='{left}' y='{y}' font-size='15'>"
                    f"{escape(' '.join(e for e, _ in top[cat]))}</text>")
        body.append(f"<text x='{left + 200}' y='{y}' font-size='15'>"
                    f"{escape(' '.join(e for e, _ in bottom[cat]))}</text>")
        mean, std = by_category[cat]
        body.append(f"<text x='{left + 400}' y='{y}' font-size='11' {FONT}>"
                    f"mean={_fmt(mean)} sd={_fmt(std)}</text>")
    return _doc(width, height, body, title)


def emit_charts(report, open_file) -> dict[str, Optional[str]]:
    """Write all renderable charts, each into `open_file(filename)`, a
    context manager giving a text file; returns chart name -> filename (None
    when the backing report section is empty, noted by the caller)."""
    written: dict[str, Optional[str]] = {}

    def emit(name: str, svg: Optional[str]):
        written[name] = None if svg is None else f"{name}.svg"
        if svg is not None:
            with open_file(written[name]) as f:
                f.write(svg)

    freq = report.frequency
    if freq and any(freq.top_by_culture.values()):
        emit("fig_top_emoji", top_emoji_bars(freq.top_by_culture))
    else:
        emit("fig_top_emoji", None)
    if freq and freq.category_shares and any(freq.category_shares.values()):
        emit("fig_category_shares",
             category_share_bars(freq.category_shares, freq.category_scc))
    else:
        emit("fig_category_shares", None)
    if report.country is not None:
        emit("fig_country_heatmap",
             country_heatmap(list(report.country.corpora), report.country.matrix))
    else:
        emit("fig_country_heatmap", None)
    if report.top5:
        emit("fig_category_top5", category_top5_grid(report.top5, report.category_rho))
    else:
        emit("fig_category_top5", None)
    if report.icon is not None:
        emit("fig_icon_extremes",
             icon_extremes_grid(report.icon.top, report.icon.bottom,
                                report.icon.by_category))
    else:
        emit("fig_icon_extremes", None)
    return written
