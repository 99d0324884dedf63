"""Static SVG renderings of the report: bar charts, heatmap, emoji grids.

No plotting dependency; charts are assembled from rect/text/line elements.
Each function returns a standalone SVG document string.
"""

from __future__ import annotations

import html
from typing import Mapping, Optional, Sequence

import numpy as np

FONT = "font-family='sans-serif'"
WEST_COLOR = "#4878a8"
EAST_COLOR = "#c05850"


def escape(text: str) -> str:
    """SVG text content: `&`, `<` and `>` as entities, quotes left as they are."""
    return html.escape(text, quote=False)


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


def _emoji_grid(
    title: str, left: int, column: int, width: int, note_x: int,
    headers: Sequence[tuple[int, str]],
    rows: Sequence[tuple[str, Sequence[tuple[str, float]], Sequence[tuple[str, float]],
                         Optional[str]]],
) -> str:
    """One row per (label, first emoji list, second emoji list, note or
    None): the label right-aligned before `left`, the two emoji runs
    `column` apart and the note at `note_x`, under the (x, text) headers."""
    row_h = 30
    body = [f"<text x='{x}' y='42' font-size='11' {FONT}>{text}</text>" for x, text in headers]
    for i, (label, first, second, note) in enumerate(rows):
        y = 70 + i * row_h
        body.append(f"<text x='{left - 10}' y='{y}' font-size='11' {FONT} "
                    f"text-anchor='end'>{escape(label)}</text>")
        for x, entries in ((left, first), (left + column, second)):
            body.append(f"<text x='{x}' y='{y}' font-size='15'>"
                        f"{escape(' '.join(e for e, _ in entries))}</text>")
        if note is not None:
            body.append(f"<text x='{note_x}' y='{y}' font-size='11' {FONT}>{note}</text>")
    return _doc(width, 70 + len(rows) * row_h, body, title)


def category_top5_grid(
    top5: Mapping[tuple[str, str], Sequence[tuple[str, float]]],
    rho: Mapping[str, float],
    title: str = "Top-5 emoji per lexicon category, West vs East",
) -> str:
    rows = [(cat, top5.get(("West", cat), []), top5.get(("East", cat), []),
             f"ρ={_fmt(rho[cat])}" if cat in rho else None)
            for cat in sorted({cat for _, cat in top5})]
    return _emoji_grid(title, 150, 220, 710, 600, [(240, "West"), (460, "East")], rows)


def icon_extremes_grid(
    top: Mapping[str, Sequence[tuple[str, float]]],
    bottom: Mapping[str, Sequence[tuple[str, float]]],
    by_category: Mapping[str, tuple[float, float]],
    title: str = "Most and least cross-culturally stable emoji per category",
) -> str:
    rows = [(cat, top[cat], bottom[cat],
             f"mean={_fmt(by_category[cat][0])} sd={_fmt(by_category[cat][1])}")
            for cat in sorted(top)]
    return _emoji_grid(title, 140, 200, 730, 540,
                       [(140, "highest SCC"), (340, "lowest SCC")], rows)


def emit_charts(report, open_file) -> dict[str, Optional[str]]:
    """Write all renderable charts, each into `open_file(filename)`, a
    context manager giving a text file; returns chart name -> filename (None
    when the backing report section is empty, noted by the caller)."""
    freq, country, icon = report.frequency, report.country, report.icon
    charts = {
        "fig_top_emoji": freq and any(freq.top_by_culture.values())
        and top_emoji_bars(freq.top_by_culture),
        "fig_category_shares": freq and freq.category_shares
        and any(freq.category_shares.values())
        and category_share_bars(freq.category_shares, freq.category_scc),
        "fig_country_heatmap": country is not None
        and country_heatmap(list(country.corpora), country.matrix),
        "fig_category_top5": report.top5
        and category_top5_grid(report.top5, report.category_rho),
        "fig_icon_extremes": icon is not None
        and icon_extremes_grid(icon.top, icon.bottom, icon.by_category),
    }
    for name, svg in charts.items():
        if svg:
            with open_file(f"{name}.svg") as f:
                f.write(svg)
    return {name: f"{name}.svg" if svg else None for name, svg in charts.items()}
