"""Deterministic SVG scatter of an I-Q dataset: shots coloured by their
generator label, with each cluster's mean marker and 2-sigma ellipse."""

from __future__ import annotations

import math

import numpy as np

from .readout import IQDataset

POINT_COLORS = {0: "#1f77b4", 1: "#d62728", 2: "#999999", -1: "#555555"}


def _svg_components(dataset: IQDataset) -> list[tuple[np.ndarray, np.ndarray]]:
    """(mean, covariance) pairs to draw: mixture if recorded, else empirical."""
    if dataset.mixture is not None:
        return [
            (dataset.mixture.zero.mean, dataset.mixture.zero.cov),
            (dataset.mixture.one.mean, dataset.mixture.one.cov),
        ]
    points = dataset.points()
    out = []
    labelled = False
    for code in (0, 1):
        sel = points[dataset.truth == code]
        if sel.shape[0] >= 2:
            out.append((sel.mean(axis=0), np.cov(sel.T, bias=True)))
            labelled = True
    if not labelled and points.shape[0] >= 2:
        out.append((points.mean(axis=0), np.cov(points.T, bias=True)))
    return out


def render_iq_svg(dataset: IQDataset, width: int = 640, height: int = 480) -> str:
    """Deterministic SVG scatter: one circle per sample, cluster overlays."""
    points = dataset.points()
    components = _svg_components(dataset)
    margin = 48.0

    xs = [points[:, 0].min(), points[:, 0].max()]
    ys = [points[:, 1].min(), points[:, 1].max()]
    for mean, cov in components:
        spread = 2.0 * math.sqrt(max(np.linalg.eigvalsh(cov).max(), 0.0))
        xs += [mean[0] - spread, mean[0] + spread]
        ys += [mean[1] - spread, mean[1] + spread]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    span = max(x_hi - x_lo, y_hi - y_lo, 1e-9)
    scale = (min(width, height) - 2.0 * margin) / span
    x_mid = 0.5 * (x_lo + x_hi)
    y_mid = 0.5 * (y_lo + y_hi)

    def to_px(x: float, y: float) -> tuple[float, float]:
        return (
            width / 2.0 + (x - x_mid) * scale,
            height / 2.0 - (y - y_mid) * scale,
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{width / 2:.1f}" y="{height - 12:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">I (obs {dataset.observable})</text>',
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" transform="rotate(-90 16 {height / 2:.1f})">Q</text>',
    ]
    for x, y, code in zip(dataset.i, dataset.q, dataset.truth):
        px, py = to_px(float(x), float(y))
        color = POINT_COLORS.get(int(code), POINT_COLORS[-1])
        parts.append(
            f'<circle class="pt" cx="{px:.2f}" cy="{py:.2f}" r="2" fill="{color}" '
            f'fill-opacity="0.6"/>'
        )
    for mean, cov in components:
        mx, my = float(mean[0]), float(mean[1])
        px, py = to_px(mx, my)
        w, v = np.linalg.eigh(np.asarray(cov, dtype=float))
        rx = 2.0 * math.sqrt(max(w[1], 0.0)) * scale
        ry = 2.0 * math.sqrt(max(w[0], 0.0)) * scale
        angle = -math.degrees(math.atan2(v[1, 1], v[0, 1]))
        parts.append(
            f'<ellipse class="cov" cx="{px:.2f}" cy="{py:.2f}" rx="{rx:.2f}" ry="{ry:.2f}" '
            f'transform="rotate({angle:.2f} {px:.2f} {py:.2f})" fill="none" '
            f'stroke="#000000" stroke-dasharray="4 3"/>'
        )
        parts.append(
            f'<path class="mean" data-mean="{mx!r},{my!r}" '
            f'd="M {px - 6:.2f} {py:.2f} H {px + 6:.2f} M {px:.2f} {py - 6:.2f} '
            f'V {py + 6:.2f}" stroke="#000000" stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
