"""Deterministic SVG scatter of an I-Q dataset: shots coloured by their
generator label, with each cluster's mean marker and 2-sigma ellipse.

The shots are drawn without a per-shot Python step: their pixel
coordinates are two numpy columns, their colours index a palette by truth
code, and one ``%`` format writes every circle.  ``%.2f`` rounds as
``{:.2f}`` does, so the bytes are those of formatting each shot alone."""

from __future__ import annotations

import math

import numpy as np

from .readout import IQDataset

POINT_COLORS = {0: "#1f77b4", 1: "#d62728", 2: "#999999", -1: "#555555"}
WIDTH, HEIGHT = 640, 480  # SVG canvas size in pixels
_PALETTE = np.array([POINT_COLORS[code] for code in (-1, 0, 1, 2)])  # indexed by truth code + 1


def _svg_components(dataset: IQDataset) -> tuple[int, np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """(e, shots, (mean, covariance) pairs to draw) in units of 2**e.

    The pairs are the mixture's if recorded, else empirical.  e >= 0 is the
    binary exponent of the largest coordinate, mixture mean or mixture
    standard deviation, so none exceeds 1 and no frame or overlay arithmetic
    overflows; dividing by a power of two is exact.
    """
    points = dataset.points()
    mixture = dataset.mixture
    pairs = [] if mixture is None else [(c.mean, c.cov) for c in (mixture.zero, mixture.one)]
    extents = [np.abs(points).max()] + [
        max(np.abs(mean).max(), math.sqrt(np.diag(cov).max())) for mean, cov in pairs
    ]
    e = max(math.frexp(max(extents))[1], 0)
    points = np.ldexp(points, -e)
    if pairs:
        return e, points, [(np.ldexp(mean, -e), np.ldexp(cov, -2 * e)) for mean, cov in pairs]
    out = []
    for code in (0, 1):
        sel = points[dataset.truth == code]
        if sel.shape[0] >= 2:
            out.append((sel.mean(axis=0), np.cov(sel.T, bias=True)))
    if not out and points.shape[0] >= 2:
        out.append((points.mean(axis=0), np.cov(points.T, bias=True)))
    return e, points, out


def render_iq_svg(dataset: IQDataset) -> str:
    """Deterministic WIDTH x HEIGHT SVG scatter: one circle per sample, cluster overlays.

    The frame spans the shots and each overlay's 2-sigma extent.  A shot's
    pixel coordinates take the same separate operations as an overlay's,
    ``WIDTH / 2 + (x - x_mid) * scale`` with one ufunc each (no fused
    multiply-add), so both round alike.
    """
    e, points, components = _svg_components(dataset)
    margin = 48.0

    xs = [points[:, 0].min(), points[:, 0].max()]
    ys = [points[:, 1].min(), points[:, 1].max()]
    for mean, cov in components:
        spread = 2.0 * math.sqrt(max(np.linalg.eigvalsh(cov).max(), 0.0))
        xs += [mean[0] - spread, mean[0] + spread]
        ys += [mean[1] - spread, mean[1] + spread]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    # a floor of 1e-9 data units, and of 2**-1000 so that the scale stays finite
    span = max(x_hi - x_lo, y_hi - y_lo, math.ldexp(1e-9, -e), 2.0**-1000)
    scale = (min(WIDTH, HEIGHT) - 2.0 * margin) / span
    x_mid = 0.5 * (x_lo + x_hi)
    y_mid = 0.5 * (y_lo + y_hi)

    def to_px(x: float, y: float) -> tuple[float, float]:
        return (
            WIDTH / 2.0 + (x - x_mid) * scale,
            HEIGHT / 2.0 - (y - y_mid) * scale,
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT - 12:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">I (obs {dataset.observable})</text>',
        f'<text x="16" y="{HEIGHT / 2:.1f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" transform="rotate(-90 16 {HEIGHT / 2:.1f})">Q</text>',
    ]
    flat: list = [None] * (3 * dataset.n_samples)
    flat[0::3] = (WIDTH / 2.0 + (points[:, 0] - x_mid) * scale).tolist()
    flat[1::3] = (HEIGHT / 2.0 - (points[:, 1] - y_mid) * scale).tolist()
    flat[2::3] = _PALETTE[dataset.truth + 1].tolist()
    parts.append(
        "\n".join(['<circle class="pt" cx="%.2f" cy="%.2f" r="2" fill="%s" fill-opacity="0.6"/>']
                  * dataset.n_samples) % tuple(flat)
    )
    for mean, cov in components:
        px, py = to_px(float(mean[0]), float(mean[1]))
        mx, my = (math.ldexp(float(m), e) for m in mean)
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
