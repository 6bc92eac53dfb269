"""Minimal SVG emission for curves, subdivisions and region plots.

Hand-rolled so outputs are deterministic and diffable; every file embeds
the generating command line as metadata.
"""

from __future__ import annotations


class SvgCanvas:
    def __init__(self, width=480, height=480, bounds=(-3, -3, 3, 3), command=""):
        self.width = width
        self.height = height
        self.x0, self.y0, self.x1, self.y1 = (float(b) for b in bounds)
        self.command = command
        self.items = []

    def _map(self, p):
        sx = self.width / (self.x1 - self.x0)
        sy = self.height / (self.y1 - self.y0)
        return ((float(p[0]) - self.x0) * sx,
                self.height - (float(p[1]) - self.y0) * sy)

    def line(self, a, b, color="black", width=1.5, dash=None):
        (xa, ya), (xb, yb) = self._map(a), self._map(b)
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.items.append(
            f'<line x1="{xa:.2f}" y1="{ya:.2f}" x2="{xb:.2f}" y2="{yb:.2f}" '
            f'stroke="{color}" stroke-width="{width}"{d}/>')

    def polyline(self, pts, color="black", width=1.5):
        s = " ".join(f"{x:.2f},{y:.2f}" for x, y in map(self._map, pts))
        self.items.append(
            f'<polyline points="{s}" fill="none" stroke="{color}" stroke-width="{width}"/>')

    def dot(self, p, r=3.0, color="black"):
        x, y = self._map(p)
        self.items.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r}" fill="{color}"/>')

    def text(self, p, s, size=12, color="black"):
        x, y = self._map(p)
        self.items.append(f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}" '
                          f'fill="{color}">{s}</text>')

    def write(self, path):
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
                f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">')
        meta = f"<!-- generated by: {self.command} -->" if self.command else ""
        body = "\n".join(self.items)
        with open(path, "w") as fh:
            fh.write(head + "\n" + meta + "\n" + body + "\n</svg>\n")


def draw_curve_and_subdivision(X, path, command="", truncation=3.0):
    """Curve with weights on the left, dual subdivision on the right."""
    verts = [(float(a), float(b)) for a, b in X.vertices]
    xs = [v[0] for v in verts] or [0.0]
    ys = [v[1] for v in verts] or [0.0]
    pad = truncation
    bounds = (min(xs) - pad, min(ys) - pad, max(xs) + pad + 4, max(ys) + pad)
    cv = SvgCanvas(bounds=bounds, width=760, height=420, command=command)
    for e in X.edges:
        if e.kind == "segment":
            a, b = ([float(c) for c in p] for p in e.verts)
            cv.line(a, b, color="navy", width=2)
            mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        else:
            a = [float(c) for c in e.verts[0]]
            d = e.rays[0]
            nrm = (d[0] ** 2 + d[1] ** 2) ** 0.5
            b = (a[0] + d[0] / nrm * truncation, a[1] + d[1] / nrm * truncation)
            cv.line(a, b, color="navy", width=2)
            if e.kind == "line":
                b2 = (a[0] - d[0] / nrm * truncation, a[1] - d[1] / nrm * truncation)
                cv.line(a, b2, color="navy", width=2)
            mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        if e.weight != 1:
            cv.text(mid, str(e.weight), color="crimson")
    for v in verts:
        cv.dot(v, color="navy")
    if X.subdivision is not None:
        off_x = max(xs) + pad + 1
        off_y = min(ys)
        S = X.subdivision
        for f in S.faces(1):
            a, b = f.vertices[0], f.vertices[-1]
            cv.line((a[0] + off_x, a[1] + off_y), (b[0] + off_x, b[1] + off_y),
                    color="darkgreen")
        for f in S.faces(0):
            v = f.vertices[0]
            cv.dot((v[0] + off_x, v[1] + off_y), color="darkgreen", r=2.5)
    cv.write(path)


def draw_region_h(lam, path, command="", extent=2.5, samples=160):
    """The amoeba-like region boundary: 4 x1 x2 = lam^2 and its two images."""
    import numpy as np
    from .coamoeba import rstar_apply
    cv = SvgCanvas(bounds=(-extent, -extent, extent, extent), command=command)
    cv.line((-extent, 0), (extent, 0), color="#bbbbbb", width=0.7)
    cv.line((0, -extent), (0, extent), color="#bbbbbb", width=0.7)
    x1 = np.exp(np.linspace(np.log(lam / 2 / extent / 2), np.log(extent * 1.2), samples))
    s0 = np.stack([x1, (lam / 2) ** 2 / x1], axis=1)
    for k, color in ((0, "navy"), (1, "crimson"), (2, "darkgreen")):
        pts = s0 if k == 0 else rstar_apply(1, k, s0)
        cv.polyline([tuple(p) for p in pts if max(abs(p[0]), abs(p[1])) <= extent * 1.2],
                    color=color)
    cv.write(path)
