"""Span tracer that wraps hilbertgeom's public entry points at run time.

The shims live here, not in the library: ``Tracer.install`` replaces the
entry points named in ``SPANS`` and the ray and gauge methods of every domain
class, in every hilbertgeom module that holds them, and ``uninstall`` puts the
originals back.  Each recorded span keeps its name, start, end, parent span
and operation id; spans stay in memory until ``write`` saves them.  Start
and end are CPU seconds of the process, the clock run.py times operations
with.

Entry points that share a span name call one another (``densities`` calls
``unit_ball_areas``, ``PBall.ray_hits`` calls the generic ``ray_hits``,
``ProjectiveImage.ray_hits_both`` casts rays in its inner domain), so only
the outermost call of a name records a span and counts rows: every row is
counted once.  Nothing is recorded while ``op`` is ``None``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

import hilbertgeom as hg
from hilbertgeom import domains

RAY = "domains.ray"
PATHS = ("closed", "generic", "projective")
TRIANGLE_KINDS = ("disk", "square", "square_corner", "pball4", "smoothed_square")

# module -> {entry point: span name}
SPANS = {
    "measure": {
        "unit_ball_areas": "measure.density",
        "unit_ball_area": "measure.density",
        "densities": "measure.density",
        "density": "measure.density",
        "region_area": "measure.region",
        "ball_area": "measure.ball",
    },
    "metric": {
        "hilbert_distances": "metric.distance",
        "hilbert_distance": "metric.distance",
        "point_to_segment_distances": "metric.segment",
        "point_to_segment_distance": "metric.segment",
        "delta_thin": "metric.delta",
        "delta_four_point": "metric.delta",
    },
    "triangles": {
        "ideal_triangle_area": "triangles.area",
        "ideal_triangle_area_detail": "triangles.area",
    },
    "normalize": {
        "normalize_triangle_pointed": "normalize",
        "normalize_many": "normalize",
    },
    "regularity": {
        "boundary_regularity_report": "regularity",
        "holder_bound_check": "regularity",
    },
}
# spans whose rows are the points passed as the second argument
ROW_SPANS = {"measure.density", "metric.distance"}


def _rows(P) -> int:
    return int(np.size(P) // 2)


def ray_path(domain) -> str:
    """Which ray solver a domain uses: closed form, generic, or projective."""
    if isinstance(domain, domains.ProjectiveImage):
        return "projective"
    if isinstance(domain, (domains.Ellipse, domains.Polygon)):
        return "closed"
    if isinstance(domain, domains.PBall) and domain.p == 2.0:
        return "closed"
    return "generic"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id, rows, ray path]
        self.open = []  # indices of the open spans, innermost last
        self.open_names = Counter()
        self.op = None  # id of the operation in progress; None pauses recording
        self.generic_ray_open = False
        self.gauge_rows = 0  # gauge rows evaluated inside generic ray spans
        self._undo = []

    # ---- recording ----------------------------------------------------------

    def _begin(self, name: str, rows: int, path: str = "") -> int:
        i = len(self.spans)
        parent = self.open[-1] if self.open else -1
        self.spans.append([name, time.process_time(), 0.0, parent, self.op, rows, path])
        self.open.append(i)
        self.open_names[name] += 1
        return i

    def _end(self, i: int) -> None:
        span = self.spans[i]
        span[2] = time.process_time()
        self.open.pop()
        self.open_names[span[0]] -= 1

    def _function_shim(self, fn, name: str):
        tracer = self
        counts_rows = name in ROW_SPANS

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if tracer.op is None or tracer.open_names[name]:
                return fn(*args, **kwargs)
            i = tracer._begin(name, _rows(args[1]) if counts_rows else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._end(i)

        return shim

    def _ray_shim(self, fn, rays_per_row: int):
        tracer = self

        @functools.wraps(fn)
        def shim(domain, P, V):
            if tracer.op is None or tracer.open_names[RAY]:
                return fn(domain, P, V)
            path = ray_path(domain)
            i = tracer._begin(RAY, rays_per_row * _rows(P), path)
            tracer.generic_ray_open = path == "generic"
            try:
                return fn(domain, P, V)
            finally:
                tracer.generic_ray_open = False
                tracer._end(i)

        return shim

    def _gauge_shim(self, fn):
        tracer = self

        @functools.wraps(fn)
        def shim(domain, P):
            if tracer.generic_ray_open:
                tracer.gauge_rows += _rows(P)
            return fn(domain, P)

        return shim

    # ---- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "hilbertgeom" or k.startswith("hilbertgeom.")]
        for module_name, table in SPANS.items():
            module = getattr(hg, module_name)
            for fn_name, span in table.items():
                original = getattr(module, fn_name)
                shim = self._function_shim(original, span)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._undo.append((m, attr, original))
                            setattr(m, attr, shim)
        for cls in vars(domains).values():
            if not (isinstance(cls, type) and issubclass(cls, domains.ConvexDomain)):
                continue
            for meth, make in (
                ("ray_hits", lambda f: self._ray_shim(f, 1)),
                ("ray_hits_both", lambda f: self._ray_shim(f, 2)),
                ("gauge", self._gauge_shim),
            ):
                if meth in vars(cls):
                    original = vars(cls)[meth]
                    self._undo.append((cls, meth, original))
                    setattr(cls, meth, make(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ---- results ------------------------------------------------------------

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "rows", "path")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def counts(self) -> dict:
        """Span counts and rows by name: what must repeat exactly between runs."""
        out = Counter()
        for name, _, _, _, _, rows, path in self.spans:
            key = f"{name}.{path}" if path else name
            out[f"{key}.calls"] += 1
            out[f"{key}.rows"] += rows
        out["domains.gauge_rows.generic"] = self.gauge_rows
        return dict(out)

    def layer_metrics(self, op_kinds: dict) -> dict:
        """Per-layer metrics; ``op_kinds`` maps operation id to its kind."""
        spans = self.spans
        children = [0.0] * len(spans)
        for name, start, end, parent, *_ in spans:
            if parent >= 0:
                children[parent] += end - start

        def ancestors(i):
            parent = spans[i][3]
            while parent >= 0:
                yield spans[parent][0]
                parent = spans[parent][3]

        self_s, calls, rows = Counter(), Counter(), Counter()
        density_rays = ball_points = triangle_regions = 0
        triangle_s = defaultdict(list)
        for i, (name, start, end, parent, op, n, path) in enumerate(spans):
            key = f"{name}.{path}" if path else name
            self_s[key] += end - start - children[i]
            calls[key] += 1
            rows[key] += n
            if name == RAY and "measure.density" in ancestors(i):
                density_rays += n
            elif name == "measure.density" and "measure.ball" in ancestors(i):
                ball_points += n
            elif name == "measure.region" and "triangles.area" in ancestors(i):
                triangle_regions += 1
            elif name == "triangles.area":
                triangle_s[op_kinds[op]].append(end - start)

        def ratio(a, b):
            return a / b if b else 0.0

        m = {}
        for path in PATHS:
            key = f"{RAY}.{path}"
            m[f"domains.rays.{path}"] = rows[key]
            m[f"domains.ray_self_s.{path}"] = self_s[key]
            m[f"domains.rays_per_s.{path}"] = ratio(rows[key], self_s[key])
        m["domains.gauge_rows_per_ray.generic"] = ratio(self.gauge_rows, rows[f"{RAY}.generic"])
        points = rows["measure.density"]
        m["measure.density_points"] = points
        m["measure.density_self_s"] = self_s["measure.density"]
        m["measure.density_points_per_s"] = ratio(points, self_s["measure.density"])
        m["measure.rays_per_density_point"] = ratio(density_rays, points)
        m["measure.region_calls"] = calls["measure.region"]
        m["measure.region_self_s"] = self_s["measure.region"]
        m["measure.ball_self_s"] = self_s["measure.ball"]
        m["measure.ball_density_points"] = ball_points
        m["metric.distance_rows"] = rows["metric.distance"]
        m["metric.distance_calls"] = calls["metric.distance"]
        m["metric.rows_per_distance_call"] = ratio(rows["metric.distance"], calls["metric.distance"])
        m["metric.distance_self_s"] = self_s["metric.distance"]
        m["metric.segment_self_s"] = self_s["metric.segment"]
        m["triangles.region_calls_per_triangle"] = ratio(triangle_regions, calls["triangles.area"])
        m["triangles.self_s"] = self_s["triangles.area"]
        for kind in TRIANGLE_KINDS:
            times = triangle_s.get(kind, [])
            m[f"triangles.triangle_s.{kind}"] = ratio(sum(times), len(times))
        for layer in ("normalize", "regularity"):
            m[f"{layer}.calls"] = calls[layer]
            m[f"{layer}.self_s"] = self_s[layer]
        return m
