import math
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour_namespace():
    """Run the README's python block the way a reader would paste it, with
    every bare expression line evaluated as well as executed."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    return namespace


def test_readme_tour_runs_and_its_comments_hold():
    ns = _tour_namespace()
    hilbert_distance, finsler_norm, ball_area = ns["hilbert_distance"], ns["finsler_norm"], ns["ball_area"]
    disk = ns["disk"]
    assert hilbert_distance(disk, [0, 0], [0.5, 0]) == np.arctanh(0.5)
    assert math.isclose(finsler_norm(disk, [0.5, 0], [1, 0]), 4.0 / 3.0, rel_tol=1e-12)
    assert math.isclose(ball_area(disk, [0, 0], 1.0).value, 4.0 * np.pi * np.sinh(0.5) ** 2, rel_tol=1e-2)
    assert math.isclose(ns["ideal_triangle_area"](disk, ns["tri"]).value, np.pi, rel_tol=1e-2)
    assert ns["res"].max_value > 10.0 and ns["res"].divergent
    assert math.isclose(ns["norm"].alpha, 0.5, abs_tol=1e-9)
    assert math.isclose(ns["rep"].H, 1.0, rel_tol=0.1) and ns["rep"].alpha > 1.0
