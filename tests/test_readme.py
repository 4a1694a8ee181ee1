import json
import math
import re
import shlex
from pathlib import Path

import numpy as np

from hilbertgeom.cli import main

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


def _shell_examples():
    """Each README ``hilbertgeom dist|area|normalize`` example with an inline
    spec, paired with the comment line documenting its output."""
    text = README.read_text(encoding="utf-8")
    lines = [line for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S) for line in block.splitlines()]
    return {
        line.split()[1]: (shlex.split(line)[1:], after.removeprefix("# "))
        for line, after in zip(lines, lines[1:])
        if re.match(r"hilbertgeom (dist|area|normalize) --spec '", line) and after.startswith("# ")
    }


def _json_fields(text):
    """``(key, value text)`` pairs of a flat JSON object line, in order; the
    value texts are raw, so a documented ``…`` survives."""
    return re.findall(r'"(\w+)": (.*?)(?=, "\w+": |}$)', text)


def test_readme_shell_examples_print_what_they_document(capsys):
    examples = _shell_examples()
    assert set(examples) == {"dist", "area", "normalize"}
    outputs = {}
    for name, (argv, _) in examples.items():
        assert main(argv) == 0
        outputs[name] = capsys.readouterr().out.strip()
    assert outputs["dist"] == examples["dist"][1] == "0.549306"
    for name in ("area", "normalize"):
        json.loads(outputs[name])
        printed, documented = _json_fields(outputs[name]), _json_fields(examples[name][1])
        assert [k for k, _ in documented] == [k for k, _ in printed]
        # a value documented up to a trailing ellipsis is a prefix of the
        # printed one, any other value is printed as documented
        for (key, shown), (_, value) in zip(documented, printed):
            if shown.endswith("…"):
                assert value.startswith(shown[:-1]), (name, key)
            else:
                assert value == shown, (name, key)
