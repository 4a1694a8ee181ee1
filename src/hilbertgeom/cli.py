"""Command-line driver: domain specs in, computations and sweeps out.

Output is machine readable only (JSON or CSV).  Exit codes: 0 success,
1 a verification check failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .domains import PBall, SmoothedPolygon, domain_from_json, regular_polygon
from .errors import GeometryError
from .metric import FourPointConfig, ThinTriangleConfig, delta_four_point, delta_thin, hilbert_distance
from .normalize import normalize_triangle_pointed
from .suites import run_suite
from .triangles import TriangleSamplerConfig, ideal_triangle_area, make_ideal_triangle, sup_area_search

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

_DEFAULT_TOL = 1e-3
_DEFAULT_BUDGET = 24
_DEFAULT_SEED = 0
# config-file fields: the accepted JSON types (never a bool) and their name
_CONFIG_FIELDS = {"tol": ((int, float), "a number"), "budget": (int, "an integer"), "seed": (int, "an integer")}

SWEEP_HEADER = "label,param,delta_thin,delta_4pt,sup_area,diverged,seed"
_PBALL_GRID = (2.0, 3.0, 4.0, 6.0, 10.0, 20.0)
_SMOOTHING_GRID = (0.0, 0.05, 0.1, 0.2)


@dataclass(frozen=True)
class SweepRow:
    label: str
    param: float
    delta_thin: float
    delta_4pt: float
    sup_area: float
    diverged: int
    seed: int

    def csv(self) -> str:
        return (
            f"{self.label},{self.param:g},{self.delta_thin:.6f},"
            f"{self.delta_4pt:.6f},{self.sup_area:.6f},{self.diverged},{self.seed}"
        )


def _load_domain(spec_arg: str):
    """Domain from a JSON file path, or inline JSON if the value starts with '{'."""
    text = spec_arg
    if not spec_arg.lstrip().startswith("{"):
        with open(spec_arg, "r", encoding="utf-8") as fh:
            text = fh.read()
    return domain_from_json(text)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _fail_usage(message: str) -> int:
    print(message, file=sys.stderr)
    return EXIT_USAGE


def cmd_dist(args) -> int:
    domain = _load_domain(args.spec)
    d = hilbert_distance(domain, (args.coords[0], args.coords[1]), (args.coords[2], args.coords[3]))
    _emit("0" if d == 0.0 else f"{d:.6f}", args.out)
    return EXIT_OK


def cmd_area(args) -> int:
    domain = _load_domain(args.spec)
    tri = make_ideal_triangle(domain, *args.params)
    if not tri.validity:
        return _fail_usage(f"invalid ideal triangle: {tri.invalid_reason}")
    est = ideal_triangle_area(domain, tri, tol=args.tol)
    _emit(json.dumps(est.to_jsonable()), args.out)
    return EXIT_OK


def cmd_normalize(args) -> int:
    domain = _load_domain(args.spec)
    tri = make_ideal_triangle(domain, *args.params)
    result = normalize_triangle_pointed(domain, tri)
    _emit(json.dumps(result.to_jsonable()), args.out)
    return EXIT_OK


def _sweep_domain(family: str, param: float, sides: int):
    if family == "pball":
        return "pball", PBall(param)
    if family == "regular-polygon-smoothings":
        base = regular_polygon(sides)
        label = f"ngon{sides}-smooth"
        if param == 0.0:
            return label, base
        return label, SmoothedPolygon(base.vertices, smoothing=param)
    raise ValueError(f"unknown family: {family}")


def cmd_sweep(args) -> int:
    grid = args.grid
    if grid is None:
        grid = _PBALL_GRID if args.family == "pball" else _SMOOTHING_GRID
    if len(grid) == 0:
        return _fail_usage("empty parameter grid")
    budget = args.budget
    rows = []
    for param in grid:
        label, domain = _sweep_domain(args.family, float(param), args.sides)
        thin = delta_thin(domain, ThinTriangleConfig(budget=budget, seed=args.seed))
        four = delta_four_point(domain, FourPointConfig(budget=40 * budget, seed=args.seed))
        sup = sup_area_search(domain, TriangleSamplerConfig(budget=max(4, budget // 4), seed=args.seed, tol=args.tol))
        rows.append(
            SweepRow(
                label=label,
                param=float(param),
                delta_thin=thin.delta_hat,
                delta_4pt=four.delta_hat,
                sup_area=sup.max_value,
                diverged=len(sup.divergent),
                seed=args.seed,
            )
        )
    lines = [SWEEP_HEADER] + [r.csv() for r in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        report = run_suite(args.suite, budget=args.budget_raw, seed=args.seed, tol=args.tol)
    except KeyError as exc:
        return _fail_usage(str(exc.args[0]))
    _emit("\n".join(report.lines()) + "\n", args.out)
    return EXIT_OK if report.passed else EXIT_FAIL


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=None, help="quadrature tolerance")
    p.add_argument("--budget", type=int, default=None, help="sample budget")
    p.add_argument("--seed", type=int, default=None, help="RNG seed")
    p.add_argument("--out", default=None, help="write output to FILE instead of stdout")
    p.add_argument("--config", default=None, help="JSON file with default tol/budget/seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hilbertgeom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="Hilbert distance between two interior points")
    p.add_argument("--spec", required=True, help="domain spec: JSON file or inline JSON")
    p.add_argument("coords", type=float, nargs=4, metavar=("PX", "PY", "QX", "QY"))
    _add_common(p)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("area", help="area of the ideal triangle with given boundary parameters")
    p.add_argument("--spec", required=True)
    p.add_argument("params", type=float, nargs=3, metavar="T")
    _add_common(p)
    p.set_defaults(func=cmd_area)

    p = sub.add_parser("normalize", help="projective normal form of an ideal triangle")
    p.add_argument("--spec", required=True)
    p.add_argument("params", type=float, nargs=3, metavar="T")
    _add_common(p)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("sweep", help="hyperbolicity and sup-area sweep over a domain family")
    p.add_argument("--family", choices=["pball", "regular-polygon-smoothings"], default="pball")
    p.add_argument("--grid", type=float, nargs="*", default=None, help="parameter grid")
    p.add_argument("--sides", type=int, default=4, help="polygon sides for the smoothing family")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument(
        "suite",
        help="comparison | finite-area | graph | regularity | ball-growth (lemma aliases accepted)",
    )
    _add_common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def _resolve_defaults(args) -> None:
    config = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object")
    for key, (kinds, kind_name) in _CONFIG_FIELDS.items():
        value = config.get(key)
        if key in config and (isinstance(value, bool) or not isinstance(value, kinds)):
            raise ValueError(f"config field {key!r} must be {kind_name}, not {json.dumps(value)}")
    budget_given = args.budget is not None or "budget" in config
    if args.tol is None:
        args.tol = float(config.get("tol", _DEFAULT_TOL))
    if args.budget is None:
        args.budget = config.get("budget", _DEFAULT_BUDGET)
    if args.seed is None:
        args.seed = config.get("seed", _DEFAULT_SEED)
    if not args.tol > 0.0:
        raise ValueError("tol must be positive")
    if args.budget < 1:
        raise ValueError("budget must be at least 1")
    if args.seed < 0:
        raise ValueError("seed must be non-negative")
    # verify suites keep their own default budget unless one is given
    args.budget_raw = args.budget if budget_given else None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve_defaults(args)
        return args.func(args)
    except (GeometryError, ValueError, OSError) as exc:
        # an input the library refuses, an unreadable --spec or --config
        # file, or an unwritable --out
        return _fail_usage(str(exc))


if __name__ == "__main__":
    sys.exit(main())
