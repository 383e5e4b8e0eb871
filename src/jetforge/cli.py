"""Command-line front end.

Subcommands: symbol, prolong, vanish, rank, solve, solve-multi, pcp,
check.  Reports go to stdout as text (default) or JSON conforming to the
shipped schema.  Exit codes: 0 success, 1 unsolvable / no witness /
failed checks, 2 input or usage errors.

The environment variable JETFORGE_MAX_PROLONG (default 8) caps the
prolongation level a command may request.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .algebra import format_poly
from .checks import run_all
from .errors import JetforgeError, UnsolvableError
from .jets import jet_dimension
from .parser import parse_operator, parse_pdo, parse_point, parse_polynomial
from .solver import check_surjectivity, pcp_check, residual_vanishes, solve
from .symbols import LinearSymbol, format_operator, principal_part, prolong
from .vanishing import finsupp_scan

DEFAULT_MAX_PROLONG = 8


def _max_prolong() -> int:
    raw = os.environ.get("JETFORGE_MAX_PROLONG", "")
    try:
        return int(raw) if raw else DEFAULT_MAX_PROLONG
    except ValueError:
        raise JetforgeError(
            f"JETFORGE_MAX_PROLONG must be an integer, got {raw!r}"
        ) from None


def _check_level(level: int) -> None:
    cap = _max_prolong()
    if level > cap:
        raise JetforgeError(
            f"prolongation level {level} exceeds the cap {cap} "
            f"(raise JETFORGE_MAX_PROLONG to override)"
        )
    if level < 0:
        raise JetforgeError("level must be >= 0")


def _read_text(path, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: NUL in the path, or not UTF-8
        raise JetforgeError(f"cannot read {what} file: {exc}") from None


def _load_operator(op_arg: str):
    path = Path(op_arg)
    if path.suffix == ".pdo":
        return parse_pdo(_read_text(path, "operator"))
    return parse_operator(op_arg)


def _load_linear(op_arg: str) -> LinearSymbol:
    sym = _load_operator(op_arg)
    if not isinstance(sym, LinearSymbol):
        raise JetforgeError("this command needs a linear operator (d[...] atoms)")
    return sym


def _point_json(point) -> list:
    return [str(c) for c in point]


def _render(report: dict, args) -> None:
    if args.output == "json":
        print(json.dumps(report, indent=2))
        return
    for line in _text_lines(report):
        print(line)


def _text_lines(report: dict) -> list[str]:
    kind = report.get("kind")
    if kind == "symbol":
        return [
            f"dimension: {report['dim']}   order: {report['order']}",
            f"total symbol:     {report['total']}",
            f"principal symbol: {report['principal']}",
        ]
    if kind == "prolong":
        lines = [f"prolongation level {report['level']}:"]
        for comp in report["components"]:
            beta = ",".join(str(b) for b in comp["beta"])
            lines.append(f"  beta=[{beta}]  {comp['symbol']}")
        return lines
    if kind == "vanish" or (kind is None and "order" in report):
        reports = report["reports"] if kind == "vanish" else [report]
        lines = []
        for rep in reports:
            order = rep["order"]
            if isinstance(order, dict):
                desc = f"vanishes to order exactly {order['exactly']}"
            elif order == "not_vanishing":
                desc = "does not vanish"
            else:
                desc = "identically zero"
            lines.append(f"point ({', '.join(rep['point'])}): {desc}")
        return lines
    if kind == "rank":
        verdict = "full" if report["full"] else "not full"
        return [
            f"rank {report['rank']} of {report['fiber_dimension']} at level "
            f"{report['level']}: {verdict}"
        ]
    if kind in ("solve", "solve-multi"):
        if report["status"] == "unsolvable":
            return [f"unsolvable at point ({', '.join(report['point'])})"]
        where = f" at {len(report['points'])} points" if "points" in report else ""
        return [
            f"solution: {report['polynomial']}",
            f"post-check: {report['post_check']}{where}",
        ]
    if kind == "pcp":
        if report["status"] == "witness":
            entries = [
                f"y[{','.join(str(a) for a in e['alpha'])}] = {e['re']}"
                + (f" + {e['im']}*i" if e["im"] != "0" else "")
                for e in report["jet"]["entries"]
                if e["re"] != "0" or e["im"] != "0"
            ]
            return ["witness: " + ("; ".join(entries) if entries else "zero jet")]
        return [f"no witness: {report['note']}"]
    if kind == "check":
        lines = [s["summary"] for s in report["suites"]]
        lines.append("all passed" if report["all_passed"] else "FAILURES above")
        return lines


def _cmd_symbol(args) -> tuple[dict, int]:
    sym = _load_operator(args.op)
    if isinstance(sym, LinearSymbol):
        principal = format_operator(principal_part(sym))
    else:
        principal = "(nonlinear symbol: no principal part computed)"
    report = {
        "kind": "symbol",
        "dim": sym.base_dim,
        "order": sym.order,
        "total": str(sym),
        "principal": principal,
    }
    return report, 0


def _cmd_prolong(args) -> tuple[dict, int]:
    sym = _load_linear(args.op)
    _check_level(args.level)
    pro = prolong(sym, args.level)
    components = [
        {
            "beta": list(beta),
            "order": comp.order,
            "symbol": format_operator(comp),
        }
        for beta, comp in pro.components.items()
    ]
    report = {
        "kind": "prolong",
        "dim": sym.base_dim,
        "order": sym.order,
        "level": args.level,
        "components": components,
    }
    return report, 0


def _cmd_vanish(args) -> tuple[dict, int]:
    sym = _load_linear(args.op)
    points = [parse_point(p) for p in args.point]
    reports = finsupp_scan(sym, points)
    if len(reports) == 1:
        return reports[0].to_json_dict(), 0
    payload = {
        "kind": "vanish",
        "reports": [r.to_json_dict() for r in reports],
    }
    return payload, 0


def _cmd_rank(args) -> tuple[dict, int]:
    sym = _load_linear(args.op)
    _check_level(args.level)
    x0 = parse_point(args.point)
    report = check_surjectivity(sym, x0, args.level)
    payload = {
        "kind": "rank",
        "point": _point_json(x0),
        "level": args.level,
        "rank": report.rank,
        "fiber_dimension": jet_dimension(sym.base_dim, args.level),
        "full": report.full,
    }
    return payload, 0


def _cmd_solve(args) -> tuple[dict, int]:
    sym = _load_linear(args.op)
    _check_level(args.order)
    x0 = parse_point(args.point)
    g = parse_polynomial(args.rhs, dim=sym.base_dim)
    try:
        solution = solve(sym, g, [x0], args.order)
    except UnsolvableError as exc:
        payload = {
            "kind": "solve",
            "status": "unsolvable",
            "point": _point_json(x0),
            "order": args.order,
            "jet": None,
            "polynomial": None,
            "pivots": [list(p) for p in exc.pivots],
        }
        return payload, 1
    (lifted,) = solution.lifts
    exact = residual_vanishes(sym, g, solution.polynomial, [x0], args.order)
    payload = {
        "kind": "solve",
        "status": "solved",
        "point": _point_json(x0),
        "order": args.order,
        "jet": lifted.jet.to_json_dict(),
        "polynomial": format_poly(solution.polynomial),
        "pivots": [list(p) for p in lifted.pivots],
        "post_check": "exact" if exact else "FAILED",
    }
    return payload, 0 if exact else 1


def _read_points_file(path_text: str):
    points = []
    lines = _read_text(path_text, "points").splitlines()
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            points.append(parse_point(line, number))
    if not points:
        raise JetforgeError("points file contains no points")
    return points


def _cmd_solve_multi(args) -> tuple[dict, int]:
    sym = _load_linear(args.op)
    _check_level(args.order)
    points = _read_points_file(args.points_file)
    g = parse_polynomial(args.rhs, dim=sym.base_dim)
    try:
        f = solve(sym, g, points, args.order).polynomial
    except UnsolvableError as exc:
        payload = {
            "kind": "solve-multi",
            "status": "unsolvable",
            "point": _point_json(exc.point),
            "order": args.order,
        }
        return payload, 1
    exact = residual_vanishes(sym, g, f, points, args.order)
    payload = {
        "kind": "solve-multi",
        "status": "solved",
        "points": [_point_json(p) for p in points],
        "order": args.order,
        "polynomial": format_poly(f),
        "post_check": "exact" if exact else "FAILED",
    }
    return payload, 0 if exact else 1


def _cmd_pcp(args) -> tuple[dict, int]:
    sym = _load_operator(args.op)
    x0 = parse_point(args.point)
    g = parse_polynomial(args.rhs, dim=sym.base_dim)
    witness = pcp_check(sym, g, x0)
    if witness.found:
        payload = {
            "kind": "pcp",
            "status": "witness",
            "point": _point_json(x0),
            "jet": witness.jet.to_json_dict(),
        }
        return payload, 0
    payload = {
        "kind": "pcp",
        "status": "no_witness",
        "point": _point_json(x0),
        "note": witness.note,
    }
    return payload, 1


def _cmd_check(args) -> tuple[dict, int]:
    results = run_all(seed=args.seed, scale=0.1 if args.quick else 1.0)
    suites = [
        {
            "name": r.name,
            "cases": r.cases,
            "failed": len(r.failures),
            "passed": r.passed,
            "failures": r.failures[:3],
            "summary": r.summary(),
        }
        for r in results
    ]
    all_passed = all(r.passed for r in results)
    payload = {
        "kind": "check",
        "seed": args.seed,
        "suites": suites,
        "all_passed": all_passed,
    }
    return payload, 0 if all_passed else 1


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="jetforge",
        description="Exact jet calculus for scalar differential operators.",
    )
    top.add_argument(
        "--output",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps the top-level value unless the flag follows the command
    common.add_argument(
        "--output", choices=("text", "json"), default=argparse.SUPPRESS
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_sub(name, help_text):
        return sub.add_parser(name, help=help_text, parents=[common])

    def add_op(p):
        p.add_argument(
            "--op",
            required=True,
            help="operator: inline DSL text or a path to a .pdo file",
        )

    p = add_sub("symbol", "print the total and principal symbols")
    add_op(p)

    p = add_sub("prolong", "print prolongation components")
    add_op(p)
    p.add_argument("--level", type=int, required=True)

    p = add_sub("vanish", "vanishing order at one or more points")
    add_op(p)
    p.add_argument(
        "--point", action="append", required=True, help="repeatable: p1,p2,..."
    )

    p = add_sub("rank", "rank of the prolonged fiber map")
    add_op(p)
    p.add_argument("--point", required=True)
    p.add_argument("--level", type=int, required=True)

    p = add_sub("solve", "solve P(f) = g to a jet order at a point")
    add_op(p)
    p.add_argument("--point", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--rhs", required=True, help="right-hand side polynomial")

    p = add_sub("solve-multi", "solve to a jet order at several points at once")
    add_op(p)
    p.add_argument("--points-file", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--rhs", required=True)

    p = add_sub("pcp", "search for a pointwise witness jet")
    add_op(p)
    p.add_argument("--point", required=True)
    p.add_argument("--rhs", required=True)

    p = add_sub("check", "run the built-in property suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--quick", action="store_true", help="run a tenth of the usual cases"
    )
    return top


_HANDLERS = {
    "symbol": _cmd_symbol,
    "prolong": _cmd_prolong,
    "vanish": _cmd_vanish,
    "rank": _cmd_rank,
    "solve": _cmd_solve,
    "solve-multi": _cmd_solve_multi,
    "pcp": _cmd_pcp,
    "check": _cmd_check,
}


# built once per process: parse_args keeps no state between calls
_arg_parser = functools.cache(build_arg_parser)


def run_command(argv) -> int:
    try:
        args = _arg_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        report, exit_code = _HANDLERS[args.command](args)
    except JetforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # str() of an int over the interpreter's limit
        if "integer string conversion" not in str(exc):
            raise
        print("error: a number in the result is too long to print", file=sys.stderr)
        return 2
    _render(report, args)
    return exit_code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
