"""Independent checks of CLI outputs, run after the timed loop.

Each check re-derives the claim in the report from the request's own
inputs: a printed polynomial is parsed back and the operator applied to
it, a vanishing order is confirmed by prolongation, a witness is
substituted into the symbol.  None of them reads the CLI's own
``post_check`` field as evidence.
"""

from __future__ import annotations

import json
from math import comb

import jetforge as jf


def verify_all(results) -> list:
    """One verdict per result: None when right, else the reason.

    ``results`` holds ``(check, exit_code, stdout)`` in execution order;
    ``exit_code`` is None when the request raised.
    """
    reports = [_load(stdout) for _, _, stdout in results]
    verdicts = [_verify_one(check, code, report)
                for (check, code, _), report in zip(results, reports)]
    # a full rank must come with a successful solve on the same matrix,
    # which a rank request marked paired_solve has right after it
    for i, (check, _, _) in enumerate(results):
        if not check.get("paired_solve") or not (reports[i] or {}).get("full"):
            continue
        pair = results[i + 1][0] if i + 1 < len(results) else {}
        same = all(pair.get(k) == check[k] for k in ("op", "point", "order"))
        if same and (reports[i + 1] or {}).get("status") == "solved":
            continue
        if verdicts[i] is None:
            verdicts[i] = "full rank but the paired solve did not succeed"
    return verdicts


def _load(stdout: str):
    try:
        report = json.loads(stdout)
    except ValueError:
        return None
    return report if isinstance(report, dict) else None


def _verify_one(check: dict, code, report):
    if code is None:
        return "raised an exception"
    if code == 2:
        return "exit 2 (input error)"
    if report is None:
        return "stdout is not one JSON report"
    try:
        return _CHECKS[check["kind"]](check, code, report)
    except (KeyError, TypeError, ValueError, jf.JetforgeError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"


def _residual_vanishes(check, polynomial: str, points) -> bool:
    sym = jf.parse_operator(check["op"])
    g = jf.parse_polynomial(check["rhs"], dim=sym.base_dim)
    f = jf.parse_polynomial(polynomial, dim=sym.base_dim)
    residual = jf.apply_operator(sym, f) - g
    return all(jf.taylor_jet(residual, p, check["order"]).is_zero for p in points)


def _check_solve(check, code, report):
    if code != 0 or report["status"] != "solved":
        return f"not solved (exit {code}) although the principal symbol never vanishes"
    if report["point"] != [str(c) for c in jf.parse_point(check["point"])]:
        return "report names another point"
    if not _residual_vanishes(check, report["polynomial"], [jf.parse_point(check["point"])]):
        return "residual jet is not zero at the point"
    return None


def _check_solve_multi(check, code, report):
    if code != 0 or report["status"] != "solved":
        return f"not solved (exit {code}) although the principal symbol never vanishes"
    points = [jf.parse_point(p) for p in check["points"]]
    if report["points"] != [[str(c) for c in p] for p in points]:
        return "report names other points"
    if not _residual_vanishes(check, report["polynomial"], points):
        return "residual jet is not zero at every point"
    return None


def _check_rank(check, code, report):
    m = len(jf.parse_point(check["point"]))
    fiber = comb(m + check["order"], m)
    if code != 0:
        return f"exit {code}"
    if report["fiber_dimension"] != fiber:
        return f"fiber dimension {report['fiber_dimension']}, expected {fiber}"
    if not 0 <= report["rank"] <= fiber:
        return "rank outside [0, fiber dimension]"
    if report["full"] != (report["rank"] == fiber):
        return "full flag disagrees with rank = fiber dimension"
    if check.get("expect_full") and not report["full"]:
        return "not full although the principal symbol never vanishes"
    return None


def _check_vanish(check, code, report):
    if code != 0:
        return f"exit {code}"
    sym = jf.parse_operator(check["op"])
    reports = report["reports"] if report.get("kind") == "vanish" else [report]
    if len(reports) != len(check["points"]):
        return "one report per point expected"
    for text, rep in zip(check["points"], reports):
        x0 = jf.parse_point(text)
        order = rep["order"]
        if rep["point"] != [str(c) for c in x0]:
            return "report names another point"
        if order == "identically_zero":
            ok = sym.is_zero
        elif order == "not_vanishing":
            ok = jf.desingularization_order(sym, x0, cap=0) == 0
        else:
            c = order["exactly"]
            ok = jf.desingularization_order(sym, x0, cap=c + 1) == c + 1
        if not ok:
            return f"vanishing order {order} at {text} does not hold"
    return None


def _check_symbol(check, code, report):
    if code != 0:
        return f"exit {code}"
    sym = jf.parse_operator(check["op"])
    if (report["dim"], report["order"]) != (check["dim"], check["order"]):
        return "wrong dimension or order"
    if jf.parse_operator(report["total"], dim=sym.base_dim).terms != sym.terms:
        return "total symbol does not re-parse to the operator"
    top = {a: c for a, c in sym.terms.items() if sum(a) == sym.order}
    if jf.parse_operator(report["principal"], dim=sym.base_dim).terms != top:
        return "principal symbol is not the top-order part"
    return None


def _total_derivative(terms: dict, i: int, m: int) -> dict:
    """d_i^# of sum f_a y_a: sum (d_i f_a) y_a + f_a y_(a + e_i)."""
    out = {}
    for alpha, coeff in terms.items():
        up = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
        for key, poly in ((alpha, coeff.partial(i + 1)), (up, coeff)):
            out[key] = out.get(key, jf.MultiPoly.zero(m)) + poly
    return {a: c for a, c in out.items() if c}


def _check_prolong(check, code, report):
    """Each component must be d_i^# of its neighbour one weight below.

    The neighbour is reached through the last nonzero entry of beta,
    while the program builds each component through the first, so the
    check also exercises the commutation of total derivatives.
    """
    if code != 0:
        return f"exit {code}"
    sym = jf.parse_operator(check["op"])
    m, level = check["dim"], check["level"]
    comps = {tuple(c["beta"]): jf.parse_operator(c["symbol"], dim=m).terms
             for c in report["components"]}
    if len(comps) != comb(m + level, m) or comps.get((0,) * m) != sym.terms:
        return "wrong components"
    for beta, terms in comps.items():
        if not any(beta):
            continue
        i = max(j for j, b in enumerate(beta) if b)
        below = beta[:i] + (beta[i] - 1,) + beta[i + 1:]
        if below not in comps or _total_derivative(comps[below], i, m) != terms:
            return f"component {list(beta)} is not a total derivative of {list(below)}"
    return None


def _check_pcp(check, code, report):
    if not check["expect_witness"]:
        if code == 1 and report["status"] == "no_witness":
            return None
        return "witness reported for an equation with no rational root"
    if code != 0 or report["status"] != "witness":
        return "no witness although the equation has a rational root"
    sym = jf.parse_operator(check["op"])
    x0 = jf.parse_point(check["point"])
    g = jf.parse_polynomial(check["rhs"], dim=sym.base_dim)
    jet = jf.JetVector.from_json_dict(report["jet"])
    if jf.evaluate_general(sym, x0, jet) != g.evaluate(x0):
        return "witness does not hit g(x0)"
    return None


_CHECKS = {
    "solve": _check_solve,
    "solve-multi": _check_solve_multi,
    "rank": _check_rank,
    "vanish": _check_vanish,
    "symbol": _check_symbol,
    "prolong": _check_prolong,
    "pcp": _check_pcp,
}
