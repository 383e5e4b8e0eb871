"""Seeded request generators for the three benchmark workloads.

A workload is a sequence of rounds; a round is a short, fixed sequence
of request shapes whose values (points, right-hand sides, coefficients)
are drawn from the seed.  The timed loop runs whole rounds, so every run
sees the same mix of shapes and only the drawn values differ between
seeds (mixed-small deals its shapes from decks, see _SHAPES).  Rounds are
drawn on demand, in order, with the loop's clock stopped, so the same
seed always gives the same requests.
Value ranges are kept narrow on purpose: exact arithmetic costs grow with
the bit length of the inputs, and a wide range would make the cost of a
round depend on the seed more than on the code under test.

Every request is a CLI argv whose option values are written as
``--opt=value`` (see README.md for why), plus the facts the verifier
needs to check the output independently of the CLI's own post-check.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

LEWY = "d[1,0,0] + i*d[0,1,0] + (-2*i*x1 + 2*x2)*d[0,0,1]"
# A Mizohata-type operator on R^3: first order, never characteristic
# (the d[1,0,0] coefficient is 1), a cheaper elimination than Lewy.
MIZOHATA = "d[1,0,0] + i*x1*d[0,1,0] + x2*d[0,0,1]"


@dataclass(frozen=True)
class Request:
    argv: tuple
    check: dict


@dataclass
class Workload:
    warmup: list  # argv lists run once, untimed, before the first loop
    min_rounds: int  # the loop runs at least this many rounds; their stdout is digested
    draw: Callable  # draws the next round: a list of Request
    workdir: Path

    def next_round(self) -> list:
        """The next round.  Past rounds are not kept, so the harness's
        memory does not grow with the number of requests run."""
        return [Request(_route_long_op(q.argv, self.workdir), q.check) for q in self.draw()]


# --------------------------------------------------------------------------
# small exact helpers: polynomials are {exponent tuple: Fraction} dicts.
# They do not import jetforge, so the inputs of a seed stay the same when
# the program under test changes.


def _indices(m: int, k: int):
    """Multiindices of weight <= k in graded-lex order."""
    out = []
    for w in range(k + 1):
        out.extend(_weight_slice(m, w))
    return out


def _weight_slice(m: int, w: int):
    if m == 1:
        return [(w,)]
    return [(a,) + rest for a in range(w, -1, -1) for rest in _weight_slice(m - 1, w - a)]


def _rat(rng: random.Random, nums, dens) -> Fraction:
    value = Fraction(rng.choice(nums), rng.choice(dens))
    return -value if rng.random() < 0.5 else value


def _poly(rng, m, degree, n_terms, nums=(1, 2, 3), dens=(1, 2, 3)):
    monos = _indices(m, degree)
    return {a: _rat(rng, nums, dens) for a in rng.sample(monos, min(n_terms, len(monos)))}


def _eval(poly, point) -> Fraction:
    total = Fraction(0)
    for alpha, c in poly.items():
        term = c
        for x, e in zip(point, alpha):
            term *= x**e
        total += term
    return total


def _mul(p, q):
    out = {}
    for a, c in p.items():
        for b, d in q.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, Fraction(0)) + c * d
    return {k: v for k, v in out.items() if v}


def _mono_text(alpha, names) -> str:
    return "*".join(
        f"{names[j]}^{e}" if e > 1 else names[j] for j, e in enumerate(alpha) if e
    )


def _poly_text(poly, names=None, imag=False) -> str:
    """DSL text of a polynomial; ``imag`` multiplies every term by i."""
    if not poly:
        return "0"
    names = names or [f"x{j + 1}" for j in range(len(next(iter(poly))))]
    parts = []
    for alpha in sorted(poly, key=lambda a: (sum(a), [-e for e in a])):
        c = poly[alpha]
        factors = [str(abs(c))] if abs(c) != 1 or (not any(alpha) and not imag) else []
        if imag:
            factors.append("i")
        mono = _mono_text(alpha, names)
        if mono:
            factors.append(mono)
        parts.append(("-" if c < 0 else "+", "*".join(factors)))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def _slot(kind: str, alpha) -> str:
    return f"{kind}[{','.join(str(a) for a in alpha)}]"


def _op_text(terms) -> str:
    """DSL text of a linear operator from {alpha: (poly, imag)}."""
    return " + ".join(
        f"({_poly_text(poly, imag=imag)})*{_slot('d', alpha)}"
        for alpha, (poly, imag) in terms.items()
    )


def _point_text(point) -> str:
    return ",".join(str(c) for c in point)


def _linear_op(rng, m, r, degree):
    """A seeded operator of order exactly r on R^m.

    One top-order coefficient is a nonzero constant, so the principal
    symbol never vanishes: every prolonged fiber map has full rank and
    every solve request is solvable.
    """
    top = [a for a in _indices(m, r) if sum(a) == r]
    terms = {rng.choice(top): ({(0,) * m: _rat(rng, (1, 2, 3), (1, 2))}, False)}
    for alpha in _indices(m, r):
        if alpha not in terms and rng.random() < 0.5:
            terms[alpha] = (_poly(rng, m, degree, rng.randint(1, 2)), rng.random() < 0.25)
    return terms


def _distinct_points(rng, m, count, nums, dens):
    points = []
    while len(points) < count:
        p = tuple(_rat(rng, nums, dens) for _ in range(m))
        if p not in points:
            points.append(p)
    return points


# --------------------------------------------------------------------------
# solve-deep

# point coordinates +-p/q for the heavy workloads: every value has a
# similar height, so the cost of exact elimination and gluing varies
# little from seed to seed (zero coordinates would make requests cheaper)
_DEEP_COORDS = ((1, 2, 3, 4, 5), (2, 3, 5, 7))


def _solve_deep(rng, workdir: Path) -> Workload:
    lewy_file = workdir / "lewy.pdo"
    lewy_file.write_text(f"dim 3 order 1\n{LEWY}\n", encoding="utf-8")
    lewy, mizohata = (str(lewy_file), LEWY), (MIZOHATA, MIZOHATA)
    # rank/solve pairs per round.  Requests fall in three cost clusters:
    # 4 cheap ones (level 4), 6 middle ones (Lewy at level 5, twice, and
    # Mizohata at level 6) and 2 dear ones (Lewy at level 6).  The median
    # latency lies inside the middle cluster, not on a gap between two
    # clusters, where it would jump from seed to seed.
    pairs = [(lewy, 4), (lewy, 5), (lewy, 5), (lewy, 6), (mizohata, 4), (mizohata, 6)]

    def next_round():
        batch = []
        for (op_arg, op_text), level in pairs:
            point = _point_text(_distinct_points(rng, 3, 1, *_DEEP_COORDS)[0])
            rhs = _poly_text(_poly(rng, 3, 3, rng.randint(2, 3)))
            common = {"op": op_text, "point": point, "order": level}
            batch.append(Request(
                ("--output=json", "rank", f"--op={op_arg}", f"--point={point}", f"--level={level}"),
                dict(common, kind="rank", expect_full=True, paired_solve=True),
            ))
            batch.append(Request(
                ("--output=json", "solve", f"--op={op_arg}", f"--point={point}",
                 f"--order={level}", f"--rhs={rhs}"),
                dict(common, kind="solve", rhs=rhs),
            ))
        return batch

    # one prolongation per fixed operator fills the total-derivative cache
    warmup = [["prolong", f"--op={op_arg}", "--level=6"] for op_arg, _ in (lewy, mizohata)]
    return Workload(warmup, 1, next_round, workdir)


# --------------------------------------------------------------------------
# glue-multi

# (base dimension, operator order, points, jet order s); None = Lewy.
# The 2-dimensional order-2 shape comes twice so that the median latency
# falls inside its cost cluster rather than on the edge between two.
_GLUE_SHAPES = (
    (None, 1, 3, 0),
    (None, 1, 3, 1),
    (1, 2, 4, 2),
    (1, 1, 3, 1),
    (2, 1, 3, 1),
    (2, 2, 2, 2),
    (2, 2, 2, 2),
)


def _glue_multi(rng, workdir: Path) -> Workload:
    counter = itertools.count()

    def next_round():
        r = next(counter)
        batch = []
        for k, (m, order, n_points, s) in enumerate(_GLUE_SHAPES):
            if m is None:
                m, op_text = 3, LEWY
            else:
                op_text = _op_text(_linear_op(rng, m, order, 1))
            points = _distinct_points(rng, m, n_points, *_DEEP_COORDS)
            path = workdir / f"points-{r}-{k}.txt"
            path.write_text("".join(_point_text(p) + "\n" for p in points), encoding="utf-8")
            rhs = _poly_text(_poly(rng, m, 1, 2))
            batch.append(Request(
                ("--output=json", "solve-multi", f"--op={op_text}", f"--points-file={path}",
                 f"--order={s}", f"--rhs={rhs}"),
                {"kind": "solve-multi", "op": op_text, "points": [_point_text(p) for p in points],
                 "order": s, "rhs": rhs},
            ))
        return batch

    warm_points = workdir / "points-warmup.txt"
    warm_points.write_text("1/2,1/3,1\n-1/3,2/5,-1/2\n", encoding="utf-8")
    warmup = [["solve-multi", f"--op={LEWY}", f"--points-file={warm_points}", "--order=1", "--rhs=x1"]]
    return Workload(warmup, 1, next_round, workdir)


# --------------------------------------------------------------------------
# mixed-small


def _small_point(rng, m):
    return _distinct_points(rng, m, 1, (0, 1, 2, 3), (1, 2, 3))[0]


def _mixed_symbol(rng, m, r, k):
    op = _op_text(_linear_op(rng, m, r, 2))
    return ("symbol", f"--op={op}"), {"kind": "symbol", "op": op, "dim": m, "order": r}


def _mixed_prolong(rng, m, r, k):
    op = _op_text(_linear_op(rng, m, r, 2))
    level = k + 1
    return (("prolong", f"--op={op}", f"--level={level}"),
            {"kind": "prolong", "op": op, "dim": m, "level": level})


def _mixed_vanish(rng, m, r, k):
    terms = _linear_op(rng, m, r, 2)
    points = _distinct_points(rng, m, 2, (0, 1, 2, 3), (1, 2, 3))
    # multiply every coefficient by (x1 - a)^e, keeping degree <= 2, so
    # the operator vanishes at the first point to order e - 1 (for e > 0)
    e = k
    a = points[0][0]
    factor = {(0,) * m: Fraction(1)}
    for _ in range(e):
        factor = _mul(factor, {(1,) + (0,) * (m - 1): Fraction(1), (0,) * m: -a})
    scaled = {}
    for alpha, (poly, imag) in terms.items():
        trimmed = {b: c for b, c in poly.items() if sum(b) <= 2 - e} or {(0,) * m: Fraction(1)}
        scaled[alpha] = (_mul(trimmed, factor), imag)
    op = _op_text(scaled)
    texts = [_point_text(p) for p in points]
    return (("vanish", f"--op={op}", *(f"--point={t}" for t in texts)),
            {"kind": "vanish", "op": op, "points": texts})


def _mixed_rank(rng, m, r, k):
    op = _op_text(_linear_op(rng, m, r, 2))
    point = _point_text(_small_point(rng, m))
    level = k + 1
    return (("rank", f"--op={op}", f"--point={point}", f"--level={level}"),
            {"kind": "rank", "op": op, "point": point, "order": level, "expect_full": True})


def _mixed_solve(rng, m, r, k):
    op = _op_text(_linear_op(rng, m, r, 2))
    point = _point_text(_small_point(rng, m))
    s = k
    rhs = _poly_text(_poly(rng, m, 2, rng.randint(1, 3)))
    return (("solve", f"--op={op}", f"--point={point}", f"--order={s}", f"--rhs={rhs}"),
            {"kind": "solve", "op": op, "point": point, "order": s, "rhs": rhs})


def _mixed_pcp(rng, m, r, k):
    """A nonlinear symbol A(x)*y^2 + B(x)*y + C(x) in one jet coordinate.

    C is fixed last so that, at the point, the quadratic has a rational
    root (k = 0), has irrational real roots (1) or has no real root (2);
    the expected verdict is known without asking the program.
    """
    x0 = _small_point(rng, m)
    alpha = rng.choice(_indices(m, r))
    names = [f"x{j + 1}" for j in range(m)]
    while True:
        a_poly = _poly(rng, m, 1, 2)
        if _eval(a_poly, x0):
            break
    b_poly = _poly(rng, m, 2, 2)
    g_poly = _poly(rng, m, 2, rng.randint(1, 2))
    a, b, g = _eval(a_poly, x0), _eval(b_poly, x0), _eval(g_poly, x0)
    kind = ("rational", "irrational", "complex")[k]
    if kind == "rational":
        root = _rat(rng, (0, 1, 2, 3), (1, 2, 3))
        c = -(a * root * root + b * root)
    else:
        s = _rat(rng, (1, 2, 3), (1, 2))
        disc = 2 * s * s if kind == "irrational" else -s * s
        c = (b * b - disc) / (4 * a)
    # C(x) = c + g(x): at x0 the equation A y^2 + B y + C = g(x0) reads
    # a y^2 + b y + c = 0
    c_poly = dict(g_poly)
    zero = (0,) * m
    c_poly[zero] = c_poly.get(zero, Fraction(0)) + c
    y = _slot("y", alpha)
    body = (f"({_poly_text(a_poly, names)})*{y}^2 + ({_poly_text(b_poly, names)})*{y}"
            f" + ({_poly_text({k: v for k, v in c_poly.items() if v}, names)})")
    rhs = _poly_text(g_poly)
    point = _point_text(x0)
    return (("pcp", f"--op={body}", f"--point={point}", f"--rhs={rhs}"),
            {"kind": "pcp", "op": body, "point": point, "rhs": rhs,
             "expect_witness": kind == "rational"})


_MIXED = (_mixed_symbol, _mixed_prolong, _mixed_vanish, _mixed_rank, _mixed_solve, _mixed_pcp)
# Every maker takes a shape (m, r, k): base dimension m, operator order r
# and a third size k (level k + 1 for prolong and rank, vanishing factor
# power for vanish, jet order for solve, root kind for pcp; symbol has
# none).  A few shapes cost far more than the rest (rank at level 3 on
# 3-dimensional operators of order 2 takes about a fifth of the time), so
# they are dealt from a shuffled deck of all 18 shapes per maker rather
# than drawn independently: a run then holds each shape equally often and
# its cost does not follow how many dear shapes the seed happened to draw.
_SHAPES = tuple(itertools.product((1, 2, 3), (1, 2), (0, 1, 2)))


def _mixed_small(rng, workdir: Path) -> Workload:
    decks = {make: [] for make in _MIXED}

    def next_round():
        makers = list(_MIXED)
        rng.shuffle(makers)
        batch = []
        for make in makers:
            deck = decks[make]
            if not deck:
                deck.extend(_SHAPES)
                rng.shuffle(deck)
            argv, check = make(rng, *deck.pop())
            batch.append(Request(("--output=json",) + argv, check))
        return batch

    return Workload([["symbol", "--op=d[1]"]], 16, next_round, workdir)


_WORKLOADS = {
    "solve-deep": _solve_deep,
    "glue-multi": _glue_multi,
    "mixed-small": _mixed_small,
}

NAMES = tuple(_WORKLOADS)


# Longest inline --op text the CLI accepts.  Longer text crashes it with
# an OSError (it stats the text as a file name; NAME_MAX is 255 bytes),
# a known defect listed in README.md.  Such operators go through the
# CLI's documented .pdo file route instead; the operator is unchanged.
_INLINE_OP_MAX = 255


def _route_long_op(argv: tuple, workdir: Path) -> tuple:
    out = []
    for arg in argv:
        text = arg[len("--op="):] if arg.startswith("--op=") else None
        if text is not None and len(text.encode()) > _INLINE_OP_MAX:
            slots = [tuple(int(a) for a in s.split(",")) for s in re.findall(r"[dy]\[([0-9,]+)\]", text)]
            path = workdir / f"op-{hashlib.sha256(text.encode()).hexdigest()[:16]}.pdo"
            header = f"dim {len(slots[0])} order {max(sum(s) for s in slots)}"
            path.write_text(f"{header}\n{text}\n", encoding="utf-8")
            arg = f"--op={path}"
        out.append(arg)
    return tuple(out)


def make(name: str, seed: int, workdir: Path) -> Workload:
    """The named workload drawn from the seed; it writes files into workdir."""
    return _WORKLOADS[name](random.Random(f"{name}:{seed}"), Path(workdir))
