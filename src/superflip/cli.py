"""Command-line front end: the ``superflip`` tool.

Subcommands wrap one workflow each: ``flip`` and ``twist`` transform a
state file, ``orbit`` runs a seeded random flip word, ``markoff``
enumerates classical triples, ``identity`` runs the truncated identity
sum, ``spectrum`` dumps the region table and growth counts below a cutoff,
``generators`` builds and checks the holonomy pair, and ``selftest``
runs a quick battery.  All numeric output is full-precision decimal and
deterministic for a fixed configuration and seed; exit status 0 means
every asserted tolerance passed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import random
import sys

from .grassmann import DomainError, GrassmannNumber, NotInvertibleError, worst
from . import identity as identity_mod
from . import markoff as markoff_mod
from . import osp12
from . import torus

class CliError(Exception):
    """User-facing failure with a machine-readable payload."""

    def __init__(self, message: str, payload: dict | None = None, code: int = 1):
        super().__init__(message)
        self.payload = payload or {}
        self.code = code


def _json_dumps(obj, indent: int | None = 2) -> str:
    """Strict JSON: NaN and the infinities are written as null."""
    strict = json.loads(json.dumps(obj), parse_constant=lambda _: None)
    text = json.dumps(strict, sort_keys=True, indent=indent, allow_nan=False)
    return text + "\n" if indent else text


def _load_state(path: str | None) -> torus.DecoratedTorusState:
    if path is None:
        sc = GrassmannNumber.scalar
        z = GrassmannNumber.zero(2)
        return torus.DecoratedTorusState(sc(2, 1), sc(2, 1), sc(2, 1), z, z)
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as e:
        raise CliError(
            f"malformed state JSON at {path}:{e.lineno}:{e.colno}: {e.msg}",
            {"error": "parse", "path": path, "line": e.lineno, "col": e.colno},
            code=2,
        ) from None
    except OSError as e:
        raise CliError(f"cannot read state file: {e}", {"error": "io"}, code=2) from None
    try:
        return torus.DecoratedTorusState.from_obj(obj)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise CliError(
            f"invalid state in {path}: {type(e).__name__}: {e}",
            {"error": "state", "path": path},
            code=2,
        ) from None


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _fmt_g(x: GrassmannNumber) -> str:
    return _json_dumps(x.to_obj(), indent=None)


def _require_positive(name: str, value: float) -> None:
    """Refuse a length that is not positive (NaN too) before any maths runs."""
    if not value > 0:
        raise CliError(f"{name} must be positive, got {value!r}", {"error": "cutoff", name: value})


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def _transform(args, move, *params) -> int:
    """Apply ``move(state, *params)`` to the state file and check the semi-perimeter is kept."""
    state = _load_state(args.state)
    h0 = torus.semi_perimeter(state)
    out = move(state, *params)
    h1 = torus.semi_perimeter(out)
    drift = torus.h_drift(h0, h1)
    print(f"h before: {_fmt_g(h0)}")
    print(f"h after:  {_fmt_g(h1)}")
    print(f"relative drift: {drift!r}")
    _write(args.out, _json_dumps(out.to_obj()))
    if not drift <= torus.MOVE_DRIFT_TOL:
        raise CliError("semi-perimeter drifted", {"error": "h_drift", "drift": drift})
    return 0


def cmd_flip(args) -> int:
    return _transform(args, torus.flip, args.edge)


def cmd_twist(args) -> int:
    return _transform(args, torus.dehn_twist, args.edge, args.power)


def cmd_orbit(args) -> int:
    state = _load_state(args.state)
    h0 = torus.semi_perimeter(state)
    cur, word = torus.flip_word(state, args.length, random.Random(args.seed))
    drift = torus.h_drift(h0, torus.semi_perimeter(cur))
    print(f"word: {word}")
    print(f"relative h drift: {drift!r}")
    _write(args.out, _json_dumps(cur.to_obj()))
    if not drift <= torus.WORD_DRIFT_TOL:
        raise CliError("semi-perimeter drifted", {"error": "h_drift", "drift": drift})
    return 0


def cmd_markoff(args) -> int:
    state = _load_state(args.state)
    classical = state.sigma.is_zero() and state.theta.is_zero() and all(
        x.soul().is_zero() for x in state.lambdas()
    )
    if not classical and not args.body_only:
        raise CliError(
            "state has nonzero odd or soul data; pass --body-only to project",
            {"error": "not_classical"},
        )
    triples = markoff_mod.markoff_triples(markoff_mod.find_sink(state), args.depth)
    buf = ["a,b,c,residual,depth"]
    buf += [f"{a!r},{b!r},{c!r},{rel!r},{depth}" for depth, (a, b, c), rel in triples]
    _write(args.out, "\n".join(buf) + "\n")
    top = worst(rel for *_, rel in triples)
    print(f"{len(triples)} triples, worst relative residual {top!r}")
    if not top <= markoff_mod.MARKOFF_RESIDUAL_TOL:
        raise CliError("Markoff residual above tolerance", {"error": "residual", "worst": top})
    return 0


def cmd_identity(args) -> int:
    _require_positive("cutoff_length", args.cutoff_length)
    state = _load_state(args.state)
    try:
        report = identity_mod.verify_identity(state, cutoff_length=args.cutoff_length)
    except identity_mod.InsufficientCutoffError as e:
        raise CliError(
            str(e), {"error": "cutoff", "cutoff_length": args.cutoff_length}
        ) from None
    except OverflowError as e:
        raise DomainError(f"--cutoff-length {args.cutoff_length!r} overflows: {e}") from None
    payload = report.to_obj()
    _write(args.out, _json_dumps(payload))
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(report.rows[0].keys()))
            writer.writeheader()
            writer.writerows(report.rows)
    print(
        f"regions={report.region_count} deviation_body={report.deviation_body!r} "
        f"deviation_norm={report.deviation_norm!r}"
    )
    if not report.converged:
        raise CliError("identity deviation above tolerance", {"error": "identity", **payload})
    return 0


def cmd_spectrum(args) -> int:
    _require_positive("lmax", args.lmax)
    state = _load_state(args.state)
    sink = markoff_mod.find_sink(state)
    h = sink.h
    try:
        cutoff = identity_mod.growth_cutoff(args.lmax, h.body)
    except OverflowError as e:
        raise DomainError(f"--Lmax {args.lmax!r} overflows: {e}") from None
    regions = markoff_mod.enumerate_regions(sink, cutoff)
    pairs = [
        (row, reg)
        for row, reg in zip(markoff_mod.region_table_rows(regions, h), regions)
        if math.log(reg.lam.norm()) < args.lmax
    ]
    buf = ["address,slope_p,slope_q,body_lambda,norm_soul,body_length"]
    for row, _ in pairs:
        buf.append(
            f"{row['address']},{row['slope_p']},{row['slope_q']},"
            f"{row['body_lambda']!r},{row['norm_soul']!r},{row['body_length']!r}"
        )
    _write(args.out, "\n".join(buf) + "\n")
    if args.sidecar:
        sidecar = markoff_mod.region_sidecar([reg for _, reg in pairs], h)
        # i / 10 first, so the last point is exactly Lmax and the cutoff is complete there
        grid = [args.lmax * (i / 10) for i in range(1, 11)]
        sidecar["growth"] = identity_mod.growth_count(regions, grid, cutoff, h.body)
        with open(args.sidecar, "w") as fh:
            fh.write(_json_dumps(sidecar))
    print(f"{len(pairs)} curves with log-norm below {args.lmax}")
    return 0


def cmd_generators(args) -> int:
    pair = osp12.build_generators(_load_state(args.state))
    payload = {name: getattr(pair, name).to_obj() for name in ("g_a", "g_b", "r_a", "r_b")}
    payload.update(residuals=pair.residuals, frame=pair.frame)
    _write(args.out, _json_dumps(payload))
    for name, value in sorted(pair.residuals.items()):
        print(f"{name}: {value!r}")
    bad = pair.failures()
    if bad:
        raise CliError("generator residuals above tolerance", {"error": "generators", **bad})
    return 0


def cmd_selftest(args) -> int:
    rng = random.Random(args.seed)
    failures = []

    def check(name, ok, detail=""):
        print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
        if not ok:
            failures.append(name)

    n = 2
    sc = GrassmannNumber.scalar
    b1, b2 = GrassmannNumber.generator(n, 1), GrassmannNumber.generator(n, 2)

    x = sc(n, 2) + b1 * b2
    check("grassmann inverse", (x * x.inverse() - 1).norm() < 1e-14)
    check("grassmann sqrt", (x.sqrt() ** 2 - x).norm() < 1e-14)

    st = torus.DecoratedTorusState(sc(n, 1), sc(n, 1), sc(n, 1), b1 * 0.1, b2 * 0.1)
    check("flip involution", functools.reduce(torus.flip, "cc", st).isclose(st, 1e-12))

    drift = 0.0
    for _ in range(10):
        s = torus.random_state(rng)
        cur, _ = torus.flip_word(s, 12, rng)
        drift = max(drift, torus.h_drift(torus.semi_perimeter(s), torus.semi_perimeter(cur)))
    check("semi-perimeter invariance", drift <= torus.WORD_DRIFT_TOL, f"drift={drift:.2e}")

    rep = identity_mod.verify_identity(st, cutoff_length=24.0)
    check("identity partial sum", rep.converged, f"dev={rep.deviation_norm:.2e}")

    st = torus.random_state(rng)
    pair = osp12.build_generators(st)
    check("generator contracts", not pair.failures(), f"worst={worst(pair.residuals.values()):.2e}")
    # the frame slots' summands in length form, from the generators' r, against the region form
    h, ws, gaps = torus.semi_perimeter(st), torus.w_invariants(st), []
    for r, e in zip((pair.r_a, pair.r_b), map("abc".index, pair.frame)):
        region = identity_mod.summand_region(st.lambdas()[e], h, ws[e])
        gaps.append((identity_mod.summand_geodesic(osp12.length_from_r(r), ws[e]) - region).norm() / region.norm())
    check("length form", worst(gaps) <= 1e-12, f"worst={worst(gaps):.2e}")

    if failures:
        raise CliError("selftest failed: " + ", ".join(failures), {"error": "selftest"})
    print("all selftests passed")
    return 0


# ----------------------------------------------------------------------
# argument wiring
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superflip",
        description="super Ptolemy flips, Markoff trees and the super McShane identity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        """A subcommand that reads ``--state`` and writes ``--out``."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--state", help="state JSON file (default: classical (1,1,1))")
        p.add_argument("--out", help="output path (default: stdout)")
        return p

    p = command("flip", cmd_flip, "flip one edge of a state file")
    p.add_argument("--edge", choices=["a", "b", "c"], default="c")

    p = command("twist", cmd_twist, "Dehn twist a state file")
    p.add_argument("--edge", choices=["a", "b", "c"], default="c")
    p.add_argument("--power", type=int, default=1)

    p = command("orbit", cmd_orbit, "seeded random flip word, reports h drift")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--length", type=int, default=25)

    p = command("markoff", cmd_markoff, "classical triple tree with residuals")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--body-only", action="store_true")

    p = command("identity", cmd_identity, "truncated super McShane identity")
    p.add_argument("--cutoff-length", dest="cutoff_length", type=float, default=24.0)
    p.add_argument("--csv", help="also write the per-curve table here")

    p = command("spectrum", cmd_spectrum, "length spectrum table below --Lmax")
    p.add_argument("--Lmax", dest="lmax", type=float, default=10.0)
    p.add_argument("--sidecar", help="also write Grassmann values and growth counts here (JSON)")

    command("generators", cmd_generators, "holonomy generators and residuals")

    p = sub.add_parser("selftest", help="quick verification battery")
    p.set_defaults(func=cmd_selftest)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, NotInvertibleError) as e:
        # valid input whose arithmetic leaves the domain: an overflow, a body underflowing to 0
        err = CliError(str(e), {"error": "domain"})
    except markoff_mod.NonConvergenceError as e:
        err = CliError(str(e), {"error": "nonconvergence"})
    except CliError as e:
        err = e
    sys.stderr.write(_json_dumps({"failure": str(err), **err.payload}))
    return err.code


if __name__ == "__main__":
    sys.exit(main())
