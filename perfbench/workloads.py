"""The three workloads: seeded inputs, one top-level call, and the checks on its result.

Each workload turns ``(seed, index)`` into one generated state, makes one
top-level call into ``superflip`` with it, and checks the output without
trusting any verdict the program prints about itself.  README.md in this
directory explains why these three workloads were chosen.

This module imports ``superflip``; ``run.py`` puts the checkout's ``src``
first on ``sys.path`` before importing it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass

from superflip import cli, identity, markoff, osp12, torus
from superflip.grassmann import GrassmannNumber

# Off-sink starts: a seeded word of this many body-increasing flips away
# from the sink.  Flips that would push a lambda-length body past
# BODY_CAP are skipped; it sits far below float overflow (~1.8e308), and
# words this short never reach it.
OFF_SINK_FLIPS = (3, 6)
BODY_CAP = 1e12

# build_generators' acceptance contract: mapping residuals within 1e-9,
# every other residual (OSp relation, Berezinian, supertrace) within 1e-10.
MAPPING_TOL = 1e-9
RELATION_TOL = 1e-10
GENERATOR_RESIDUALS = tuple(
    f"{g}_{kind}"
    for g in ("g_a", "g_b")
    for kind in ("mapping", "osp", "berezinian", "supertrace")
)


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # string seeds hash with SHA-512, so inputs do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{index}")


def off_sink_state(rng: random.Random, n: int, spin_class: int) -> torus.DecoratedTorusState:
    """A random state, moved to its sink, then a few body-increasing flips away."""
    start = torus.random_state(rng, n=n, spin=torus.spin_for_class(spin_class))
    cur = markoff.find_sink(start).state
    last = None
    for _ in range(rng.randint(*OFF_SINK_FLIPS)):
        bodies = [x.body for x in cur.lambdas()]
        grows = []
        for i, edge in enumerate("abc"):
            j, k = (i + 1) % 3, (i + 2) % 3
            new = (bodies[j] ** 2 + bodies[k] ** 2) / bodies[i]
            if edge != last and bodies[i] < new < BODY_CAP:
                grows.append(edge)
        if not grows:
            break
        last = rng.choice(grows)
        cur = torus.flip(cur, last)
    return cur


def classical_region_count(bodies, cutoff_length: float) -> int:
    """Regions with body(lambda) * body(h) <= 2 cosh(L/2), by the classical recursion.

    W is nilpotent, so the bodies of a super Markoff map obey the
    classical Markoff recursion exactly: a flip sends body a to
    (b^2 + c^2) / a and body(h) = a/(bc) + b/(ac) + c/(ab).  This walks
    that recursion on floats alone, independently of the Grassmann tree
    walk it checks.  The two can only disagree for a region whose value
    lies within rounding of the cutoff.
    """
    cutoff = 2.0 * math.cosh(cutoff_length / 2.0)
    tri = list(bodies)
    while True:  # body-decreasing walk to the sink
        best = None
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            new = (tri[j] ** 2 + tri[k] ** 2) / tri[i]
            if new < tri[i] and (best is None or new < best[0]):
                best = (new, i)
        if best is None:
            break
        tri[best[1]] = best[0]
    a, b, c = tri
    h = a / (b * c) + b / (a * c) + c / (a * b)
    count = sum(1 for x in tri if x * h <= cutoff)
    stack = [(tuple(tri), None)]
    while stack:  # every region is born at exactly one edge away from the sink
        t, parent = stack.pop()
        for i in range(3):
            if i == parent:
                continue
            j, k = (i + 1) % 3, (i + 2) % 3
            new = (t[j] ** 2 + t[k] ** 2) / t[i]
            if new * h <= cutoff:
                count += 1
                child = list(t)
                child[i] = new
                stack.append((tuple(child), i))
    return count


def check_identity_sum(
    partial_sum: GrassmannNumber,
    reported_body: float,
    reported_norm: float,
    region_count: int,
    row_count: int,
    expected_regions: int,
    bounds: tuple[float, float],
) -> list[str]:
    """Problems with one identity result; ``converged`` is deliberately ignored."""
    problems = []
    dev = partial_sum - 0.5
    dev_body, dev_norm = abs(dev.body), dev.norm()
    body_bound, norm_bound = bounds
    if not dev_body <= body_bound:
        problems.append(f"body deviation {dev_body:.3e} > {body_bound:.0e}")
    if not dev_norm <= norm_bound:
        problems.append(f"norm deviation {dev_norm:.3e} > {norm_bound:.0e}")
    for label, mine, theirs in (("body", dev_body, reported_body), ("norm", dev_norm, reported_norm)):
        if not math.isclose(mine, theirs, rel_tol=1e-9, abs_tol=1e-15):
            problems.append(f"reported {label} deviation {theirs!r} != recomputed {mine!r}")
    if region_count != expected_regions:
        problems.append(f"region_count {region_count} != classical walk {expected_regions}")
    if row_count != expected_regions:
        problems.append(f"{row_count} table rows != classical walk {expected_regions}")
    return problems


def check_generators(pair, n: int) -> list[str]:
    """Problems with one generator pair, recomputed from the returned matrices."""
    problems = []
    for key in GENERATOR_RESIDUALS:
        value = pair.residuals.get(key)
        limit = MAPPING_TOL if key.endswith("mapping") else RELATION_TOL
        if value is None or not value <= limit:
            problems.append(f"reported residual {key}={value!r} above {limit:.0e}")
    J = osp12.matrix_J(n)
    for label, g in (("g_a", pair.g_a), ("g_b", pair.g_b)):
        osp = osp12.smul(osp12.smul(osp12.supertranspose(g), J), g).sub(J).norm()
        ber = (osp12.berezinian(g) - 1).norm()
        if not osp <= RELATION_TOL:
            problems.append(f"{label}: recomputed ||g^st J g - J|| = {osp:.3e}")
        if not ber <= RELATION_TOL:
            problems.append(f"{label}: recomputed ||Ber(g) - 1|| = {ber:.3e}")
    return problems


@dataclass
class CliCall:
    """Files of one ``superflip identity`` call plus the start bodies for the check."""

    state: str
    out: str
    csv: str
    bodies: tuple[float, float, float]

    def remove(self) -> None:
        for path in (self.state, self.out, self.csv):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


class Workload:
    """One workload: ``make_input`` for call ``index``, ``call``, ``check``, ``done``."""

    def __init__(self, workdir: str):
        self.workdir = workdir

    def make_state(self, seed: int, index: int) -> torus.DecoratedTorusState:
        """State ``index`` of a run: off the sink, spin classes in turn."""
        return off_sink_state(_rng(self.name, seed, index), self.n, index % 4)

    def make_input(self, seed: int, index: int):
        return self.make_state(seed, index)

    def done(self, inp) -> None:
        """Release what ``make_input`` created."""


class IdentityCli(Workload):
    """identity-n2-deep: ``superflip identity`` in-process on N=2 state files, L=48."""

    name = "identity-n2-deep"
    throughput_name, item = "curves_per_s", "curves"
    n = 2
    cutoff_length = 48.0
    # Truncation at L=48 leaves about L e^-L ~ 1e-19 in the body, so the
    # body deviation is rounding of ~650 compensated summands (observed
    # <= 2.3e-16 over 60 states).  The soul tail falls like L e^(-L/2) ~ 2e-9
    # times |W|; observed norm deviation <= 5.4e-11.  Both bounds sit about
    # two orders of magnitude above what was observed.
    bounds = (1e-12, 1e-8)

    def make_input(self, seed: int, index: int) -> CliCall:
        state = self.make_state(seed, index)
        stem = os.path.join(self.workdir, f"call-{index}")
        call = CliCall(stem + ".json", stem + ".out.json", stem + ".csv",
                       tuple(x.body for x in state.lambdas()))
        with open(call.state, "w") as fh:
            json.dump(state.to_obj(), fh)
        return call

    def call(self, inp: CliCall):
        argv = ["identity", "--state", inp.state, "--cutoff-length", f"{self.cutoff_length:g}",
                "--out", inp.out, "--csv", inp.csv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue()

    def check(self, inp: CliCall, output) -> tuple[int, list[str]]:
        code, err = output
        if code != 0:
            return 0, [f"exit code {code}: {err.strip()[:200]}"]
        with open(inp.out) as fh:
            report = json.load(fh)
        with open(inp.csv, newline="") as fh:
            rows = sum(1 for _ in csv.DictReader(fh))
        expected = classical_region_count(inp.bodies, self.cutoff_length)
        problems = check_identity_sum(
            GrassmannNumber.from_obj(report["partial_sum"]),
            report["deviation_body"], report["deviation_norm"],
            report["region_count"], rows, expected, self.bounds,
        )
        return expected, problems

    def done(self, inp: CliCall) -> None:
        inp.remove()


class IdentityDirect(Workload):
    """identity-n6: ``identity.verify_identity`` on N=6 state objects, L=24."""

    name = "identity-n6"
    throughput_name, item = "curves_per_s", "curves"
    n = 6
    cutoff_length = 24.0
    # At L=24 the sum is truncation-limited.  The body tail is about
    # L e^-L ~ 1e-9 (observed <= 6.4e-10 over 30 states); the soul tail
    # falls like L e^(-L/2) ~ 1.5e-4 times the soul scale (observed norm
    # deviation 1.7e-5 .. 1.2e-4).  Bounds: about ten times the largest
    # observed value.
    bounds = (1e-8, 1e-3)

    def call(self, inp):
        return identity.verify_identity(inp, cutoff_length=self.cutoff_length)

    def check(self, inp, report) -> tuple[int, list[str]]:
        expected = classical_region_count([x.body for x in inp.lambdas()], self.cutoff_length)
        problems = check_identity_sum(
            report.partial_sum, report.deviation_body, report.deviation_norm,
            report.region_count, len(report.rows), expected, self.bounds,
        )
        return expected, problems


class Generators(Workload):
    """generators-n6: ``osp12.build_generators`` on random N=6 states."""

    name = "generators-n6"
    throughput_name, item = "generators_per_s", "generator pairs"
    n = 6

    def make_state(self, seed: int, index: int) -> torus.DecoratedTorusState:
        # plain random states, not off-sink ones: the mapping contract is
        # scale-sensitive, and starts with large bodies miss its 1e-9 tolerance
        rng = _rng(self.name, seed, index)
        return torus.random_state(rng, n=self.n, spin=torus.spin_for_class(index % 4))

    def call(self, inp):
        return osp12.build_generators(inp)

    def check(self, inp, pair) -> tuple[int, list[str]]:
        return 1, check_generators(pair, self.n)


WORKLOADS = {w.name: w for w in (IdentityCli, IdentityDirect, Generators)}
