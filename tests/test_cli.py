import argparse
import contextlib
import io
import json
import math
import os
import random
import tempfile

import pytest
from hypothesis import Phase, given, settings, strategies as st

from superflip.cli import build_parser, main
from superflip.grassmann import GrassmannNumber as G, NotInvertibleError
from superflip import markoff as M
from superflip import osp12 as O
from superflip import torus as T

from conftest import (
    frame_lifts, run_cli, spectrum_with_sidecar, strict_loads, super_unit_state, unit_state,
)

N = 2


def write_state(path, state):
    path.write_text(json.dumps(state.to_obj()))
    return str(path)


def test_flip_writes_transformed_state(tmp_path, capsys):
    src = write_state(tmp_path / "s.json", unit_state())
    out = tmp_path / "out.json"
    assert main(["flip", "--state", src, "--edge", "c", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "h before" in text and "h after" in text
    back = T.DecoratedTorusState.from_obj(json.loads(out.read_text()))
    assert sorted(round(x.body, 12) for x in back.lambdas()) == [1.0, 1.0, 2.0]


def test_flip_double_round_trip(tmp_path):
    b1, b2 = G.generator(N, 1), G.generator(N, 2)
    st = unit_state(sigma=b1 * 0.1, theta=b2 * 0.1)
    src = write_state(tmp_path / "s.json", st)
    mid = tmp_path / "mid.json"
    out = tmp_path / "out.json"
    assert main(["flip", "--state", src, "--edge", "c", "--out", str(mid)]) == 0
    assert main(["flip", "--state", str(mid), "--edge", "c", "--out", str(out)]) == 0
    back = T.DecoratedTorusState.from_obj(json.loads(out.read_text()))
    assert back.isclose(st, 1e-12)


def test_malformed_state_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"N": 2,\n  "a": ]')
    code = main(["flip", "--state", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["error"] == "parse" and payload["line"] == 2


def test_twist_markoff(tmp_path):
    st = T.DecoratedTorusState(
        G.scalar(N, 1), G.scalar(N, 1), G.scalar(N, 2), G.zero(N), G.zero(N)
    )
    src = write_state(tmp_path / "s.json", st)
    out = tmp_path / "t.json"
    assert main(["twist", "--state", src, "--edge", "a", "--out", str(out)]) == 0
    got = T.DecoratedTorusState.from_obj(json.loads(out.read_text()))
    assert sorted(round(x.body) for x in got.lambdas()) == [1, 2, 5]


def test_markoff_depth_zero_and_four(tmp_path, capsys):
    src = write_state(tmp_path / "s.json", unit_state())
    out = tmp_path / "m.csv"
    assert main(["markoff", "--state", src, "--depth", "0", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 2 and rows[1].startswith("1.0,1.0,1.0")
    assert main(["markoff", "--state", src, "--depth", "4", "--out", str(out)]) == 0
    body = out.read_text()
    assert "1.0,2.0,5.0" in body and "2.0,5.0,29.0" in body and "1.0,5.0,13.0" in body


def test_markoff_refuses_super_state(tmp_path):
    b1, b2 = G.generator(N, 1), G.generator(N, 2)
    src = write_state(tmp_path / "s.json", unit_state(sigma=b1 * 0.1, theta=b2 * 0.1))
    assert main(["markoff", "--state", src]) == 1
    assert main(["markoff", "--state", src, "--body-only"]) == 0


def test_identity_exit_code_and_report(tmp_path):
    src = write_state(tmp_path / "s.json", unit_state())
    out = tmp_path / "report.json"
    csv_path = tmp_path / "curves.csv"
    code = main(
        ["identity", "--state", src, "--cutoff-length", "24",
         "--out", str(out), "--csv", str(csv_path)]
    )
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["deviation_body"] <= 1e-6
    header = csv_path.read_text().splitlines()[0]
    assert "summand_body" in header and "address" in header


@pytest.mark.parametrize("length", ["4", "6", "8", "12"])
def test_identity_above_tolerance_exits_1(length):
    # the deviation at these cutoffs is far above 1e-6, so the verdict is no
    proc = run_cli(["identity", "--cutoff-length", length])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    payload = json.loads(proc.stderr)
    assert payload["error"] == "identity" and payload["converged"] is False
    assert payload["deviation_body"] > 1e-6


def test_spectrum_row_count_matches_growth(tmp_path):
    rows, sidecar = spectrum_with_sidecar(tmp_path, unit_state(), 4)
    grid = [row["L"] for row in sidecar["growth"]]
    assert grid == pytest.approx([0.4 * i for i in range(1, 11)]) and grid[-1] == 4.0
    assert len(rows) == sidecar["growth"][-1]["N_super"] == len(sidecar["regions"])


def test_spectrum_growth_counts_every_enumerated_region(tmp_path):
    # with a large soul some bodies lie below e^L while their norms do not:
    # they leave the CSV but still count in N_body(L)
    b1, b2 = G.generator(N, 1), G.generator(N, 2)
    state = unit_state(sigma=b1 * 0.5, theta=b2 * 0.5)
    rows, sidecar = spectrum_with_sidecar(tmp_path, state, 5)
    regions = M.enumerate_regions(M.find_sink(state), math.exp(5.0) * 2 * 3.0)
    for row in sidecar["growth"]:
        assert row["N_body"] == sum(1 for r in regions if math.log(r.body) < row["L"])
        assert row["N_super"] == sum(1 for r in regions if math.log(r.lam.norm()) < row["L"])
    assert len(rows) < sidecar["growth"][-1]["N_body"]


def test_spectrum_sidecar_below_the_square_root_of_the_smallest_float(tmp_path):
    # L * L underflows to 0 here; N(L)/L^2 must not divide by it
    rows, sidecar = spectrum_with_sidecar(tmp_path, unit_state(), 1e-200)
    assert len(rows) == sidecar["growth"][-1]["N_super"] == 3
    # N/L^2 is infinite there; the sidecar is strict JSON, so it reads null
    assert sidecar["growth"][-1]["N_super_over_L2"] is None


def test_spectrum_walks_to_the_sink_once(tmp_path, monkeypatch):
    b1, b2 = G.generator(N, 1), G.generator(N, 2)
    state = unit_state(sigma=b1 * 0.1, theta=b2 * 0.1)
    for edge in "abca":  # body-increasing flips away from the unit sink
        state = T.flip(state, edge)
    steps = M.find_sink(state).steps
    assert steps > 0
    src = write_state(tmp_path / "s.json", state)

    calls = []
    real_flip = T.flip

    def counting_flip(st, edge):
        calls.append(edge)
        return real_flip(st, edge)

    monkeypatch.setattr(T, "flip", counting_flip)
    monkeypatch.setattr(M, "flip", counting_flip)
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--state", src, "--Lmax", "4", "--out", str(out)]) == 0
    assert len(calls) == steps


def test_generators_report(tmp_path):
    b1, b2 = G.generator(N, 1), G.generator(N, 2)
    src = write_state(tmp_path / "s.json", unit_state(sigma=b1 * 0.1, theta=b2 * 0.1))
    out = tmp_path / "gen.json"
    assert main(["generators", "--state", src, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["residuals"]["g_a_mapping"] <= 1e-9
    assert rep["residuals"]["g_a_osp"] <= 1e-10
    assert rep["residuals"]["g_b_berezinian"] <= 1e-10


# A large-body off-sink state (spin (1, -1, 1)) whose generators keep their OSp
# and Berezinian relations, but whose lifts are so large that the mapping
# residuals and g_b's supertrace residual miss their bounds by rounding.
DEGENERATE_STATE = {
    "N": 2,
    "a": {"N": 2, "terms": [{"idx": [], "c": 313852.27984658896},
                            {"idx": [1, 2], "c": 5602.72978028845}]},
    "b": {"N": 2, "terms": [{"idx": [], "c": 1369558895.2892826},
                            {"idx": [1, 2], "c": 51831911.814082734}]},
    "c": {"N": 2, "terms": [{"idx": [], "c": 1769.4563475732723},
                            {"idx": [1, 2], "c": 43.72353251125473}]},
    "sigma": {"N": 2, "terms": [{"idx": [1], "c": 0.12802198717644522},
                                {"idx": [2], "c": 0.12811111701654482}]},
    "theta": {"N": 2, "terms": [{"idx": [1], "c": -0.1614859216880126},
                                {"idx": [2], "c": -0.13194428503247094}]},
    "spin": [1, -1, 1],
}


DEGENERATE_MISSES = {"g_a_mapping", "g_b_mapping", "g_b_supertrace"}


def test_generators_degenerate_state_is_a_payload(tmp_path):
    src = tmp_path / "s.json"
    src.write_text(json.dumps(DEGENERATE_STATE))
    proc = run_cli(["generators", "--state", str(src), "--out", str(tmp_path / "gen.json")])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    payload = json.loads(proc.stderr)
    assert payload["error"] == "generators"
    assert set(payload) - {"error", "failure"} == DEGENERATE_MISSES
    assert payload["g_b_mapping"] > O.MAPPING_TOL and payload["g_b_supertrace"] > O.RELATION_TOL


def test_generators_degenerate_state_reports_every_residual(tmp_path):
    # the mapping check is one residual among eight; failures() alone decides
    pair = O.build_generators(T.DecoratedTorusState.from_obj(DEGENERATE_STATE))
    bad = pair.failures()
    assert set(bad) == DEGENERATE_MISSES
    src, out = tmp_path / "s.json", tmp_path / "gen.json"
    src.write_text(json.dumps(DEGENERATE_STATE))
    code, _, err = run_main(["generators", "--state", str(src), "--out", str(out)])
    residuals = strict_loads(out.read_text())["residuals"]
    assert code == 1 and strict_loads(err)["failure"] == "generator residuals above tolerance"
    assert len(residuals) == 8 and residuals == pair.residuals


@pytest.mark.parametrize("cls", range(4))
def test_generators_out_residuals_are_those_of_the_written_matrices(tmp_path, cls):
    # the eight residuals recomputed from the --out matrices and the frame's lifts are the reported ones
    state = T.random_state(random.Random(cls), n=4, spin=T.spin_for_class(cls))
    out = tmp_path / "gen.json"
    code, _, _ = run_main(["generators", "--state", write_state(tmp_path / "s.json", state), "--out", str(out)])
    rep = strict_loads(out.read_text())
    g_a, g_b = (O.SuperMatrix([[G.from_obj(e) for e in row] for row in rep[name]]) for name in ("g_a", "g_b"))
    r_a, r_b = (G.from_obj(rep[name]) for name in ("r_a", "r_b"))
    A, B, C, D = frame_lifts(state, rep["frame"])
    sign = -1 if cls else 1
    recomputed = {
        "g_a_mapping": O._mapping_residual(g_a, ((B, A), (C, D))),
        "g_b_mapping": O._mapping_residual(g_b, ((A, D), (B, C))),
    }
    for name, g, r in (("g_a", g_a, r_a), ("g_b", g_b, r_b)):
        recomputed[name + "_osp"] = O._osp_residual(g)
        recomputed[name + "_berezinian"] = (O.berezinian(g) - 1).norm()
        recomputed[name + "_supertrace"] = (O.supertrace(g) + 1 - (r + r.inverse()) * sign).norm()
    assert code == 0 and recomputed == rep["residuals"]
    assert not O.GeneratorPair(g_a, g_b, r_a, r_b, recomputed).failures()


def test_selftest(capsys):
    assert main(["selftest", "--seed", "7"]) == 0
    assert "all selftests passed" in capsys.readouterr().out


def test_selftest_reads_the_identity_verdict(monkeypatch, capsys):
    monkeypatch.setattr("superflip.identity.NORM_TOL", 1e-12)
    assert main(["selftest"]) == 1
    assert "FAIL  identity partial sum" in capsys.readouterr().out


def test_orbit_with_every_flip_above_the_cap_is_a_domain_error(tmp_path):
    # each flip of (1e120, 1e120, 1e120) gives a body of 2e120, above FLIP_WORD_BODY_CAP
    big = T.DecoratedTorusState(*(G.scalar(N, 1e120) for _ in range(3)), G.zero(N), G.zero(N))
    src, out = write_state(tmp_path / "s.json", big), tmp_path / "o.json"
    code, _, err = run_main(["orbit", "--length", "3", "--state", src, "--out", str(out)])
    payload = strict_loads(err)
    assert code == 1 and payload["error"] == "domain"
    assert payload["failure"] == (
        "flip word letter 1: every flip takes a body above the cap 1e+100; the smallest largest body is 2e+120"
    )


def test_orbit_deterministic(tmp_path, capsys):
    src = write_state(tmp_path / "s.json", unit_state())
    out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
    assert main(["orbit", "--state", src, "--length", "10", "--seed", "3", "--out", str(out1)]) == 0
    assert main(["orbit", "--state", src, "--length", "10", "--seed", "3", "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


INVALID_STATES = {
    "nan_body": lambda o: o.update(a=G.scalar(N, math.nan).to_obj()),
    "missing_key": lambda o: o.pop("b"),
    "mixed_n": lambda o: o.update(c=G.scalar(N + 1, 1).to_obj()),
    "top_level_n": lambda o: o.update(N=4),
    "float_n": lambda o: o["a"].update(N=2.7),
    "bool_spin": lambda o: o.update(spin=[True, True, True]),
    "float_spin": lambda o: o.update(spin=[1.0, -1.0, 1.0]),
    "str_coefficient": lambda o: o["a"]["terms"][0].update(c="1.5"),
    "bool_index": lambda o: o["sigma"]["terms"][0].update(idx=[True]),
    "repeated_index": lambda o: o["a"]["terms"].append({"idx": [], "c": 1.0}),
    "misspelled_spin": lambda o: (o.pop("spin"), o.update(Spin=[-1, 1, 1])),
    "unknown_element_key": lambda o: o["b"].update(parity=0),
    "unknown_term_key": lambda o: o["c"]["terms"][0].update(coeff=1.0),
    "int_beyond_float": lambda o: o["a"]["terms"][0].update(c=10**400),
}


@pytest.mark.parametrize("defect", INVALID_STATES)
def test_invalid_state_is_a_payload(tmp_path, defect):
    obj = super_unit_state().to_obj()
    INVALID_STATES[defect](obj)
    src = tmp_path / "s.json"
    src.write_text(json.dumps(obj))
    code, _, err = run_main(["flip", "--state", str(src), "--out", str(tmp_path / "o.json")])
    assert code == 2
    payload = strict_loads(err)
    assert payload["error"] == "state" and payload["path"] == str(src)


def super_unit_json(tmp_path, a, b, c):
    b1, b2 = G.generator(N, 1), G.generator(N, 2)
    sc = lambda v: G.scalar(N, v)
    state = T.DecoratedTorusState(sc(a), sc(b), sc(c), b1 * 0.1, b2 * 0.1)
    return write_state(tmp_path / "s.json", state)


def run_main(argv):
    """Run ``main`` in-process; return its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_generators_nan_residuals_fail_closed(tmp_path):
    # every residual used to be NaN here, and NaN > tol is false
    src = super_unit_json(tmp_path, 1, 1e160, 1)
    code, _, err = run_main(["generators", "--state", src, "--out", str(tmp_path / "g.json")])
    assert code == 1 and "error" in strict_loads(err)


def test_twist_nan_drift_fails_closed(tmp_path):
    # h overflows, so a relative drift would be NaN: h is refused before the twist
    src = super_unit_json(tmp_path, 1, 1e-160, 1e-160)
    argv = ["twist", "--edge", "a", "--state", src, "--out", str(tmp_path / "t.json")]
    code, out, err = run_main(argv)
    assert code == 1 and out == ""
    assert strict_loads(err)["error"] == "domain"


def test_overflowing_flip_names_its_own_slot(tmp_path):
    # (c^2 + a^2)/b overflows; the new edge keeps slot b
    big = T.DecoratedTorusState(G.scalar(2, 1e200), G.scalar(2, 1), G.scalar(2, 1), G.zero(2), G.zero(2))
    argv = ["flip", "--edge", "b", "--state", write_state(tmp_path / "s.json", big)]
    code, _, err = run_main(argv + ["--out", str(tmp_path / "f.json")])
    assert code == 1
    assert strict_loads(err) == {"failure": "b has a non-finite coefficient", "error": "domain"}


@pytest.mark.parametrize(
    "argv",
    [["flip"], ["flip", "--edge", "a"], ["twist"], ["twist", "--edge", "a"], ["orbit"],
     ["markoff", "--body-only"], ["identity"], ["spectrum"], ["generators"]],
    ids=" ".join,
)
def test_underflowing_state_is_a_payload(tmp_path, argv):
    # b*c is subnormal, so 1/(bc) overflows (in h, or in a generator entry):
    # refused before anything is printed or written
    src, out = super_unit_json(tmp_path, 1, 1e-160, 1e-160), tmp_path / "out"
    code, text, err = run_main(argv + ["--state", src, "--out", str(out)])
    assert code == 1 and text == "" and not out.exists()
    assert strict_loads(err)["error"] == "domain"


def classical_json(tmp_path, x):
    st = T.DecoratedTorusState(G.scalar(N, x), G.scalar(N, x), G.scalar(N, x), G.zero(N), G.zero(N))
    return write_state(tmp_path / "s.json", st)


@pytest.mark.parametrize(
    "x, kind",
    # 1e160: b*c overflows, so h is 0 and h*a*b*c divided by zero;
    # 1e153: a depth-13 body passes float64 range
    [(1e160, "domain"), (1e153, "domain")],
)
def test_markoff_overflow_is_a_payload(tmp_path, x, kind):
    argv = ["markoff", "--depth", "13", "--state", classical_json(tmp_path, x)]
    code, _, err = run_main(argv + ["--out", str(tmp_path / "m.csv")])
    assert code == 1 and strict_loads(err)["error"] == kind


def test_markoff_float_ptolemy_step_keeps_large_bodies(tmp_path):
    # x^2 + y^2 overflows from a body of about 1.3e154 on, though the quotient is finite
    src, out = classical_json(tmp_path, 1e153), tmp_path / "m.csv"
    for depth in ([], ["--depth", "6"]):
        code, _, _ = run_main(["markoff", *depth, "--state", src, "--out", str(out)])
        assert code == 0
        residuals = [float(row.split(",")[3]) for row in out.read_text().splitlines()[1:]]
        assert max(residuals) <= M.MARKOFF_RESIDUAL_TOL


def test_markoff_deep_bodies_keep_a_finite_residual(tmp_path):
    # depth 13 reaches bodies near 5e236, where a^2 and h a b c overflow: the residual is a quotient
    out = tmp_path / "m.csv"
    code, text, _ = run_main(["markoff", "--depth", "13", "--out", str(out)])
    rows = out.read_text().splitlines()[1:]
    residuals = [float(row.split(",")[3]) for row in rows]
    assert code == 0 and len(rows) == 4097 and text.startswith("4097 triples")
    assert max(float(row.split(",")[2]) for row in rows) > 1e236
    assert max(residuals) <= M.MARKOFF_RESIDUAL_TOL


def test_markoff_overflowing_body_names_its_depth(tmp_path):
    code, _, err = run_main(["markoff", "--depth", "14", "--out", str(tmp_path / "m.csv")])
    assert code == 1
    assert strict_loads(err) == {
        "error": "domain", "failure": "the float Ptolemy step of a Markoff body overflows at depth 14",
    }


def test_nan_generator_residual_fails_closed(tmp_path, monkeypatch):
    real = O.build_generators

    def nan_osp(state):
        pair = real(state)
        pair.residuals["g_a_osp"] = math.nan
        return pair

    monkeypatch.setattr(O, "build_generators", nan_osp)
    out = tmp_path / "g.json"
    code, _, err = run_main(["generators", "--out", str(out)])
    assert code == 1 and strict_loads(err)["g_a_osp"] is None
    assert strict_loads(out.read_text())["residuals"]["g_a_osp"] is None


@pytest.mark.parametrize("argv", [["orbit"], ["flip"]], ids=" ".join)
def test_nan_h_drift_fails_closed(tmp_path, monkeypatch, argv):
    monkeypatch.setattr("superflip.torus.h_drift", lambda h0, h1: math.nan)
    code, _, err = run_main(argv + ["--out", str(tmp_path / "s.json")])
    assert code == 1 and strict_loads(err)["error"] == "h_drift"


@pytest.mark.parametrize(
    "exc, kind",
    [
        (NotInvertibleError, "domain"),
        (M.NonConvergenceError, "nonconvergence"),
    ],
)
def test_arithmetic_failures_are_payloads(monkeypatch, exc, kind):
    def fail(state):
        raise exc("stand-in failure")

    monkeypatch.setattr(O, "build_generators", fail)
    code, _, err = run_main(["generators"])
    assert code == 1 and strict_loads(err) == {"error": kind, "failure": "stand-in failure"}


def test_generators_overflow_is_strict_json(tmp_path):
    # the lift D overflows, a domain failure, reported in strict JSON
    src, out = super_unit_json(tmp_path, 1, 1e110, 1), tmp_path / "g.json"
    code, _, err = run_main(["generators", "--state", src, "--out", str(out)])
    assert code == 1 and strict_loads(err)["error"] == "domain"
    if out.exists():
        strict_loads(out.read_text())


@pytest.mark.parametrize("length", ["1"])
def test_identity_short_cutoff_is_a_payload(length):
    proc = run_cli(["identity", "--cutoff-length", length])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    payload = json.loads(proc.stderr)
    assert payload["error"] == "cutoff" and payload["cutoff_length"] == float(length)


@pytest.mark.parametrize(
    "command, flag, key, value",
    [
        ("identity", "--cutoff-length", "cutoff_length", "-24"),
        ("identity", "--cutoff-length", "cutoff_length", "0"),
        ("spectrum", "--Lmax", "lmax", "-1"),
        ("spectrum", "--Lmax", "lmax", "0"),
    ],
    ids=["identity-24", "identity0", "spectrum-1", "spectrum0"],
)
def test_length_not_positive_is_a_payload(tmp_path, command, flag, key, value):
    # cosh is even, so a negative cutoff length used to run as its absolute value
    side = tmp_path / "side.json"
    argv = [command, flag, value] + (["--sidecar", str(side)] if command == "spectrum" else [])
    proc = run_cli(argv)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    payload = json.loads(proc.stderr)
    assert payload["error"] == "cutoff" and payload[key] == float(value)
    assert not side.exists()


@pytest.mark.parametrize("command", ["flip", "identity", "generators", "spectrum"])
def test_domain_error_is_a_payload(tmp_path, command):
    # a valid state whose flip overflows, whose trace body rounds to 2 and
    # whose thin twist orbit has Stern-Brocot addresses over 4096 letters
    big = T.DecoratedTorusState(
        G.scalar(N, 1e200), G.scalar(N, 1), G.scalar(N, 1), G.zero(N), G.zero(N)
    )
    proc = run_cli([command, "--state", write_state(tmp_path / "s.json", big)])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"] == "domain"


@pytest.mark.parametrize(
    "argv",
    [
        ["identity", "--cutoff-length", "inf"],
        ["identity", "--cutoff-length", "2000"],
        ["spectrum", "--Lmax", "inf"],
        ["spectrum", "--Lmax", "1000"],
    ],
)
def test_unbounded_cutoff_is_a_payload(argv):
    # an infinite cutoff, or one whose cosh or exp overflows float64
    proc = run_cli(argv)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"] == "domain"


CLI_FLAGS = {
    "flip": {"--state", "--out", "--edge"},
    "twist": {"--state", "--out", "--edge", "--power"},
    "orbit": {"--state", "--out", "--seed", "--length"},
    "markoff": {"--state", "--out", "--depth", "--body-only"},
    "identity": {"--state", "--out", "--cutoff-length", "--csv"},
    "spectrum": {"--state", "--out", "--Lmax", "--sidecar"},
    "generators": {"--state", "--out"},
    "selftest": {"--seed"},
}


def test_each_subcommand_declares_only_the_flags_it_reads(capsys):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert flags == CLI_FLAGS
    # the identity tolerances are fixed, not flags
    for argv in (["generators", "--tol", "5"], ["identity", "--tol", "1e-6"],
                 ["identity", "--delta", "0.5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


# ----------------------------------------------------------------------
# fuzzing the CLI boundary
# ----------------------------------------------------------------------
@st.composite
def extreme_state_json(draw):
    """State JSON with bodies 1e-8..1e8, even souls up to 1e3 and odd parts up to 1e2."""
    n = draw(st.sampled_from([2, 4]))

    def element(parity, scale, body=None):
        terms = [] if body is None else [{"idx": [], "c": body}]
        for mask in range(1, 1 << n):
            if mask.bit_count() % 2 != parity:
                continue
            c = draw(st.one_of(st.just(0.0), st.floats(-scale, scale)))
            if c:
                terms.append({"idx": [i + 1 for i in range(n) if mask >> i & 1], "c": c})
        return {"N": n, "terms": terms}

    def even():
        return element(0, 1e3, 10.0 ** draw(st.floats(-8, 8)))

    spin = draw(st.lists(st.sampled_from([1, -1]), min_size=3, max_size=3))
    return {"N": n, "a": even(), "b": even(), "c": even(),
            "sigma": element(1, 1e2), "theta": element(1, 1e2), "spin": spin}


# positive lengths down to the smallest subnormal, where L * L underflows
LENGTHS = st.one_of(
    st.floats(max_value=0.0), st.just(math.nan), st.just(math.inf),
    st.floats(0.0, 8.0, exclude_min=True),
)


# no shrink phase: one failing example can take minutes, and shrinking reruns it
@settings(max_examples=100, deadline=None, derandomize=True,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(state=extreme_state_json(), length=LENGTHS)
def test_every_command_exits_0_or_leaves_a_payload(state, length):
    with tempfile.TemporaryDirectory() as tmp:
        src, out, side = (os.path.join(tmp, name) for name in ("s.json", "out", "side.json"))
        with open(src, "w") as fh:
            json.dump(state, fh)
        for argv in (
            ["identity", f"--cutoff-length={length!r}"],
            ["spectrum", f"--Lmax={length!r}", "--sidecar", side],
            ["generators"],
            ["flip"],
            ["twist"],
            ["markoff", "--body-only"],
        ):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv + ["--state", src, "--out", out])
            assert code == 0 or "error" in strict_loads(err.getvalue()), (argv, code)
