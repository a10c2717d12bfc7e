"""Write a reference set of superflip outputs, for byte-for-byte comparison of two checkouts.

    python3 tools/reference_outputs.py OUTDIR [SRC]

SRC is the ``src`` directory to run (default: this checkout's).  Every
command runs in a fresh interpreter.  On the super unit torus
(a = b = c = 1, sigma = 0.1 b1, theta = 0.1 b2, N = 2) in all four spin
classes it writes ``identity`` at cutoff lengths 24 and 48 (report and
CSV) and at cutoff length 8 with ``--tol 1e-6`` (a run that does not
converge), ``spectrum --Lmax 10`` (CSV and sidecar), ``markoff
--body-only --depth 6``, ``generators``, ``orbit --length 25 --seed 7``,
``flip --edge a`` and ``twist --edge b --power -2``; on the classical
torus ``identity --cutoff-length 30`` and ``selftest --seed 0``; on the
thin torus (1e200, 1, 1 | 0, 0) ``spectrum``, whose addresses pass 4096
letters; on a fixed N=4 state whose even coordinates carry degree-2 and
degree-4 terms, ``identity --cutoff-length 24`` and ``generators``
(products there sum more than two terms per coefficient).  Each command also leaves
``<name>.log`` with its exit code, stdout and stderr.  Standard library
only.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def super_unit_torus(spin):
    one = {"N": 2, "terms": [{"idx": [], "c": 1.0}]}
    return {
        "N": 2, "a": one, "b": one, "c": one,
        "sigma": {"N": 2, "terms": [{"idx": [1], "c": 0.1}]},
        "theta": {"N": 2, "terms": [{"idx": [2], "c": 0.1}]},
        "spin": spin,
    }


def thin_torus():
    one, zero = {"N": 2, "terms": [{"idx": [], "c": 1.0}]}, {"N": 2, "terms": []}
    return {
        "N": 2, "a": {"N": 2, "terms": [{"idx": [], "c": 1e200}]}, "b": one, "c": one,
        "sigma": zero, "theta": zero, "spin": [1, 1, 1],
    }


def n4(*terms):
    return {"N": 4, "terms": [{"idx": idx, "c": c} for idx, c in terms]}


N4_STATE = {
    "N": 4,
    "a": n4(([], 1.0), ([1, 2], 0.05), ([3, 4], -0.03), ([1, 2, 3, 4], 0.02)),
    "b": n4(([], 1.2), ([1, 3], 0.04), ([2, 4], 0.01), ([1, 2, 3, 4], -0.015)),
    "c": n4(([], 0.9), ([1, 4], -0.02), ([2, 3], 0.03), ([1, 2, 3, 4], 0.01)),
    "sigma": n4(([1], 0.1), ([3], 0.05), ([2, 3, 4], 0.02)),
    "theta": n4(([2], 0.1), ([4], -0.04), ([1, 2, 3], 0.03)),
    "spin": [1, -1, 1],
}


def run(src, out, name, argv):
    argv = [a.replace("{out}", os.path.join(out, name)) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "superflip.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    with open(os.path.join(out, name + ".log"), "w") as fh:
        fh.write(f"exit {proc.returncode}\n--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}")


def main(out, src=os.path.join(os.path.dirname(HERE), "src")):
    os.makedirs(out, exist_ok=True)
    for cls in range(4):
        spin = [-1 if cls & 2 else 1, -1 if cls & 1 else 1, 1]
        state = os.path.join(out, f"class{cls}.state.json")
        with open(state, "w") as fh:
            json.dump(super_unit_torus(spin), fh)
        for name, argv in [
            ("identity24", ["identity", "--cutoff-length", "24", "--out", "{out}.json", "--csv", "{out}.csv"]),
            ("identity48", ["identity", "--cutoff-length", "48", "--out", "{out}.json", "--csv", "{out}.csv"]),
            ("identity8", ["identity", "--cutoff-length", "8", "--tol", "1e-6", "--out", "{out}.json"]),
            ("spectrum", ["spectrum", "--Lmax", "10", "--out", "{out}.csv", "--sidecar", "{out}.json"]),
            ("markoff", ["markoff", "--body-only", "--depth", "6", "--out", "{out}.csv"]),
            ("generators", ["generators", "--out", "{out}.json"]),
            ("orbit", ["orbit", "--length", "25", "--seed", "7", "--out", "{out}.json"]),
            ("flip", ["flip", "--edge", "a", "--out", "{out}.json"]),
            ("twist", ["twist", "--edge", "b", "--power", "-2", "--out", "{out}.json"]),
        ]:
            run(src, out, f"class{cls}.{name}", [*argv, "--state", state])
    run(src, out, "classical.identity30",
        ["identity", "--cutoff-length", "30", "--out", "{out}.json", "--csv", "{out}.csv"])
    run(src, out, "selftest", ["selftest", "--seed", "0"])
    state = os.path.join(out, "thin.state.json")
    with open(state, "w") as fh:
        json.dump(thin_torus(), fh)
    run(src, out, "thin.spectrum", ["spectrum", "--out", "{out}.csv", "--state", state])
    state = os.path.join(out, "n4.state.json")
    with open(state, "w") as fh:
        json.dump(N4_STATE, fh)
    run(src, out, "n4.identity24",
        ["identity", "--cutoff-length", "24", "--out", "{out}.json", "--csv", "{out}.csv", "--state", state])
    run(src, out, "n4.generators", ["generators", "--out", "{out}.json", "--state", state])


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    main(*sys.argv[1:])
