"""Write a reference set of superflip outputs, for byte-for-byte comparison of two checkouts.

    python3 tools/reference_outputs.py OUTDIR [SRC]
    python3 tools/reference_outputs.py --compare OLDDIR NEWDIR

SRC is the ``src`` directory to run (default: this checkout's).  Every
command runs in a fresh interpreter.  On the super unit torus
(a = b = c = 1, sigma = 0.1 b1, theta = 0.1 b2, N = 2) in all four spin
classes it writes ``identity`` at cutoff lengths 24 and 48 (report and
CSV) and at cutoff length 8 (a run that does not converge), ``spectrum
--Lmax 10`` (CSV and sidecar), ``markoff
--body-only --depth 6``, ``generators``, ``orbit --length 25 --seed 7``,
``flip --edge a`` and ``twist --edge b --power -2``; on the classical
torus ``identity --cutoff-length 30`` and ``selftest --seed 0``; on the
thin torus (1e200, 1, 1 | 0, 0) ``spectrum``, whose addresses pass 4096
letters; on a fixed N=4 state whose even coordinates carry degree-2 and
degree-4 terms, ``identity --cutoff-length 24`` and ``generators``
(products there sum more than two terms per coefficient), and ``flip
--edge E`` (``n4.flip_E``) and ``twist --edge E --power P``
(``n4.twist_E_P``) for E = a, b, c and P = 3, -2 (its bodies are distinct
and its spin is (1, -1, 1), so every move branch runs, where the super
unit torus, with a = b = c, runs only edge a and axis b); ``generators``
on the near-cusp torus (0.001, 1, 1 | 0.1 b1, 0.1 b2), whose trace body
for a is 2.000001 (``near_cusp.generators``); ``generators``
(``n6.generators``) and ``identity --cutoff-length 24``
(``n6.identity24``, which may exit 1) on the N=6 state
``torus.random_state(random.Random(1), n=6)`` of SRC, whose
lambda-lengths hold about 70% of their masks, so their products pad
operands to whole degrees; ``identity --cutoff-length 24`` (report and
CSV), ``spectrum --Lmax 10`` (CSV and sidecar) and ``markoff --body-only
--depth 6`` on two starts two flips off their sink, so that each walks a
sink path and then sums or walks from its end: the super unit torus with
bodies (1, 2, 5) and spin (1, -1, 1) (``off_sink.*``) and the N=4 state
with c's body set to 5.0 (``n4_off_sink.*``); and four runs
that end in a payload: ``twist --edge a`` on (1, 1e-160, 1e-160 | 0.1 b1,
0.1 b2), whose semi-perimeter overflows, ``generators`` on
(1, 1e110, 1 | 0.1 b1, 0.1 b2), whose lift overflows, ``orbit
--length 3`` on (1e120, 1e120, 1e120 | 0, 0), where every flip takes a
body above the 1e100 cap of a flip word, and ``flip_overflow``, ``flip
--edge b`` on (1e200, 1, 1 | 0, 0), whose new edge b overflows.  Each
command also leaves ``<name>.log`` with its exit code, stdout and stderr.

``--compare`` reads two such sets.  It lists the files that are
byte-identical and those present on one side only; for each differing
JSON or CSV file it prints the largest numeric difference relative to
max(1, |x|) over the leaves both sides hold, where a Grassmann element's
coefficients are matched by multi-index (a term missing on one side
counts as 0).  Before that it names the key paths present on one side
only and the leaves that differ but are not both finite numbers (at most
eight of each, then a count).  Standard library only.
"""

import copy
import csv
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def body(x):
    return {"N": 2, "terms": [{"idx": [], "c": x}]}


def super_torus(spin, a=1.0, b=1.0, c=1.0):
    return {
        "N": 2, "a": body(a), "b": body(b), "c": body(c),
        "sigma": {"N": 2, "terms": [{"idx": [1], "c": 0.1}]},
        "theta": {"N": 2, "terms": [{"idx": [2], "c": 0.1}]},
        "spin": spin,
    }


def classical_torus(a, b, c):
    zero = {"N": 2, "terms": []}
    return {
        "N": 2, "a": body(a), "b": body(b), "c": body(c),
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

N6_STATE = (
    "import json, random; from superflip import torus; "
    "print(json.dumps(torus.random_state(random.Random(1), n=6).to_obj()))"
)


SUPER_TORUS_RUNS = {
    "identity24": ["identity", "--cutoff-length", "24", "--out", "{out}.json", "--csv", "{out}.csv"],
    "identity48": ["identity", "--cutoff-length", "48", "--out", "{out}.json", "--csv", "{out}.csv"],
    "identity8": ["identity", "--cutoff-length", "8", "--out", "{out}.json"],
    "spectrum": ["spectrum", "--Lmax", "10", "--out", "{out}.csv", "--sidecar", "{out}.json"],
    "markoff": ["markoff", "--body-only", "--depth", "6", "--out", "{out}.csv"],
    "generators": ["generators", "--out", "{out}.json"],
    "orbit": ["orbit", "--length", "25", "--seed", "7", "--out", "{out}.json"],
    "flip": ["flip", "--edge", "a", "--out", "{out}.json"],
    "twist": ["twist", "--edge", "b", "--power", "-2", "--out", "{out}.json"],
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
            json.dump(super_torus(spin), fh)
        for name, argv in SUPER_TORUS_RUNS.items():
            run(src, out, f"class{cls}.{name}", [*argv, "--state", state])
    n4_off_sink = copy.deepcopy(N4_STATE)
    n4_off_sink["c"]["terms"][0]["c"] = 5.0
    for prefix, obj in [("off_sink", super_torus([1, -1, 1], 1.0, 2.0, 5.0)), ("n4_off_sink", n4_off_sink)]:
        state = os.path.join(out, prefix + ".state.json")
        with open(state, "w") as fh:
            json.dump(obj, fh)
        for name in ("identity24", "spectrum", "markoff"):
            run(src, out, f"{prefix}.{name}", [*SUPER_TORUS_RUNS[name], "--state", state])
    run(src, out, "classical.identity30",
        ["identity", "--cutoff-length", "30", "--out", "{out}.json", "--csv", "{out}.csv"])
    run(src, out, "selftest", ["selftest", "--seed", "0"])
    state = os.path.join(out, "thin.state.json")
    with open(state, "w") as fh:
        json.dump(classical_torus(1e200, 1.0, 1.0), fh)
    run(src, out, "thin.spectrum", ["spectrum", "--out", "{out}.csv", "--state", state])
    state = os.path.join(out, "n4.state.json")
    with open(state, "w") as fh:
        json.dump(N4_STATE, fh)
    run(src, out, "n4.identity24",
        ["identity", "--cutoff-length", "24", "--out", "{out}.json", "--csv", "{out}.csv", "--state", state])
    run(src, out, "n4.generators", ["generators", "--out", "{out}.json", "--state", state])
    for edge in "abc":
        run(src, out, f"n4.flip_{edge}", ["flip", "--edge", edge, "--out", "{out}.json", "--state", state])
        for power in ("3", "-2"):
            run(src, out, f"n4.twist_{edge}_{power}",
                ["twist", "--edge", edge, "--power", power, "--out", "{out}.json", "--state", state])
    state = os.path.join(out, "near_cusp.state.json")
    with open(state, "w") as fh:
        json.dump(super_torus([1, 1, 1], 0.001, 1.0, 1.0), fh)
    run(src, out, "near_cusp.generators", ["generators", "--out", "{out}.json", "--state", state])
    state = os.path.join(out, "n6.state.json")
    with open(state, "w") as fh:
        subprocess.run(
            [sys.executable, "-c", N6_STATE], stdout=fh, check=True, env=dict(os.environ, PYTHONPATH=src)
        )
    run(src, out, "n6.generators", ["generators", "--out", "{out}.json", "--state", state])
    run(src, out, "n6.identity24", ["identity", "--cutoff-length", "24", "--out", "{out}.json", "--state", state])
    for name, obj, argv in [
        ("h_overflow.twist", super_torus([1, 1, 1], 1.0, 1e-160, 1e-160), ["twist", "--edge", "a"]),
        ("lift_overflow.generators", super_torus([1, 1, 1], 1.0, 1e110, 1.0), ["generators"]),
        ("orbit_overflow", classical_torus(1e120, 1e120, 1e120), ["orbit", "--length", "3"]),
        ("flip_overflow", classical_torus(1e200, 1.0, 1.0), ["flip", "--edge", "b"]),
    ]:
        state = os.path.join(out, name.split(".")[0] + ".state.json")
        with open(state, "w") as fh:
            json.dump(obj, fh)
        run(src, out, name, [*argv, "--out", "{out}.json", "--state", state])


def _leaves(obj, path=()):
    """Flatten JSON into {path: leaf}; Grassmann terms are keyed by multi-index."""
    if isinstance(obj, dict) and isinstance(obj.get("terms"), list) and "N" in obj:
        leaves = {path + ("N",): obj["N"]}
        for t in obj["terms"]:
            leaves[path + (tuple(t["idx"]),)] = t["c"]
        return leaves
    if not isinstance(obj, (dict, list)) or (path and not obj):
        return {path: obj}  # a scalar, or a nested empty container, whose key would vanish otherwise
    leaves = {}
    for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
        leaves.update(_leaves(value, path + (key,)))
    return leaves


def _csv_leaves(text):
    rows = csv.reader(text.splitlines())
    return {(i, j): cell for i, row in enumerate(rows) for j, cell in enumerate(row)}


def _number(x):
    """x as a float; None for booleans, null, containers and text that is not a number."""
    if isinstance(x, bool):
        return None
    try:
        return float(x)
    except (TypeError, ValueError):
        return None


def numeric_difference(old, new):
    """Compare two leaf maps: (worst, only_old, only_new, not_numbers).

    ``worst`` is the largest |x - y| / max(1, |x|) over the leaves both
    sides hold; ``only_old`` and ``only_new`` are the key paths present on
    one side only, and ``not_numbers`` those present on both whose values
    differ but are not both finite numbers.  A Grassmann term (a key ending
    in a multi-index) missing on one side counts as 0.
    """
    worst, only_old, only_new, not_numbers = 0.0, [], [], []
    for key in {**old, **new}:
        if not isinstance(key[-1], tuple) and (key not in old or key not in new):
            (only_old if key in old else only_new).append(key)
            continue
        x, y = old.get(key, 0.0), new.get(key, 0.0)
        if x == y:
            continue
        fx, fy = _number(x), _number(y)
        if fx is None or fy is None or not (math.isfinite(fx) and math.isfinite(fy)):
            not_numbers.append(key)
            continue
        worst = max(worst, abs(fx - fy) / max(1.0, abs(fx)))
    return worst, only_old, only_new, not_numbers


def _paths(keys, limit=8):
    shown = ", ".join("/".join(map(str, key)) for key in keys[:limit])
    return shown + (f" and {len(keys) - limit} more" if len(keys) > limit else "")


def compare(old_dir, new_dir):
    old_files, new_files = set(os.listdir(old_dir)), set(os.listdir(new_dir))
    identical, differing = [], []
    for name in sorted(old_files & new_files):
        with open(os.path.join(old_dir, name), "rb") as fh:
            old = fh.read()
        with open(os.path.join(new_dir, name), "rb") as fh:
            new = fh.read()
        (identical if old == new else differing).append((name, old, new))
    print(f"{len(identical)} byte-identical:")
    for name, _, _ in identical:
        print(f"  {name}")
    for label, names in (("only in " + old_dir, old_files - new_files),
                         ("only in " + new_dir, new_files - old_files)):
        if names:
            print(f"{len(names)} {label}:")
            for name in sorted(names):
                print(f"  {name}")
    print(f"{len(differing)} differing:")
    for name, old, new in differing:
        try:
            if name.endswith(".json"):
                diff = numeric_difference(_leaves(json.loads(old)), _leaves(json.loads(new)))
            elif name.endswith(".csv"):
                diff = numeric_difference(_csv_leaves(old.decode()), _csv_leaves(new.decode()))
            else:
                print(f"  {name}")
                continue
        except ValueError:
            print(f"  {name}  not readable")
            continue
        worst, only_old, only_new, not_numbers = diff
        parts = [f"{label}: {_paths(keys)}" for label, keys in (
            ("only in old", only_old), ("only in new", only_new), ("not numbers", not_numbers)) if keys]
        print(f"  {name}  " + "; ".join(parts + [f"max relative difference {worst:.3g}"]))


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        compare(*sys.argv[2:])
    elif len(sys.argv) in (2, 3) and not sys.argv[1].startswith("-"):
        main(*sys.argv[1:])
    else:
        sys.exit(__doc__)
