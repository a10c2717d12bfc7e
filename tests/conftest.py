import json
import os
import random
import subprocess
import sys

import pytest

import superflip
from superflip.grassmann import GrassmannNumber
from superflip.torus import DecoratedTorusState

SRC = os.path.dirname(os.path.dirname(os.path.abspath(superflip.__file__)))


@pytest.fixture
def rng():
    return random.Random(20240817)


def scalar(v, n=2):
    return GrassmannNumber.scalar(n, v)


def gens(n=2):
    return [GrassmannNumber.generator(n, i) for i in range(1, n + 1)]


def unit_state(sigma=None, theta=None, spin=(1, 1, 1)):
    """The square torus a = b = c = 1 at N = 2, classical unless sigma, theta are given."""
    one, zero = GrassmannNumber.scalar(2, 1), GrassmannNumber.zero(2)
    return DecoratedTorusState(
        one, one, one,
        sigma if sigma is not None else zero,
        theta if theta is not None else zero,
        spin=spin,
    )


def super_unit_state(spin=(1, 1, 1)):
    """The super unit torus (1, 1, 1 | 0.1 b1, 0.1 b2) at N = 2."""
    b1, b2 = GrassmannNumber.generator(2, 1), GrassmannNumber.generator(2, 2)
    return unit_state(sigma=b1 * 0.1, theta=b2 * 0.1, spin=spin)


def random_grassmann(rng, n=3, scale=0.5, body=None):
    coeffs = {}
    for mask in range(1, 1 << n):
        if rng.random() < 0.7:
            coeffs[mask] = rng.uniform(-1, 1) * scale
    x = GrassmannNumber(n, coeffs)
    if body is not None:
        x = x + body
    else:
        x = x + rng.uniform(-2, 2)
    return x


def run_cli(argv, **env):
    """Run the superflip command in a fresh interpreter on this checkout's sources."""
    full_env = dict(os.environ, PYTHONPATH=SRC, **env)
    return subprocess.run(
        [sys.executable, "-m", "superflip.cli", *argv],
        capture_output=True, text=True, env=full_env, timeout=120,
    )


def strict_loads(text):
    """json.loads that rejects NaN, Infinity and -Infinity, as strict parsers do."""

    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def spectrum_with_sidecar(tmp_path, state, lmax):
    """Run ``superflip spectrum --sidecar`` in-process; return its CSV rows and its sidecar.

    The sidecar is parsed as strict JSON.
    """
    from superflip.cli import main

    src, out, side = tmp_path / "state.json", tmp_path / "spec.csv", tmp_path / "side.json"
    src.write_text(json.dumps(state.to_obj()))
    argv = ["spectrum", "--state", str(src), "--Lmax", str(lmax), "--out", str(out)]
    assert main(argv + ["--sidecar", str(side)]) == 0
    return out.read_text().strip().splitlines()[1:], strict_loads(side.read_text())

