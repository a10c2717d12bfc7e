"""Set-up probe, run in a fresh interpreter: import every superflip layer, parse state files.

Usage: python3 perfbench/setup_probe.py STATE.json [STATE.json ...]
Prints the number of states parsed.  ``run.py`` times this whole process
as the set-up cost a user pays before the first call.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import superflip.cli  # noqa: E402,F401  (pulls in all six layers)
from superflip.torus import DecoratedTorusState  # noqa: E402

states = []
for path in sys.argv[1:]:
    with open(path) as fh:
        states.append(DecoratedTorusState.from_obj(json.load(fh)))
print(len(states))
