"""Write the reference profiles of the tolerance gate (tests/gate.py).

Run from the repository root, with the code whose outputs become the
reference, naming the slices to write (both when none is named):

    PYTHONPATH=src python tests/data/make_gate_profiles.py [inf] [finite]

Each slice's file holds, for the joint M_z + T_xx curve at gamma = 0.5,
each window's midpoint and, per observable and (k, distance), every
window's delta (k = 1..4 x md/sd/bd) and lambda_c^N of the cubic fit:

- inf_profiles.json: N = inf over [0.8, 1.2] (w = 0.1, epsilon = 0.005,
  n = 200: 61 windows);
- finite_profiles.json: N = 14, 20 and 40 over [0.5, 1.5] (w = 0.05,
  epsilon = 5e-3, n = 2 500: 191 windows each), and q of the fixed-mode
  scaling fit of the three lambda_c^N.

Floats are written with repr, so they read back bit for bit.  A slice's
reference is rewritten only at the parent of a change that moves its bits.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from gate import DATA, SLICES, reference_profiles  # noqa: E402


def main(names):
    for name in names or SLICES:
        path = DATA / SLICES[name][0]
        path.write_text(json.dumps(reference_profiles(name), indent=1) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
