"""Write the N = infinity reference profiles that tests/test_inf_gate.py
compares against.

Run from the repository root, with the code whose outputs become the
reference:

    PYTHONPATH=src python tests/data/make_inf_profiles.py

The file holds, for the joint M_z + T_xx curve at gamma = 0.5 over
[0.8, 1.2] (w = 0.1, epsilon = 0.005, n = 200: 61 windows), each window's
midpoint and, per observable and (k, distance), every window's delta
(k = 1..4 x md/sd/bd) and lambda_c^N of the cubic fit.  Floats are
written with repr, so they read back bit for bit.
"""

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from test_inf_gate import REFERENCE, reference_profiles  # noqa: E402


def main():
    text = json.dumps(reference_profiles(), indent=1) + "\n"
    (HERE / REFERENCE).write_text(text)
    print(f"wrote {HERE / REFERENCE}")


if __name__ == "__main__":
    main()
