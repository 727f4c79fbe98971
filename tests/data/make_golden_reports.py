"""Write golden_reports.json: state records with their `qcorr measures` records.

    PYTHONPATH=src python tests/data/make_golden_reports.py [OUT]

OUT defaults to golden_reports.json beside this script; give another path to
diff a regeneration against the committed corpus.  Every input is seeded, and
floats are written with ``repr`` (the json module's default), so each record
reads back bit for bit.  Regenerate only when a change of output is intended,
and say so where the change is recorded.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from qcorr.measures import full_report
from qcorr.stateio import report_to_record, state_from_record, state_to_record
from qcorr.states import rho_d_smax, x_state
from qcorr.verify import (
    locally_rotated,
    near_werner_params,
    random_bell_coefficients,
    random_bloch_vector,
    random_density_matrix,
    random_x_params,
)

OUT = Path(__file__).with_name("golden_reports.json")


def _x_record(params) -> dict:
    keys = ("rho11", "rho22", "rho33", "rho44", "rho14", "rho23")
    return {"family": "x", "params": {k: float(getattr(params, k)) for k in keys}}


def state_records() -> list[dict]:
    records = []
    # The paper's families.
    for n in (0.0, 0.1, 0.25, 0.6, 0.9, 1.0):
        records.append({"family": "pure", "params": {"n": n}})
    for w in (0.05, 0.1, 0.25, 0.45):
        smax = rho_d_smax(w)
        for frac in (0.25, 0.5, 1.0):
            records.append({"family": "rho_d", "params": {"w": w, "s": frac * smax}})
    for k in (1, 5, 12, 25, 26, 38, 50):
        records.append({"family": "rho_theta", "params": {"theta": (math.pi / 2.0) * k / 51.0}})
    for c in ([0.5, -0.3, 0.2], [0.4, -0.4, 0.4], [-1.0, -1.0, -1.0], [0.0, 0.0, 0.0]):
        records.append({"family": "bell_diagonal", "params": {"c": c}})
    for x in (1e-5, 3e-8, 0.0):
        records.append(_x_record(near_werner_params(x)))
    # Seeded random X and Bell-diagonal states.
    rng = np.random.default_rng(2024)
    for _ in range(30):
        records.append(_x_record(random_x_params(rng)))
    for _ in range(20):
        c = random_bell_coefficients(rng)
        records.append({"family": "bell_diagonal", "params": {"c": [float(v) for v in c]}})
    # Non-X states: cq and cc are locally X, the mixtures take the five axes.
    for _ in range(4):
        records.append({"family": "cq", "params": {
            "p1": float(rng.random()),
            "theta": float(rng.random() * math.pi / 2.0),
            "phi": float(rng.random() * 2.0 * math.pi),
            "a1": [float(v) for v in random_bloch_vector(rng)],
            "a2": [float(v) for v in random_bloch_vector(rng)],
        }})
    for _ in range(4):
        table = rng.dirichlet(np.ones(4)).reshape(2, 2)
        angles = rng.random(4) * (math.pi / 2.0, 2.0 * math.pi, math.pi / 2.0, 2.0 * math.pi)
        records.append({"family": "cc", "params": {
            "p": table.tolist(),
            "theta_a": float(angles[0]),
            "phi_a": float(angles[1]),
            "theta_b": float(angles[2]),
            "phi_b": float(angles[3]),
        }})
    for components in (1, 2, 3, 4, 6, None, None, None):
        records.append(state_to_record(random_density_matrix(rng, components)))
    # Appended later, so the records above keep their inputs: generic mixtures,
    # which the five axes serve, and locally rotated X states, which are not
    # X-shaped but take the X-state closed form.
    for components in (2, 3, 4, 5, 6, 2, 3, 4, 5):
        records.append(state_to_record(random_density_matrix(rng, components)))
    for _ in range(3):
        records.append(state_to_record(locally_rotated(x_state(random_x_params(rng)), rng)))
    return records


def main(out: Path = OUT) -> None:
    lines = []
    for record in state_records():
        report = report_to_record(full_report(state_from_record(record)))
        lines.append(json.dumps({"record": record, "report": report}))
    out.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
    print(f"wrote {len(lines)} cases to {out}")


if __name__ == "__main__":
    main(*(Path(arg) for arg in sys.argv[1:2]))
