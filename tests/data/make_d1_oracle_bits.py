"""Write d1_oracle_bits.json: seeded non-X states with their exact d1_oracle values.

    PYTHONPATH=src python tests/data/make_d1_oracle_bits.py [OUT]

OUT defaults to d1_oracle_bits.json beside this script; give another path to
diff a regeneration against the committed table.

Each case holds a raw state record and ``d1_oracle`` at three settings: the
default search, the 32x64 grid with 60 refine steps, and that search again with
``stop_below`` set just above the default value, so it returns partway through
the refinement.  It also holds the kernel at the three eigen-axes of
M = R R^T (``tests/oracle_reference._d1_eigen_axes``).  Values are written
with ``float.hex`` and compared exactly: the table records bits, not a
tolerance.  Regenerate only when a change of the oracle's arithmetic is
intended, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from qcorr.oracles import SearchConfig, d1_oracle
from qcorr.stateio import state_from_record, state_to_record
from qcorr.states import DensityMatrix, ProbTable2x2, cc_state, cq_state, is_x_shaped, x_state
from qcorr.verify import random_bloch_vector, random_density_matrix, random_x_params

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from oracle_reference import _d1_eigen_axes  # noqa: E402

OUT = Path(__file__).with_name("d1_oracle_bits.json")

SMALL = SearchConfig(coarse_grid=(32, 64), refine_iters=60)
# Added to the default-search value to give the early-stop threshold.
STOP_MARGIN = 1e-4


def _haar_2x2(rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _rotated_x(rng: np.random.Generator) -> DensityMatrix:
    u = np.kron(_haar_2x2(rng), _haar_2x2(rng))
    mat = u @ x_state(random_x_params(rng)).mat @ u.conj().T
    return DensityMatrix(0.5 * (mat + mat.conj().T))


def _cq(rng: np.random.Generator) -> DensityMatrix:
    return cq_state(
        rng.random(),
        rng.random() * math.pi / 2.0,
        rng.random() * 2.0 * math.pi,
        random_bloch_vector(rng),
        random_bloch_vector(rng),
    )


def _cc(rng: np.random.Generator) -> DensityMatrix:
    table = ProbTable2x2.from_array(rng.dirichlet(np.ones(4)).reshape(2, 2))
    angles = rng.random(4) * (math.pi / 2.0, 2.0 * math.pi, math.pi / 2.0, 2.0 * math.pi)
    return cc_state(table, *(float(a) for a in angles))


def states() -> list[DensityMatrix]:
    rng = np.random.default_rng(2121)
    out = []
    for _ in range(15):
        out.append(random_density_matrix(rng))
        out.append(_rotated_x(rng))
        out.append(_cq(rng))
        out.append(_cc(rng))
    return [rho for rho in out if not is_x_shaped(rho.mat)]


def oracle_values(rho: DensityMatrix) -> dict:
    """The three d1_oracle values of one case, plus the stop threshold, as floats."""
    default = d1_oracle(rho)
    stop_below = default + STOP_MARGIN
    return {
        "default": default,
        "small": d1_oracle(rho, SMALL),
        "stop_below": stop_below,
        "small_stopped": d1_oracle(rho, SMALL, stop_below=stop_below),
    }


def main(out: Path = OUT) -> None:
    lines = []
    for rho in states():
        record = state_to_record(rho)
        rho = state_from_record(record)
        case = {
            "record": record,
            "d1_oracle": {key: value.hex() for key, value in oracle_values(rho).items()},
            "d1_eigen_axes": _d1_eigen_axes(rho).hex(),
        }
        lines.append(json.dumps(case))
    out.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
    print(f"wrote {len(lines)} cases to {out}")


if __name__ == "__main__":
    main(*(Path(arg) for arg in sys.argv[1:2]))
