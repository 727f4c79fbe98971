"""Write d1_oracle_bits.json: seeded non-X states with their exact d1_oracle values.

    PYTHONPATH=src python tests/data/make_d1_oracle_bits.py [OUT]

OUT defaults to d1_oracle_bits.json beside this script; give another path to
diff a regeneration against the committed table.

The first 60 cases are seeded non-X states: random mixtures, locally rotated
X states, cq and cc states.  The cases after them carry a ``kind`` and are
states with ties, on which many grid nodes or refine candidates give equal
values, so the first-of-equals rules (``np.argmin``, strict ``<``) decide the
bits: X states, whose minima lie on the pole row where every node has the
axis z, cq states at the pole, rotated pure states, rotated Bell-diagonal
states with |c1| = |c2|, raw and rotated Werner states, on which every axis
ties, and I/4 and states near it.

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

from qcorr.errors import StateError
from qcorr.oracles import SearchConfig, d1_oracle
from qcorr.stateio import state_from_record, state_to_record
from qcorr.states import (
    DensityMatrix,
    ProbTable2x2,
    bell_diagonal,
    cc_state,
    cq_state,
    is_x_shaped,
    pure_state,
    x_state,
)
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


def _conjugated(u: np.ndarray, rho: DensityMatrix) -> DensityMatrix:
    mat = u @ rho.mat @ u.conj().T
    return DensityMatrix(0.5 * (mat + mat.conj().T))


def _rotated(rho: DensityMatrix, rng: np.random.Generator) -> DensityMatrix:
    return _conjugated(np.kron(_haar_2x2(rng), _haar_2x2(rng)), rho)


def _rotated_x(rng: np.random.Generator) -> DensityMatrix:
    u = np.kron(_haar_2x2(rng), _haar_2x2(rng))
    return _conjugated(u, x_state(random_x_params(rng)))


def _cq(rng: np.random.Generator, theta: float | None = None) -> DensityMatrix:
    return cq_state(
        rng.random(),
        rng.random() * math.pi / 2.0 if theta is None else theta,
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


def _bell_c1_c2(rng: np.random.Generator) -> DensityMatrix:
    while True:
        c, c3 = rng.random(), 2.0 * rng.random() - 1.0
        s1, s2 = rng.choice([-1.0, 1.0], 2)
        try:
            return _rotated(bell_diagonal(s1 * c, s2 * c, c3), rng)
        except StateError:
            pass


def _near_identity(rng: np.random.Generator) -> DensityMatrix:
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = h + h.conj().T
    return DensityMatrix(np.eye(4) / 4.0 + 1e-9 * (h - np.trace(h) / 4.0 * np.eye(4)))


TIE_KINDS = {
    "x_pole": lambda rng: x_state(random_x_params(rng)),
    "cq_pole": lambda rng: _cq(rng, theta=0.0),
    "rotated_pure": lambda rng: _rotated(pure_state(rng.random()), rng),
    "rotated_bell_c1_c2": _bell_c1_c2,
    "werner": lambda rng: bell_diagonal(*[-rng.random()] * 3),
    "rotated_werner": lambda rng: _rotated(bell_diagonal(*[-rng.random()] * 3), rng),
    "identity": lambda rng: DensityMatrix(np.eye(4) / 4.0),
    "near_identity": _near_identity,
}
TIES_PER_KIND = 4


def tie_states() -> list[tuple[str, DensityMatrix]]:
    rng = np.random.default_rng(229)
    return [
        (kind, make(rng))
        for kind, make in TIE_KINDS.items()
        for _ in range(1 if kind == "identity" else TIES_PER_KIND)
    ]


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
    for kind, rho in [(None, rho) for rho in states()] + tie_states():
        record = state_to_record(rho)
        rho = state_from_record(record)
        case = {
            "record": record,
            "d1_oracle": {key: value.hex() for key, value in oracle_values(rho).items()},
            "d1_eigen_axes": _d1_eigen_axes(rho).hex(),
        }
        if kind is not None:
            case["kind"] = kind
        lines.append(json.dumps(case))
    out.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
    print(f"wrote {len(lines)} cases to {out}")


if __name__ == "__main__":
    main(*(Path(arg) for arg in sys.argv[1:2]))
