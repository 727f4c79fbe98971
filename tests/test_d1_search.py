"""The d1 oracle evaluates every grid node and every refine candidate with the kernel.

The test compares it with a test-side reference that writes the same search
out step by step, bit for bit, on states with ties and on generic ones.
"""

import math

import numpy as np

from oracle_reference import _reference_d1
from qcorr.errors import StateError
from qcorr.oracles import SearchConfig, d1_oracle
from qcorr.states import (
    DensityMatrix,
    ProbTable2x2,
    bell_diagonal,
    cc_state,
    cq_state,
    pure_state,
    x_state,
)
from qcorr.verify import random_bloch_vector, random_density_matrix, random_x_params

SMALL = SearchConfig(coarse_grid=(32, 64), refine_iters=60)


def _local_unitary(rng):
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _rotated(mat, rng):
    u = np.kron(_local_unitary(rng), _local_unitary(rng))
    m = u @ mat @ u.conj().T
    return DensityMatrix(0.5 * (m + m.conj().T))


def _traceless_hermitian(rng):
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = h + h.conj().T
    return h - np.trace(h) / 4.0 * np.eye(4)


def _state(kind, rng):
    if kind == "mixture":
        return random_density_matrix(rng)
    if kind == "rotated_x":
        return _rotated(x_state(random_x_params(rng)).mat, rng)
    if kind == "x":  # minima on the pole row, where every node has the axis z
        return x_state(random_x_params(rng))
    if kind in ("cq", "cq_pole"):
        theta = 0.0 if kind == "cq_pole" else rng.random() * math.pi / 2.0
        return cq_state(
            rng.random(), theta, rng.random() * 2.0 * math.pi,
            random_bloch_vector(rng), random_bloch_vector(rng),
        )
    if kind == "cc":
        table = ProbTable2x2.from_array(rng.dirichlet(np.ones(4)).reshape(2, 2))
        angles = rng.random(4) * (math.pi / 2.0, 2.0 * math.pi, math.pi / 2.0, 2.0 * math.pi)
        return cc_state(table, *(float(a) for a in angles))
    if kind == "pure":
        return _rotated(pure_state(rng.random()).mat, rng)
    if kind == "bell_c1_c2":  # rotated Bell-diagonal with |c1| = |c2|
        while True:
            c, c3 = rng.random(), 2.0 * rng.random() - 1.0
            s1, s2 = rng.choice([-1.0, 1.0], 2)
            try:
                return _rotated(bell_diagonal(s1 * c, s2 * c, c3).mat, rng)
            except StateError:
                pass
    if kind == "werner":  # every axis gives the same value: all nodes tie
        c = rng.random()
        state = bell_diagonal(-c, -c, -c)
        return state if rng.random() < 0.5 else _rotated(state.mat, rng)
    if kind == "identity":
        return DensityMatrix(np.eye(4) / 4.0)
    if kind == "near_identity":
        return DensityMatrix(np.eye(4) / 4.0 + 1e-9 * _traceless_hermitian(rng))
    raise ValueError(kind)


ALL_KINDS = (
    "mixture", "rotated_x", "x", "cq", "cq_pole", "cc", "pure",
    "bell_c1_c2", "werner", "identity", "near_identity",
)


def _states(seed, counts):
    rng = np.random.default_rng(seed)
    return [(kind, _state(kind, rng)) for kind, count in counts.items() for _ in range(count)]


def test_d1_oracle_matches_the_all_kernel_refine_bit_for_bit():
    counts = {kind: 25 for kind in ALL_KINDS if kind != "identity"}
    counts.update(mixture=60, rotated_x=40, identity=1)
    rng = np.random.default_rng(227)
    for kind, rho in _states(229, counts):
        default = _reference_d1(rho, SearchConfig())
        assert d1_oracle(rho).hex() == default.hex(), kind
        assert d1_oracle(rho, SMALL).hex() == _reference_d1(rho, SMALL).hex(), kind
        stop = default + 1e-4 * float(rng.random())
        stopped = _reference_d1(rho, SMALL, stop)
        assert d1_oracle(rho, SMALL, stop_below=stop).hex() == stopped.hex(), kind
