"""The d1 search ranks cheaply and decides with the exact kernel.

The grid's screen (three separable matrix products) and the refinement's
``math.hypot`` ranking only choose which candidates the kernel evaluates.
These tests pin the conditions the docstrings' proofs rest on, and compare
the search with test-side references that evaluate every node and every
candidate with ``frame_norms`` alone, bit for bit.
"""

import math

import numpy as np
import pytest

from oracle_reference import _reference_d1
from qcorr.errors import StateError
from qcorr.oracles import (
    _NODE_LIMIT,
    _RANK_ABS,
    _RANK_REL,
    SearchConfig,
    _grid_frames,
    _grid_minimum,
    _grid_node,
    _leg,
    _norm,
    _screen,
    _screen_margin,
    _terms,
    bloch_matrix,
    d1_oracle,
    frame_norms,
)
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


@pytest.mark.parametrize("shape", [(64, 128), (32, 64), (8, 16), (128, 256)])
def test_screen_error_is_within_half_the_margin(shape):
    # _grid_minimum keeps every node tying the least kernel value when
    # |screen - kernel^2| <= eps on every node and the margin is >= 2 eps.
    _, u, v, _ = _grid_frames(*shape)
    per_kind = 4 if shape == (128, 256) else 12
    worst = 0.0
    for kind, rho in _states(211, dict.fromkeys(ALL_KINDS, per_kind)):
        r = bloch_matrix(rho)
        kernel = frame_norms(r, u, v)
        error = float(np.abs(_screen(r, shape) - kernel * kernel).max())
        assert 2.0 * error <= _screen_margin(r), (kind, error)
        worst = max(worst, error / max(float(np.vdot(r, r)), 1e-300))
    # The margin leaves room: the screen errs by far less than 2^-30 |R|^2.
    assert worst < 2.0**-40


def _reference_grid(r, shape):
    vals = frame_norms(r, *_grid_frames(*shape)[1:3])
    k = int(np.argmin(vals))
    return k, float(vals.flat[k]), int(np.count_nonzero(vals == vals.flat[k]))


def test_grid_minimum_is_the_full_grid_argmin_bit_for_bit():
    counts = {
        "mixture": 700, "rotated_x": 300, "x": 200, "cq": 200, "cq_pole": 100, "cc": 200,
        "pure": 100, "bell_c1_c2": 100, "werner": 60, "identity": 1, "near_identity": 60,
    }
    tied = {"pole": 0, "all": 0}
    for shape, share in [((64, 128), 1), ((32, 64), 2)]:
        fewer = {kind: max(count // share, 1) for kind, count in counts.items()}
        branch = {"nodes": 0, "rows": 0}
        for kind, rho in _states(223 + shape[0], fewer):
            r = bloch_matrix(rho)
            k, best, ties = _reference_grid(r, shape)
            got_k, got_best = _grid_minimum(r, shape)
            assert (got_k, got_best.hex()) == (k, best.hex()), kind
            tied["pole"] += ties > 1 and k < shape[1]
            tied["all"] += ties == shape[0] * shape[1]
            screen = _screen(r, shape)
            candidates = np.count_nonzero(~(screen > screen.min() + _screen_margin(r)))
            branch["nodes" if candidates <= _NODE_LIMIT else "rows"] += 1
        # Both ways of deciding are held to the full grid on this shape.
        assert min(branch.values()) >= 100, (shape, branch)
    # The table exercises the first-minimum rule on real ties.
    assert tied["pole"] >= 100 and tied["all"] >= 2, tied


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


def test_rank_stays_within_the_margin_of_the_kernel():
    # The refinement skips a candidate whose math.hypot rank is at least
    # best (1 + _RANK_REL) + _RANK_ABS.  That is safe when the rank and the
    # kernel value differ by at most 2^-49 relative plus 2^-535.
    rng = np.random.default_rng(233)
    assert _RANK_REL >= 2.0**-45 and _RANK_ABS >= 2.0**-530
    for scale in (1.0, 1e-9, 1e-160, 1e-300):
        for _ in range(2000):
            r = (scale * rng.standard_normal((3, 4))).tolist()
            u, v = (tuple(c) for c in np.linalg.qr(rng.standard_normal((3, 3)))[0].T[:2])
            terms = _terms(_leg(r, u), _leg(r, v))
            exact, ranked = _norm(*terms, np.hypot), _norm(*terms, math.hypot)
            assert exact == frame_norms(r, u, v)
            assert abs(ranked - exact) <= 2.0**-49 * exact + 2.0**-535
    for x, y in rng.standard_normal((20000, 2)) * np.exp(rng.uniform(-745.0, 700.0, (20000, 1))):
        h = float(np.hypot(x, y))
        assert abs(math.hypot(x, y) - h) <= 2.0**-51 * h + 2.0**-1073


def test_non_finite_input_searches_every_row():
    # A raw array with a NaN entry is no state; the search returns NaN, as an
    # evaluation of every node would, rather than failing on an empty screen.
    mat = np.eye(4, dtype=complex) / 4.0
    mat[0, 1] = np.nan
    with np.errstate(invalid="ignore"):
        assert math.isnan(d1_oracle(mat))
