import math

import numpy as np
import pytest

from oracle_reference import classical_cov_from_moments, measurement_map
from qcorr.errors import StateError
from qcorr.measures import mmc
from qcorr.oracles import (
    DEFAULT_SEARCH,
    SearchConfig,
    _compass_frames,
    _grid_frames,
    _grid_node,
    classical_cov,
    d1_oracle,
    disturbance_norms,
    mmc_oracle,
)
from qcorr.states import (
    DensityMatrix,
    ProbTable2x2,
    bell_diagonal,
    bloch_matrix,
    bloch_vectors,
    cc_state,
    correlation_tensor,
    cq_state,
    frame_norms,
    pure_state,
    qubit_state,
    rho_d,
    x_state,
)
from qcorr.verify import (
    CLOSED_TOL,
    locally_rotated,
    random_bloch_vector,
    random_density_matrix,
    random_x_params,
)

BULK = SearchConfig(coarse_grid=(32, 64), refine_iters=40)


class TestSearchConfig:
    def test_defaults_valid(self):
        cfg = SearchConfig()
        assert cfg.coarse_grid == (64, 128)
        assert cfg.refine_iters == 40

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            SearchConfig(coarse_grid=(16, 128))
        with pytest.raises(ValueError):
            SearchConfig(coarse_grid=(32, 32))

    def test_refine_floor(self):
        with pytest.raises(ValueError):
            SearchConfig(refine_iters=10)

    @pytest.mark.parametrize("grid", [(1025, 128), (64, 2049), (100_000, 100_000)])
    def test_grid_ceiling(self, grid):
        # Rejected on construction, before any array of that size exists.
        with pytest.raises(ValueError, match="1024x2048"):
            SearchConfig(coarse_grid=grid)

    def test_refine_ceiling(self):
        with pytest.raises(ValueError, match="10000"):
            SearchConfig(refine_iters=10_001)

    @pytest.mark.parametrize(
        "fields",
        [
            {"refine_iters": 40.5},
            {"refine_iters": 40.0},
            {"refine_iters": True},
            {"refine_iters": "40"},
            {"coarse_grid": (64.5, 128)},
            {"coarse_grid": (64, 128.0)},
            {"coarse_grid": (True, 128)},
            {"coarse_grid": (64, 128, 3)},
            {"coarse_grid": (64,)},
            {"coarse_grid": 64},
        ],
        ids=repr,
    )
    def test_sizes_must_be_integers(self, fields):
        # Rejected on construction, not later inside range or np.linspace.
        with pytest.raises(ValueError, match="integer"):
            SearchConfig(**fields)

    def test_numpy_integer_sizes_accepted(self):
        cfg = SearchConfig(coarse_grid=(np.int64(32), np.int64(64)), refine_iters=np.int64(20))
        assert d1_oracle(pure_state(0.6), cfg) == pytest.approx(0.6, abs=2e-3)

    def test_bounds_are_inclusive(self):
        # Only constructed: nothing is searched at these sizes.
        assert SearchConfig(coarse_grid=(1024, 2048), refine_iters=10_000).refine_iters == 10_000
        assert SearchConfig(coarse_grid=(32, 64), refine_iters=20).coarse_grid == (32, 64)


class TestMeasurementMap:
    def test_diagonal_state_fixed_by_z_measurement(self):
        rho = DensityMatrix(np.diag([0.4, 0.1, 0.2, 0.3]))
        assert np.abs(measurement_map(rho, 0.0, 0.0).mat - rho.mat).max() <= 1e-14

    def test_bell_coherences_killed(self):
        out = measurement_map(pure_state(1.0), 0.0, 0.0)
        assert np.allclose(out.mat, np.diag([0.5, 0.0, 0.0, 0.5]))

    def test_cq_state_is_fixed_point(self):
        rho = cq_state(0.3, 0.7, 1.9, (0.5, -0.1, 0.2), (0.0, 0.4, -0.3))
        out = measurement_map(rho, 0.7, 1.9)
        assert np.abs(out.mat - rho.mat).max() <= 1e-14

    def test_idempotent(self):
        rng = np.random.default_rng(83)
        for _ in range(50):
            rho = random_density_matrix(rng)
            theta, phi = rng.random() * math.pi, rng.random() * 2 * math.pi
            once = measurement_map(rho, theta, phi)
            twice = measurement_map(once, theta, phi)
            assert np.abs(twice.mat - once.mat).max() <= 1e-12

    def test_antipodal_angles_give_same_map(self):
        rng = np.random.default_rng(89)
        for _ in range(50):
            rho = random_density_matrix(rng)
            theta, phi = rng.random() * math.pi / 2, rng.random() * 2 * math.pi
            direct = measurement_map(rho, theta, phi)
            flipped = measurement_map(rho, math.pi / 2 - theta, phi + math.pi)
            assert np.abs(direct.mat - flipped.mat).max() <= 1e-12


class TestDisturbanceNorms:
    def test_matches_single_evaluations(self):
        rng = np.random.default_rng(97)
        rho = random_density_matrix(rng)
        thetas = rng.random(20) * math.pi
        phis = rng.random(20) * 2 * math.pi
        batch = disturbance_norms(rho.mat, thetas, phis)
        for k in range(20):
            mapped = measurement_map(rho, thetas[k], phis[k])
            direct = float(np.abs(np.linalg.eigvalsh(rho.mat - mapped.mat)).sum())
            assert batch[k] == pytest.approx(direct, abs=1e-12)

    def test_mismatched_angle_arrays(self):
        from qcorr.errors import DimensionError

        with pytest.raises(DimensionError):
            disturbance_norms(np.eye(4) / 4, np.zeros(3), np.zeros(4))


def _columns(frame, shape):
    """A broadcast grid frame as (3, K) columns, one per node in row-major order."""
    return np.stack([np.broadcast_to(c, shape) for c in frame]).reshape(3, -1)


def _meshgrid_frames(n_theta, n_phi):
    """The grid's n, u, v as full (3, K) arrays, built the way the full-array layout was."""
    polar = 2.0 * np.linspace(0.0, math.pi / 4.0, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    pg, ph = np.meshgrid(polar, phis, indexing="ij")
    sp, cp, sph, cph = np.sin(pg), np.cos(pg), np.sin(ph), np.cos(ph)
    n = np.stack([sp * cph, sp * sph, cp]).reshape(3, -1)
    u = np.stack([cp * cph, cp * sph, -sp]).reshape(3, -1)
    v = np.stack([-sph, cph, np.zeros_like(ph)]).reshape(3, -1)
    return n, u, v, max(polar[1] - polar[0], phis[1] - phis[0])


def _angles(axes):
    """(theta, phi) of unit axes, given as (3, K) columns, as disturbance_norms takes them."""
    return 0.5 * np.arccos(np.clip(axes[2], -1.0, 1.0)), np.arctan2(axes[1], axes[0])


class TestFrameNorms:
    def test_matches_eigenvalue_reference_on_random_axes(self):
        rng = np.random.default_rng(113)
        for _ in range(50):
            rho = random_density_matrix(rng)
            frames = np.linalg.qr(rng.standard_normal((16, 3, 3)))[0]  # columns n, u, v
            n, u, v = frames[:, :, 0].T, frames[:, :, 1].T, frames[:, :, 2].T
            kernel = frame_norms(bloch_matrix(rho), u, v)
            assert np.abs(kernel - disturbance_norms(rho, *_angles(n))).max() <= CLOSED_TOL

    @pytest.mark.parametrize("shape", [(64, 128), (32, 64), (8, 16)])
    def test_matches_reference_on_grid_nodes(self, shape):
        n_theta, n_phi = shape
        n, u, v, _ = _grid_frames(n_theta, n_phi)
        n_full, u_full = _columns(n, shape), _columns(u, shape)
        tg, pg = np.meshgrid(
            np.linspace(0.0, math.pi / 4.0, n_theta),
            np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False),
            indexing="ij",
        )
        assert np.all(tg.ravel()[:n_phi] == 0.0)  # the pole row is part of the grid
        assert np.abs(np.einsum("ik,ik->k", n_full, u_full)).max() <= 1e-15
        rng = np.random.default_rng(127)
        for _ in range(5):
            rho = random_density_matrix(rng)
            kernel = frame_norms(bloch_matrix(rho), u, v).ravel()
            reference = disturbance_norms(rho, tg.ravel(), pg.ravel())
            assert np.abs(kernel - reference).max() <= CLOSED_TOL

    def test_grid_frames_cached_per_shape(self):
        assert _grid_frames(32, 64) is _grid_frames(32, 64)
        n, u, v, _ = _grid_frames(32, 64)
        assert [c.shape for c in n] == [(32, 64), (32, 64), (32, 1)]
        assert [c.shape for c in u] == [(32, 64), (32, 64), (32, 1)]
        assert [c.shape for c in v] == [(1, 64), (1, 64), (1, 64)]

    @pytest.mark.parametrize("shape", [(64, 128), (32, 64), (8, 16)])
    def test_grid_layout_matches_full_meshgrid_bit_for_bit(self, shape):
        *frames, step = _grid_frames(*shape)
        *full, full_step = _meshgrid_frames(*shape)
        assert step == full_step
        for frame, reference in zip(frames, full):
            columns = _columns(frame, shape)
            assert columns.shape == reference.shape
            assert columns.tobytes() == reference.tobytes()
            nodes = [_grid_node(frame, *divmod(k, shape[1])) for k in range(columns.shape[1])]
            assert np.array(nodes).T.tobytes() == reference.tobytes()

    def test_float_frame_matches_grid_column_bit_for_bit(self):
        rng = np.random.default_rng(139)
        for shape in [(64, 128), (32, 64), (8, 16)]:
            _, u, v, _ = _grid_frames(*shape)
            u_full, v_full = _columns(u, shape), _columns(v, shape)
            for _ in range(5):
                r = bloch_matrix(random_density_matrix(rng))
                grid = frame_norms(r, u, v).ravel()
                for k in range(grid.size):
                    one = frame_norms(r, tuple(u_full[:, k].tolist()), tuple(v_full[:, k].tolist()))
                    assert one.hex() == grid[k].hex()

    def test_carried_compass_frames_stay_orthonormal(self):
        rng = np.random.default_rng(131)
        rho = random_density_matrix(rng)
        r = bloch_matrix(rho)
        n, u, v, _ = _grid_frames(64, 128)
        n, u, v = (tuple(_columns(f, (64, 128))[:, 300].tolist()) for f in (n, u, v))
        for k in range(2000):
            candidates = _compass_frames(n, u, v, 0.05 * rng.random())
            frames = np.array(candidates).transpose(0, 2, 1)  # columns n, u, v
            gram = np.einsum("kia,kib->kab", frames, frames)
            assert np.abs(gram - np.eye(3)).max() <= 1e-12
            if k % 100 == 0:
                kernel = [frame_norms(r, cand_u, cand_v) for _, cand_u, cand_v in candidates]
                axes = frames[:, :, 0].T
                assert np.abs(kernel - disturbance_norms(rho, *_angles(axes))).max() <= CLOSED_TOL
            n, u, v = candidates[k % 4]

    def test_raw_array_is_rejected(self):
        # R is read off validated states only, even when the array holds one.
        rho = random_density_matrix(np.random.default_rng(137))
        with pytest.raises(StateError, match="DensityMatrix"):
            bloch_matrix(rho.mat)

    def test_bloch_matrix_is_a_beside_t_bit_for_bit(self):
        rng = np.random.default_rng(151)
        for _ in range(20):
            for rho in (random_density_matrix(rng), x_state(random_x_params(rng))):
                a, _ = bloch_vectors(rho)
                expected = np.column_stack([a, correlation_tensor(rho)])
                assert bloch_matrix(rho).tobytes() == expected.tobytes()


class TestD1Oracle:
    def test_classical_quantum_states_have_zero_discord(self):
        rng = np.random.default_rng(101)
        for _ in range(5):
            rho = cq_state(
                rng.random(),
                rng.random() * math.pi / 2,
                rng.random() * 2 * math.pi,
                random_bloch_vector(rng),
                random_bloch_vector(rng),
            )
            assert d1_oracle(rho, BULK) <= 1e-6

    def test_classical_classical_states_have_zero_discord(self):
        table = ProbTable2x2(0.35, 0.15, 0.2, 0.3)
        rho = cc_state(table, 0.6, 2.1, 1.0, 0.4)
        assert d1_oracle(rho, BULK) <= 1e-6

    def test_rho_d_spot(self):
        assert d1_oracle(rho_d(0.1, 0.2), BULK) == pytest.approx(0.48, abs=2e-3)

    def test_pure_state_spot(self):
        assert d1_oracle(pure_state(0.6), BULK) == pytest.approx(0.6, abs=2e-3)

    def test_non_negative(self):
        rng = np.random.default_rng(103)
        for _ in range(10):
            assert d1_oracle(random_density_matrix(rng), BULK) >= 0.0

    def test_deterministic(self):
        rho = bell_diagonal(0.4, -0.2, 0.1)
        assert d1_oracle(rho, BULK) == d1_oracle(rho, BULK)

    def test_stop_below_returns_upper_bound(self):
        rho = cq_state(0.4, 0.3, 0.8, (0.2, 0.0, 0.5), (0.0, -0.3, 0.1))
        bound = d1_oracle(rho, BULK, stop_below=1e-5)
        assert bound <= 1e-5

    def test_defaults_are_values_not_sentinels(self):
        # The defaults passed explicitly give the same bits; a stop below 0 is a stop at 0.
        rho = bell_diagonal(0.4, -0.2, 0.1)
        plain = d1_oracle(rho, BULK)
        assert d1_oracle(rho, BULK, stop_below=0.0) == plain
        assert d1_oracle(rho, BULK, stop_below=-1.0) == plain
        assert d1_oracle(rho, DEFAULT_SEARCH).hex() == d1_oracle(rho).hex()

    def test_none_settings_raise_type_error(self):
        rho = bell_diagonal(0.4, -0.2, 0.1)
        with pytest.raises(TypeError, match="SearchConfig"):
            d1_oracle(rho, None)
        with pytest.raises(TypeError):
            d1_oracle(rho, BULK, stop_below=None)


class TestMmcOracle:
    def test_product_state(self):
        rho = DensityMatrix(np.kron(qubit_state((0.3, 0, 0.2)), qubit_state((0, 0.5, 0))))
        assert mmc_oracle(rho) <= 1e-9

    def test_bell_diagonal_spot(self):
        assert mmc_oracle(bell_diagonal(0.5, -0.3, 0.2)) == pytest.approx(0.5, abs=1e-9)

    def test_pure_state_spot(self):
        assert mmc_oracle(pure_state(0.6)) == pytest.approx(0.6, abs=1e-9)

    def test_matches_singular_value_on_random_states(self):
        rng = np.random.default_rng(107)
        for _ in range(1000):
            rho = random_density_matrix(rng)
            assert mmc_oracle(rho) == pytest.approx(mmc(rho), abs=1e-9)

    @pytest.mark.parametrize(
        "case",
        [10.0**-k for k in range(8, 17)] + [0.0, "werner", "maximally_mixed", "rank_1", "rank_2", "tied_top_pair"],
        ids=str,
    )
    def test_near_degenerate_states(self, case):
        # Top singular values |c1| - |c2| apart, down to a tie: the sweeps must
        # stop on the off-diagonal of M = Q Q^T, not on a value that stalls
        # while the basis still mixes the top pair.  Werner states and I/4 have
        # Q Q^T = t^2 I.  Rank 1 and rank 2 leave M zero rows, and the tied
        # top pair has |c1| = |c2| with c3 = 0.
        if case == "maximally_mixed":
            states = [DensityMatrix(np.eye(4) / 4.0)]
        elif case == "rank_1":
            states = [cq_state(0.3, 0.4, 1.0, (0.1, 0.2, 0.3), (-0.2, 0.0, 0.5))]
        else:
            named = {"werner": (-0.3, -0.3, -0.3), "rank_2": (0.4, -0.3, 0.0), "tied_top_pair": (0.4, -0.4, 0.0)}
            c = named[case] if case in named else (0.4, -(0.4 - case), 0.1)
            rng = np.random.default_rng(37)
            states = [locally_rotated(bell_diagonal(*c), rng) for _ in range(4)]
        for rho in states:
            assert mmc_oracle(rho) == pytest.approx(mmc(rho), abs=1e-9)

    @pytest.mark.parametrize(
        "gaps", [(1e-7, 1e-3), (1e-8, 1e-5), (1e-6, 1e-3), (1e-6, 1e-4), (1e-5, 1e-4)], ids=str
    )
    def test_close_singular_triples(self, gaps):
        # s1 - s2 and s1 - s3 both small: no plane of M holds the top axis on
        # its own, so a fixed number of sweeps stops short; only the
        # off-diagonal test decides when the basis has settled.
        g12, g13 = gaps
        rng = np.random.default_rng(39)
        for _ in range(10):
            rho = locally_rotated(bell_diagonal(0.4, -(0.4 - g12), 0.4 - g13), rng)
            assert mmc_oracle(rho) == pytest.approx(mmc(rho), abs=1e-9)

    @staticmethod
    def _turned_about_z_on_a(rho, phi):
        u = np.kron(np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)]), np.eye(2))
        mat = u @ rho.mat @ u.conj().T
        return DensityMatrix(0.5 * (mat + mat.conj().T))

    @pytest.mark.parametrize(
        "c, phi",
        [
            ((0.05, 0.4, 0.3999), 0.0),
            ((0.4, 0.05, 0.3999), math.pi / 128),
            ((0.4, 0.05, 0.4 - 1e-8), math.pi / 128),
            ((0.4, 0.05, 0.3999), math.pi / 64),
        ],
        ids=["no_node_on_top_axis", "midway_default", "midway_default_gap_1e-8", "midway_bulk"],
    )
    def test_start_on_lower_axis(self, c, phi):
        # |q33| just below s1, with the top axis turned about z by phi: the z
        # pole is an exact axis of Q Q^T, as Q's third row and column are 0,
        # but not the top one.  The coordinate basis starts on it, and the
        # sweeps must turn the top axis out of the (x, y) plane.  The ids
        # name the d1 grids whose best node once sat on the pole.
        rho = self._turned_about_z_on_a(bell_diagonal(*c), phi)
        assert mmc_oracle(rho) == pytest.approx(mmc(rho), abs=1e-9)


class TestClassicalCov:
    def test_uniform_table(self):
        assert classical_cov(ProbTable2x2(0.25, 0.25, 0.25, 0.25)) == pytest.approx(0.0)

    def test_spot_table(self):
        table = ProbTable2x2(0.4, 0.1, 0.2, 0.3)
        assert classical_cov(table) == pytest.approx(0.4, abs=1e-14)
        assert classical_cov_from_moments(table) == pytest.approx(0.4, abs=1e-14)

    def test_perfect_correlation(self):
        assert classical_cov(ProbTable2x2(0.5, 0.0, 0.0, 0.5)) == pytest.approx(1.0)

    def test_expression_matches_moments_on_simplex_sweep(self):
        # every table on the 0.01-step probability simplex, vectorized
        step = 101
        grid = np.arange(step) / 100.0
        p11, p12, p21 = np.meshgrid(grid, grid, grid, indexing="ij")
        p22 = 1.0 - p11 - p12 - p21
        mask = p22 >= -1e-12
        p11, p12, p21, p22 = (a[mask] for a in (p11, p12, p21, p22))
        closed = p11 + p22 - p12 - p21 + (p12 - p21) ** 2 - (p11 - p22) ** 2
        ex = p11 + p12 - p21 - p22
        ey = p11 + p21 - p12 - p22
        exy = p11 + p22 - p12 - p21
        assert np.abs(closed - (exy - ex * ey)).max() <= 1e-14

    def test_function_pair_agrees_on_random_tables(self):
        rng = np.random.default_rng(109)
        for _ in range(200):
            table = ProbTable2x2.from_array(rng.dirichlet(np.ones(4)).reshape(2, 2))
            assert classical_cov(table) == pytest.approx(
                classical_cov_from_moments(table), abs=1e-14
            )
