import numpy as np
import pytest

from partkf.benchmarks import (
    LINEAR_A,
    LINEAR_C,
    REACTOR_C_S,
    REACTOR_T_S,
    get_benchmark,
    linear_subsystems,
    reactor_subsystems,
)
from partkf.model import (
    LinearizationError,
    LinearSubsystem,
    NonlinearSubsystem,
    aggregate_nonlinear,
    assemble_global,
    linear_as_nonlinear,
    linearize,
    make_partition,
)

REACTOR_STEADY = np.column_stack([REACTOR_T_S, REACTOR_C_S]).ravel()


class TestMakePartition:
    def test_two_blocks(self):
        p = make_partition([2, 2], [1, 1])
        assert p.offsets == (0, 2, 4)
        assert p.out_offsets == (0, 1, 2)
        assert p.state_slice(0) == slice(0, 2)
        assert p.state_slice(1) == slice(2, 4)
        assert p.nx == 4 and p.ny == 2 and p.n == 2

    def test_single_block_degenerate(self):
        p = make_partition([4], [2])
        assert p.n == 1
        assert p.offsets == (0, 4)
        assert p.state_slice(0) == slice(0, 4)

    def test_four_blocks(self):
        p = make_partition([2, 2, 2, 2], [1, 1, 1, 1])
        assert p.n == 4
        assert p.offsets == (0, 2, 4, 6, 8)
        assert sum(p.dims) == p.nx == 8
        assert sum(p.out_dims) == p.ny == 4

    def test_errors(self):
        with pytest.raises(ValueError):
            make_partition([], [])
        with pytest.raises(ValueError):
            make_partition([2, 0], [1, 1])
        with pytest.raises(ValueError):
            make_partition([2, 2], [1])
        with pytest.raises(ValueError):
            make_partition([2], [-1])

    def test_split_and_stack_roundtrip(self):
        p = make_partition([2, 3], [1, 0])
        x = np.arange(5.0)
        blocks = p.split_state(x)
        assert np.array_equal(blocks[0], [0.0, 1.0])
        assert np.array_equal(blocks[1], [2.0, 3.0, 4.0])
        assert np.array_equal(p.stack(blocks), x)


class TestAssembleGlobal:
    def test_reproduces_published_matrices_exactly(self):
        model = assemble_global(linear_subsystems(), make_partition([2, 2], [1, 1]))
        assert np.array_equal(model.A, LINEAR_A)
        assert np.array_equal(model.C, LINEAR_C)

    def test_single_subsystem_identity_assembly(self):
        sub = LinearSubsystem(0, LINEAR_A, {}, LINEAR_C, np.eye(4), np.eye(2))
        model = assemble_global([sub], make_partition([4], [2]))
        assert np.array_equal(model.A, LINEAR_A)
        assert np.array_equal(model.C, LINEAR_C)
        assert np.array_equal(model.Q, np.eye(4))
        assert np.array_equal(model.R, np.eye(2))

    def test_decoupled_spectral_radius_is_max_of_blocks(self):
        model = assemble_global(linear_subsystems(coupling_scale=0.0),
                                make_partition([2, 2], [1, 1]))
        rho_global = np.max(np.abs(np.linalg.eigvals(model.A)))
        rho_blocks = max(
            np.max(np.abs(np.linalg.eigvals(LINEAR_A[:2, :2]))),
            np.max(np.abs(np.linalg.eigvals(LINEAR_A[2:, 2:]))),
        )
        assert rho_global == pytest.approx(rho_blocks, rel=1e-12)
        # Coupling removed: off-diagonal blocks exactly zero.
        assert np.all(model.A[:2, 2:] == 0.0)
        assert np.all(model.A[2:, :2] == 0.0)

    def test_block_extraction_identity(self):
        model = assemble_global(linear_subsystems(), make_partition([2, 2], [1, 1]))
        for i, sub in enumerate(model.subsystems):
            sl = model.partition.state_slice(i)
            assert np.array_equal(model.A[sl, sl], sub.A)
            for l, blk in sub.coupling.items():
                assert np.array_equal(model.A[sl, model.partition.state_slice(l)], blk)
        # Output matrix block diagonal: cross blocks exactly zero.
        assert np.all(model.C[0, 2:] == 0.0)
        assert np.all(model.C[1, :2] == 0.0)

    def test_duplicate_index_rejected(self):
        subs = linear_subsystems()
        bad = [subs[0], LinearSubsystem(0, subs[1].A, {}, subs[1].C,
                                        subs[1].Q, subs[1].R)]
        with pytest.raises(ValueError):
            assemble_global(bad, make_partition([2, 2], [1, 1]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            assemble_global(linear_subsystems(), make_partition([2, 3], [1, 1]))
        sub_bad = LinearSubsystem(0, np.eye(2), {1: np.ones((2, 3))},
                                  np.ones((1, 2)), np.eye(2), np.eye(1))
        sub1 = linear_subsystems()[1]
        with pytest.raises(ValueError, match="^subsystem 0: neighbor 1 has dimension 3"):
            assemble_global([sub_bad, sub1], make_partition([2, 2], [1, 1]))

    def test_unknown_neighbor_rejected(self):
        sub_bad = LinearSubsystem(0, np.eye(2), {5: np.ones((2, 2))},
                                  np.ones((1, 2)), np.eye(2), np.eye(1))
        with pytest.raises(ValueError, match="^subsystem 0: unknown neighbor 5$"):
            assemble_global([sub_bad, linear_subsystems()[1]],
                            make_partition([2, 2], [1, 1]))

    def test_weights_must_be_spd(self):
        with pytest.raises(ValueError):
            LinearSubsystem(0, np.eye(2), {}, np.ones((1, 2)),
                            np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(1))
        with pytest.raises(ValueError):
            LinearSubsystem(0, np.eye(2), {}, np.ones((1, 2)),
                            -np.eye(2), np.eye(1))
        # Symmetric, with a Cholesky factor, and still no weight.
        with pytest.raises(ValueError, match="^subsystem 0: Q must be finite$"):
            LinearSubsystem(0, np.eye(2), {}, np.ones((1, 2)),
                            np.diag([np.inf, 1.0]), np.eye(1))

    def test_self_coupling_under_a_string_key_rejected(self):
        # "0" names subsystem 0 as much as 0 does; accepted, its block would
        # overwrite the own block A[0, 0] on assembly.
        one = np.eye(1)
        with pytest.raises(ValueError, match="^subsystem 0: self-coupling must go in A$"):
            LinearSubsystem(0, 0.5 * one, {"0": 9.0 * one, 1: 0.1 * one}, one, one, one)

    def test_neighbor_given_twice_rejected(self):
        # Accepted, the last block under key 1 would win: coupling {1: [[0.2]]}.
        one = np.eye(1)
        with pytest.raises(ValueError, match="^subsystem 0: neighbor 1 is given twice$"):
            LinearSubsystem(0, 0.5 * one, {1: 0.1 * one, "1": 0.2 * one}, one, one, one)

    def test_neighbor_dims_follow_the_coupling_blocks(self):
        sub = LinearSubsystem(1, np.eye(2), {0: np.ones((2, 3)), 2: np.ones((2, 1))},
                              np.ones((1, 2)), np.eye(2), np.eye(1))
        assert sub.neighbor_dims == {0: 3, 2: 1}
        assert linear_as_nonlinear(sub).neighbor_dims == sub.neighbor_dims

    def test_q_r_cholesky_succeeds(self):
        model = assemble_global(linear_subsystems(), make_partition([2, 2], [1, 1]))
        np.linalg.cholesky(model.Q)
        np.linalg.cholesky(model.R)

    def test_model_arrays_immutable(self):
        model = assemble_global(linear_subsystems(), make_partition([2, 2], [1, 1]))
        with pytest.raises(ValueError):
            model.A[0, 0] = 5.0
        with pytest.raises(ValueError):
            model.subsystems[0].Q[0, 0] = 2.0


class TestLinearize:
    def test_affine_blocks_point_independent(self):
        subs = [linear_as_nonlinear(s) for s in linear_subsystems()]
        rng = np.random.default_rng(0)
        ref = linearize(subs, np.zeros(4), mode="analytic")
        assert np.array_equal(ref.A, LINEAR_A)
        assert np.array_equal(ref.C, LINEAR_C)
        for _ in range(10):
            x = rng.normal(scale=10.0, size=4)
            blocks = linearize(subs, x, mode="analytic")
            assert np.array_equal(blocks.A, ref.A)
            assert np.array_equal(blocks.C, ref.C)

    def test_analytic_matches_finite_difference_at_steady_state(self):
        subs = reactor_subsystems()
        an = linearize(subs, REACTOR_STEADY, mode="analytic")
        fd = linearize(subs, REACTOR_STEADY, mode="fd")
        assert np.all(np.abs(an.A - fd.A) <= 1e-5 * (1.0 + np.abs(fd.A)))
        assert np.all(np.abs(an.C - fd.C) <= 1e-5 * (1.0 + np.abs(fd.C)))

    def test_column_block_shapes(self):
        subs = reactor_subsystems()
        blocks = linearize(subs, REACTOR_STEADY, mode="analytic")
        for i in range(4):
            assert blocks.a_cols[i].shape == (8, 2)
            assert blocks.c_cols[i].shape == (8, 2)

    def test_stacking_reproduces_assembled_matrices(self):
        subs = reactor_subsystems()
        blocks = linearize(subs, REACTOR_STEADY, mode="analytic")
        assert np.array_equal(np.hstack(blocks.a_cols), blocks.A)
        assert np.array_equal(np.hstack(blocks.c_cols), blocks.C)
        for (l, i), blk in blocks.a_blocks.items():
            sl = slice(2 * l, 2 * l + 2)
            si = slice(2 * i, 2 * i + 2)
            assert np.array_equal(blocks.A[sl, si], blk)

    def test_nan_carries_subsystem_index(self):
        def bad_f(x, nbrs):
            return np.array([np.nan, 0.0])

        sub = NonlinearSubsystem(index=0, state_dim=2, out_dim=1, neighbor_dims={},
                                 f=bad_f, h=lambda x: x[:1], Q=np.eye(2), R=np.eye(1))
        with pytest.raises(LinearizationError) as err:
            linearize([sub], np.zeros(2), mode="fd")
        assert err.value.subsystem == 0

    def test_nonfinite_point_rejected(self):
        subs = [linear_as_nonlinear(s) for s in linear_subsystems()]
        with pytest.raises(ValueError):
            linearize(subs, np.array([np.inf, 0, 0, 0]), mode="analytic")


class TestNonlinearSubsystem:
    def test_constructor_spot_check_accepts_correct_jacobians(self):
        reactor_subsystems()  # jacobian_check_samples are verified on build

    def test_constructor_spot_check_rejects_wrong_jacobian(self):
        good = reactor_subsystems()[2]

        def wrong_jac(x, nbrs):
            blocks = good.jac_f(x, nbrs)
            return {l: 2.0 * b for l, b in blocks.items()}

        with pytest.raises(ValueError):
            NonlinearSubsystem(
                index=2, state_dim=2, out_dim=2, neighbor_dims=good.neighbor_dims,
                f=good.f, h=good.h, Q=good.Q, R=good.R,
                jac_f=wrong_jac, jac_h=good.jac_h,
                jacobian_check_samples=good.jacobian_check_samples)

    def test_own_index_as_neighbor_rejected(self):
        # Accepted, the neighbor block would overwrite the own block of the
        # dynamics Jacobian: 0.1 where df/dx is 0.6.
        one = np.eye(1)
        with pytest.raises(ValueError, match="^subsystem 0: neighbor_dims must not "
                           "list the subsystem itself$"):
            NonlinearSubsystem(index=0, state_dim=1, out_dim=1, neighbor_dims={0: 1},
                               f=lambda x, nb: 0.5 * x + 0.1 * nb[0], h=lambda x: x,
                               Q=one, R=one)

    def test_aggregate_dimension_checks(self):
        subs = reactor_subsystems()
        with pytest.raises(ValueError):
            aggregate_nonlinear(subs, make_partition([2, 2, 2, 3], [2, 2, 2, 2]))

    @pytest.mark.parametrize("neighbor_dims, message", [
        ({5: 1}, "^subsystem 0: unknown neighbor 5$"),
        ({1: 2}, "^subsystem 0: neighbor 1 has dimension 2, expected 1$"),
    ], ids=["unknown-index", "wrong-dimension"])
    def test_aggregate_neighbor_checks(self, neighbor_dims, message):
        one = np.eye(1)
        subs = [NonlinearSubsystem(index=i, state_dim=1, out_dim=1,
                                   neighbor_dims=neighbor_dims if i == 0 else {},
                                   f=lambda x, nb: x, h=lambda x: x, Q=one, R=one)
                for i in range(2)]
        with pytest.raises(ValueError, match=message):
            aggregate_nonlinear(subs, make_partition([1, 1], [1, 1]))

    def test_neighbor_given_twice_rejected(self):
        # Accepted, the last dimension under key 1 would win: {1: 2}.
        one = np.eye(1)
        with pytest.raises(ValueError, match="^subsystem 0: neighbor 1 is given twice$"):
            NonlinearSubsystem(index=0, state_dim=1, out_dim=1,
                               neighbor_dims={1: 1, "1": 2}, f=lambda x, nb: x,
                               h=lambda x: x, Q=one, R=one)

    def test_jacobian_block_given_twice_rejected(self):
        # Accepted, the block under "1" would win: A[0, 1] = 7 where df/dx_1
        # is 0.1.
        one = np.eye(1)

        def jac_f(x, nb):
            return {0: 0.5 * one, 1: 0.1 * one, "1": 7.0 * one}

        subs = [NonlinearSubsystem(index=0, state_dim=1, out_dim=1, neighbor_dims={1: 1},
                                   f=lambda x, nb: 0.5 * x + 0.1 * nb[1], h=lambda x: x,
                                   Q=one, R=one, jac_f=jac_f, jac_h=lambda x: one),
                NonlinearSubsystem(index=1, state_dim=1, out_dim=1, neighbor_dims={},
                                   f=lambda x, nb: x, h=lambda x: x, Q=one, R=one,
                                   jac_f=lambda x, nb: {1: one}, jac_h=lambda x: one)]
        with pytest.raises(LinearizationError, match="^subsystem 0: jac_f raised .*"
                           "neighbor 1 is given twice") as err:
            linearize(subs, np.zeros(2), mode="analytic")
        assert err.value.subsystem == 0

    def test_spot_check_sample_given_twice_rejected(self):
        one = np.eye(1)
        with pytest.raises(ValueError, match="^subsystem 0: neighbor 1 is given twice$"):
            NonlinearSubsystem(index=0, state_dim=1, out_dim=1, neighbor_dims={1: 1},
                               f=lambda x, nb: 0.5 * x + 0.1 * nb[1], h=lambda x: x,
                               Q=one, R=one,
                               jac_f=lambda x, nb: {0: 0.5 * one, 1: 0.1 * one},
                               jacobian_check_samples=[([0.0], {1: [1.0], "1": [2.0]})])

    def test_global_maps_match_blockwise_evaluation(self):
        bench = get_benchmark("reactor-chain")
        x = REACTOR_STEADY + 0.5
        fx = bench.model.f(x)
        p = bench.model.partition
        for i, sub in enumerate(bench.model.subsystems):
            nbrs = {l: x[p.state_slice(l)] for l in sub.neighbors}
            assert np.array_equal(fx[p.state_slice(i)],
                                  sub.f(x[p.state_slice(i)], nbrs))
