import dataclasses
import re

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

import partkf.dkf
import partkf.fie
from partkf.benchmarks import (
    LINEAR_A,
    LINEAR_C,
    REACTOR_C_S,
    REACTOR_T_S,
    get_benchmark,
    linear_subsystems,
    reactor_subsystems,
)
from partkf.dekf import run_dekf
from partkf.dkf import run_dkf
from partkf.fie import run_dfie
from partkf.model import (
    LinearizationError,
    LinearSubsystem,
    NonlinearSubsystem,
    _factor_solve,
    _monolithic,
    _not_posdef,
    _not_semidefinite,
    _solve,
    _spd_factor,
    _spd_solve,
    _sym,
    aggregate_nonlinear,
    assemble_global,
    linear_as_nonlinear,
    linearize,
    make_partition,
)
from partkf.simulate import simulate

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

    @pytest.mark.parametrize("dims, out_dims, message", [
        ([2.7], [1], "dims[0] must be an integer, not 2.7"),
        ([2, "2"], [1, 1], "dims[1] must be an integer, not '2'"),
        ([2], [True], "out_dims[0] must be an integer, not True"),
        ([2, 2], [1, 0.5], "out_dims[1] must be an integer, not 0.5"),
    ], ids=["fraction", "string", "bool", "fractional-output"])
    def test_dimension_that_is_not_an_integer_named(self, dims, out_dims, message):
        # Accepted: [2.7] and [True] were read as (2,) and (1,), '2' as 2.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_partition(dims, out_dims)

    @pytest.mark.parametrize("dims, out_dims, message", [
        (2.0, [1], "dims must be a list of integers, not 2.0"),
        ([2], "1", "out_dims must be a list of integers, not '1'"),
        ([2 ** 70], [1], f"dims and out_dims must sum to at most {np.iinfo(np.intp).max}"),
    ], ids=["number", "string", "beyond-arrays"])
    def test_dimensions_that_are_not_a_list_named(self, dims, out_dims, message):
        # Accepted, 2.0 raised a bare "'float' object is not iterable", "1"
        # was read as [1] and 2**70 failed later in NumPy.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_partition(dims, out_dims)

    def test_numpy_integer_dimensions_are_python_ints(self):
        p = make_partition(np.array([2, 3]), np.array([1, 0], dtype=np.uint8))
        assert p.dims == (2, 3) and p.out_dims == (1, 0)
        assert all(type(d) is int for d in p.dims + p.out_dims)

    def test_split_and_stack_roundtrip(self):
        p = make_partition([2, 3], [1, 0])
        x = np.arange(5.0)
        blocks = p.split_state(x)
        assert np.array_equal(blocks[0], [0.0, 1.0])
        assert np.array_equal(blocks[1], [2.0, 3.0, 4.0])
        assert np.array_equal(p.stack(blocks), x)


    def test_groups_by_dimension_once(self):
        p = make_partition([2, 1, 3, 1, 2], [1, 1, 2, 0, 1])
        groups = p.groups
        assert [m.tolist() for m, _ in groups] == [[1, 3], [0, 4], [2]]
        assert [idx.tolist() for _, idx in groups] == [[[2], [6]], [[0, 1], [7, 8]],
                                                       [[3, 4, 5]]]
        assert p.groups is groups
        assert not any(a.flags.writeable for g in groups for a in g)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", ["A", "C", "coupling block to 1"])
    def test_non_finite_block_rejected_by_name(self, name, bad):
        # Accepted, such a block failed only in the filter, with an
        # anonymous "array must not contain infs or NaNs".
        blocks = {"A": 0.5 * np.eye(2), "C": np.ones((1, 2)),
                  "coupling block to 1": 0.1 * np.ones((2, 2))}
        blocks[name] = blocks[name].copy()
        blocks[name][0, -1] = bad
        with pytest.raises(ValueError, match=f"^subsystem 0: {name} must be finite$"):
            LinearSubsystem(0, blocks["A"], {1: blocks["coupling block to 1"]},
                            blocks["C"], np.eye(2), np.eye(1))

    def test_self_coupling_under_a_string_key_rejected(self):
        # "0" names subsystem 0 as much as 0 does; accepted, its block would
        # overwrite the own block A[0, 0] on assembly.
        one = np.eye(1)
        with pytest.raises(ValueError, match="^subsystem 0: self-coupling must go in A$"):
            LinearSubsystem(0, 0.5 * one, {"0": 9.0 * one, 1: 0.1 * one}, one, one, one)

    @pytest.mark.parametrize("key", [1.7, True, "x", "1.7", "1_0", " 1", "-1"], ids=repr)
    def test_coupling_key_that_is_not_an_index_rejected_by_name(self, key):
        # Accepted, 1.7 and True built a coupling to neighbor 1 and "1_0" to
        # neighbor 10; "x" and "1.7" raised a bare "invalid literal for int()".
        one = np.eye(1)
        with pytest.raises(ValueError, match=re.escape(
                f"subsystem 0: coupling key must be an integer, not {key!r}")):
            LinearSubsystem(0, 0.5 * one, {key: 0.1 * one}, one, one, one)

    @pytest.mark.parametrize("index", ["a", 1.5, True], ids=repr)
    def test_index_that_is_not_an_integer_rejected_by_name(self, index):
        # Accepted, "a" and 1.5 built a subsystem of that index.
        one = np.eye(1)
        with pytest.raises(ValueError, match=re.escape(
                f"subsystem index must be an integer, not {index!r}")):
            LinearSubsystem(index, 0.5 * one, {}, one, one, one)

    def test_neighbor_given_twice_rejected(self):
        # Accepted, the last block under key 1 would win: coupling {1: [[0.2]]}.
        one = np.eye(1)
        with pytest.raises(ValueError, match="^subsystem 0: neighbor 1 is given twice$"):
            LinearSubsystem(0, 0.5 * one, {1: 0.1 * one, "1": 0.2 * one}, one, one, one)

    def test_affine_maps_and_their_jacobians(self):
        sub = LinearSubsystem(1, np.eye(2), {0: np.ones((2, 3)), 2: np.ones((2, 1))},
                              np.ones((1, 2)), np.eye(2), np.eye(1))
        x, nbrs = np.array([1.0, -2.0]), {0: np.arange(3.0), 2: np.array([4.0])}
        assert np.array_equal(sub.f(x, nbrs), x + np.full(2, 3.0) + np.full(2, 4.0))
        assert np.array_equal(sub.h(x), [-1.0])
        # The Jacobians are the subsystem's own read-only blocks, not copies.
        jac = sub.jac_f(x, nbrs)
        assert list(jac) == [1, 0, 2] and jac[1] is sub.A
        assert all(jac[l] is sub.coupling[l] for l in (0, 2))
        assert sub.jac_h(x) is sub.C and not sub.C.flags.writeable
        assert sub.state_box is None

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

    def test_column_blocks_built_once_and_read_only(self):
        model = assemble_global(linear_subsystems(), make_partition([2, 2], [1, 1]))
        for i, sl in enumerate((slice(0, 2), slice(2, 4))):
            assert model.a_col(i) is model.a_col(i)
            assert model.c_col(i) is model.c_col(i)
            assert np.array_equal(model.a_col(i), model.A[:, sl])
            assert np.array_equal(model.c_col(i), model.C[:, sl])
            for block in (model.a_col(i), model.c_col(i)):
                assert block.flags.c_contiguous and not block.flags.writeable

    def test_column_blocks_need_a_linear_model(self):
        model = get_benchmark("reactor-chain").model
        with pytest.raises(ValueError, match="a_col is only defined for linear models"):
            model.a_col(0)
        with pytest.raises(ValueError, match="c_col is only defined for linear models"):
            model.c_col(0)


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

    def test_linear_subsystems_linearize_to_the_assembled_matrices(self):
        model = assemble_global(linear_subsystems(), make_partition([2, 2], [1, 1]))
        for x in (np.zeros(4), np.array([3.0, -1.0, 0.5, 20.0])):
            blocks = linearize(linear_subsystems(), x, mode="analytic")
            assert np.array_equal(blocks.A, model.A)
            assert np.array_equal(blocks.C, model.C)

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

    @pytest.mark.parametrize("mode", ["analytic", "fd"])
    def test_non_real_values_name_subsystem_and_map(self, mode):
        # Accepted, a complex Jacobian entry was cut to its real part.
        subs = reactor_subsystems()
        good = subs[3]
        fault = (dict(jac_f=lambda x, n: {**good.jac_f(x, n), 3: 1j * np.eye(2)})
                 if mode == "analytic" else dict(f=lambda x, n: good.f(x, n) + 0j))
        subs[3] = dataclasses.replace(good, jacobian_check_samples=(), stacked=False, **fault)
        what = "jac_f block 3" if mode == "analytic" else "f"
        with pytest.raises(LinearizationError, match=f"^subsystem 3: {what} returned "
                           "complex128 values, expected real numbers$") as err:
            linearize(subs, REACTOR_STEADY, mode=mode)
        assert err.value.subsystem == 3

    def test_nonfinite_point_rejected(self):
        subs = [linear_as_nonlinear(s) for s in linear_subsystems()]
        with pytest.raises(ValueError):
            linearize(subs, np.array([np.inf, 0, 0, 0]), mode="analytic")

    def test_subsystem_given_twice_rejected(self):
        s0, _, s2, s3 = reactor_subsystems()
        with pytest.raises(ValueError, match="subsystem indices must cover 0..n-1 exactly once"):
            linearize([s0, s0, s2, s3], REACTOR_STEADY)

    def test_indices_not_starting_at_zero_rejected(self):
        with pytest.raises(ValueError, match="subsystem indices must cover 0..n-1 exactly once"):
            linearize(reactor_subsystems()[1:], REACTOR_STEADY[2:])

    @pytest.mark.parametrize("mode", ["analytic", "fd"])
    def test_unknown_neighbor_rejected(self, mode):
        sub = NonlinearSubsystem(index=0, state_dim=2, out_dim=1, neighbor_dims={3: 2},
                                 f=lambda x, nbrs: x, h=lambda x: x[:1],
                                 Q=np.eye(2), R=np.eye(1),
                                 jac_f=lambda x, nbrs: {0: np.eye(2), 3: np.zeros((2, 2))},
                                 jac_h=lambda x: np.eye(1, 2))
        with pytest.raises(ValueError, match="^subsystem 0: unknown neighbor 3$"):
            linearize([sub], np.zeros(2), mode=mode)


def _reference_spd_solve(m, b, error):
    """The SPD solve through SciPy's checked Cholesky routines."""
    try:
        factor = cho_factor(_sym(m))
    except np.linalg.LinAlgError as exc:
        raise error from exc
    return cho_solve(factor, b)


def _use_reference(monkeypatch) -> list:
    """Route the filters' factorization of ``R`` and their solves against
    it, and the oracles' SPD solves, through the SciPy reference; returns
    the list that counts the reference calls."""
    calls = []

    def solve(m, b, error):
        calls.append(1)
        return _reference_spd_solve(m, b, error)

    def factor(m, error):
        calls.append(1)
        try:
            return cho_factor(_sym(m))
        except np.linalg.LinAlgError as exc:
            raise error from exc

    def factor_solve(c, b):
        calls.append(1)
        return cho_solve(c, b)
    monkeypatch.setattr(partkf.fie, "_spd_solve", solve)
    monkeypatch.setattr(partkf.dkf, "_spd_factor", factor)
    monkeypatch.setattr(partkf.dkf, "_factor_solve", factor_solve)
    return calls


def _spd(n, seed):
    """A random SPD matrix of size ``n`` that is not exactly symmetric."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n) + 1e-9 * rng.normal(size=(n, n))


class TestSpdSolve:
    @pytest.mark.parametrize("n", [1, 2, 8, 64])
    @pytest.mark.parametrize("rhs", [(), (3,)], ids=["1d", "2d"])
    def test_equals_the_scipy_reference_bitwise(self, n, rhs):
        m = _spd(n, seed=n)
        b = np.random.default_rng(n + 1).normal(size=(n, *rhs))
        got = _spd_solve(m, b, RuntimeError("not SPD"))
        want = _reference_spd_solve(m, b, RuntimeError("not SPD"))
        assert got.shape == want.shape == b.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("rhs", [(0,), (0, 3)], ids=["1d", "2d"])
    def test_empty_system_gives_an_empty_solution(self, rhs):
        b = np.zeros(rhs)
        got = _spd_solve(np.zeros((0, 0)), b, RuntimeError("not SPD"))
        want = _reference_spd_solve(np.zeros((0, 0)), b, RuntimeError("not SPD"))
        assert got.shape == want.shape == rhs and got.dtype == want.dtype

    def test_not_positive_definite_raises_the_callers_error(self):
        m = np.diag([1.0, -1.0])
        with pytest.raises(KeyError, match="mine") as err:
            _spd_solve(m, np.ones(2), KeyError("mine"))
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)
        assert str(err.value.__cause__).startswith("2-th leading minor")

    @pytest.mark.parametrize("where", ["m", "b"])
    def test_non_finite_input_raises_value_error(self, where):
        m, b = _spd(3, seed=0), np.ones((3, 2))
        {"m": m, "b": b}[where][1, 0] = np.nan
        with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
            _spd_solve(m, b, RuntimeError("not SPD"))

    def test_solve_against_one_factor_matches_a_solve_per_column(self):
        m = _spd(8, seed=3)
        b = np.random.default_rng(4).normal(size=(8, 12))
        c = _spd_factor(m, RuntimeError("not SPD"))
        whole = _factor_solve(c, b)
        assert np.array_equal(whole, _spd_solve(m, b, RuntimeError("not SPD")))
        for j in range(0, 12, 3):
            assert np.array_equal(_factor_solve(c, b[:, j:j + 3]), whole[:, j:j + 3])

    def test_not_posdef_names_the_first_failing_matrix(self):
        stack = np.stack([np.eye(2), np.diag([1.0, -1.0]), -np.eye(2)])
        assert _not_posdef(stack) == 1
        assert _not_posdef(stack[[0, 0]]) is None

    def test_not_semidefinite_allows_rounding_below_zero(self):
        # The tolerance is relative to the largest eigenvalue magnitude.
        stack = np.stack([np.diag([1.0, 0.0]), np.diag([4.0, -1e-12]),
                          np.diag([4.0, -1e-11]), -np.eye(2)])
        assert _not_semidefinite(stack) == 2
        assert _not_semidefinite(stack[[0, 1]]) is None
        assert _not_semidefinite(np.zeros((1, 3, 3))) is None

    def test_singular_lu_solve_raises_the_callers_error(self):
        a = np.stack([np.eye(2), np.zeros((2, 2))])
        with pytest.raises(KeyError, match="mine") as err:
            _solve(a, np.ones((2, 2, 1)), KeyError("mine"))
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)
        assert np.array_equal(_solve(a[:1], np.ones((1, 2, 1)), KeyError("mine")),
                              np.ones((1, 2, 1)))

    @pytest.mark.parametrize("name, run", [("linear-4state", run_dkf),
                                           ("reactor-chain", run_dekf)])
    def test_filters_match_the_reference_run_bitwise(self, name, run, monkeypatch):
        bench = get_benchmark(name)
        traj = simulate(bench.model, bench.x0, 20, bench.noise(seed=3))
        fast = run(bench.model, bench.design, traj)
        calls = _use_reference(monkeypatch)
        slow = run(bench.model, bench.design, traj)
        assert calls
        assert fast.content_digest() == slow.content_digest()
        assert np.array_equal(fast.xhat_post, slow.xhat_post)
        for field in ("gains", "covs"):
            for mine, theirs in zip(getattr(fast, field), getattr(slow, field)):
                assert all(np.array_equal(a, b) for a, b in zip(mine, theirs))

    def test_distributed_oracle_matches_the_reference_run_bitwise(self, monkeypatch):
        bench = get_benchmark("linear-4state")
        traj = simulate(bench.model, bench.x0, 2, bench.noise(seed=3))
        fast = run_dfie(bench.model, bench.design, traj.ys, 2)
        calls = _use_reference(monkeypatch)
        slow = run_dfie(bench.model, bench.design, traj.ys, 2)
        assert calls
        assert np.array_equal(fast.terminals, slow.terminals)
        assert fast.max_kkt_residual == slow.max_kkt_residual
        for mine, theirs in zip(fast.solutions, slow.solutions):
            for a, b in zip(mine, theirs):
                assert np.array_equal(a.states, b.states) and a.objective == b.objective


class TestMonolithic:
    @pytest.mark.parametrize("name", ["linear-4state", "reactor-chain"])
    def test_keeps_the_weights_and_the_state_box(self, name):
        model = get_benchmark(name).model
        mono = _monolithic(model)
        assert mono.partition.dims == (model.nx,)
        assert mono.partition.out_dims == (model.ny,)
        assert mono.linear == model.linear
        assert np.array_equal(mono.Q, model.Q) and np.array_equal(mono.R, model.R)
        box, mono_box = model.state_box(), mono.state_box()
        assert (box is None) == (mono_box is None)
        if box is not None:
            assert all(np.array_equal(a, b) for a, b in zip(box, mono_box))
        if model.linear:
            assert np.array_equal(mono.A, model.A) and np.array_equal(mono.C, model.C)

    def test_nonlinear_view_evaluates_the_stacked_maps(self):
        model = get_benchmark("reactor-chain").model
        sub = _monolithic(model).subsystems[0]
        x = REACTOR_STEADY + 0.5
        blocks = linearize(model.subsystems, x, mode="analytic")
        assert np.array_equal(sub.f(x, {}), model.f(x))
        assert np.array_equal(sub.h(x), model.h(x))
        assert np.array_equal(sub.jac_f(x, {})[0], blocks.A)
        assert np.array_equal(sub.jac_h(x), blocks.C)

    def test_subsystem_without_providers_falls_back_to_fd(self):
        subs = reactor_subsystems()
        subs[2] = dataclasses.replace(subs[2], jac_f=None, jac_h=None,
                                      jacobian_check_samples=(), stacked=False)
        model = aggregate_nonlinear(subs, make_partition([2] * 4, [2] * 4))
        sub = _monolithic(model).subsystems[0]
        x = REACTOR_STEADY + 0.5
        analytic = linearize(reactor_subsystems(), x, mode="analytic")
        fd = linearize(subs, x, mode="fd")
        A, C = sub.jac_f(x, {})[0], sub.jac_h(x)
        rows = slice(4, 6)
        assert np.array_equal(A[rows], fd.A[rows]) and np.array_equal(C[rows], fd.C[rows])
        others = np.r_[0:4, 6:8]
        assert np.array_equal(A[others], analytic.A[others])
        assert np.array_equal(C[others], analytic.C[others])
        assert not np.array_equal(A[rows], analytic.A[rows])


class TestNonlinearSubsystem:
    def test_constructor_spot_check_accepts_correct_jacobians(self):
        reactor_subsystems()  # jacobian_check_samples are verified on build

    def test_spot_check_samples_are_read_only_float_copies(self):
        subs = get_benchmark("reactor-chain").model.subsystems
        for sub in subs:
            assert len(sub.jacobian_check_samples) == 2
            for x_i, nbrs in sub.jacobian_check_samples:
                assert set(nbrs) == set(sub.neighbors)
                for a in (x_i, *nbrs.values()):
                    assert a.dtype == float and not a.flags.writeable
        # Copies: the caller's sample may change, the stored one does not.
        good = subs[1]
        x_i = np.array([311, 3])
        kept = dataclasses.replace(good, jacobian_check_samples=[(x_i, {0: [310.0, 3.0]})],
                                  stacked=False)
        x_i[0] = 0
        assert kept.jacobian_check_samples[0][0].tolist() == [311.0, 3.0]

    def test_spot_check_runs_on_the_stored_samples(self):
        good = reactor_subsystems()[1]
        calls = []

        def jac_h(x):
            calls.append(x)
            return good.jac_h(x)

        dataclasses.replace(good, jac_h=jac_h, stacked=False)
        assert [x.tolist() for x in calls] == [
            x_i.tolist() for x_i, _ in good.jacobian_check_samples]
        assert all(not x.flags.writeable for x in calls)

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

    @pytest.mark.parametrize("bad, message", [
        (lambda b: np.full_like(b, np.nan), "returned a non-finite value"),
        (lambda b: np.zeros((1, 2)), "returned shape (1, 2), expected (2, 2)"),
        (lambda b: b + 0j, "returned complex128 values, expected real numbers"),
    ], ids=["nan", "shape", "complex"])
    @pytest.mark.parametrize("block", [2, 1], ids=["own", "neighbor"])
    def test_constructor_spot_check_names_a_bad_block(self, block, bad, message):
        good = reactor_subsystems()[2]

        def jac_f(x, nbrs):
            blocks = dict(good.jac_f(x, nbrs))
            blocks[block] = bad(blocks[block])
            return blocks

        with pytest.raises(LinearizationError, match="^" + re.escape(
                f"subsystem 2: jac_f block {block} {message}") + "$") as err:
            dataclasses.replace(good, jac_f=jac_f)
        assert err.value.subsystem == 2

    def test_own_index_as_neighbor_rejected(self):
        # Accepted, the neighbor block would overwrite the own block of the
        # dynamics Jacobian: 0.1 where df/dx is 0.6.
        one = np.eye(1)
        with pytest.raises(ValueError, match="^subsystem 0: neighbor_dims must not "
                           "list the subsystem itself$"):
            NonlinearSubsystem(index=0, state_dim=1, out_dim=1, neighbor_dims={0: 1},
                               f=lambda x, nb: 0.5 * x + 0.1 * nb[0], h=lambda x: x,
                               Q=one, R=one)

    @pytest.mark.parametrize("out_dim, Q, R, message", [
        (1, np.eye(2), np.eye(3), "^subsystem 0: R must match the output dimension 1$"),
        (0, np.eye(2), np.eye(1), "^subsystem 0: R must match the output dimension 0$"),
        (0, np.eye(2), [[np.nan]], "^subsystem 0: R must be finite$"),
        (1, np.eye(3), np.eye(1), "^subsystem 0: Q must be 2x2$"),
    ], ids=["R-too-large", "R-without-outputs", "R-not-finite-without-outputs", "Q-size"])
    def test_weights_must_match_the_dimensions(self, out_dim, Q, R, message):
        # Accepted, a wrong R failed only on aggregation, with NumPy's
        # broadcast error naming no subsystem, or not at all without outputs.
        with pytest.raises(ValueError, match=message):
            NonlinearSubsystem(index=0, state_dim=2, out_dim=out_dim, neighbor_dims={},
                               f=lambda x, nb: x, h=lambda x: x[:out_dim], Q=Q, R=R)

    @pytest.mark.parametrize("field, value, message", [
        ("index", "a", "subsystem index must be an integer, not 'a'"),
        ("state_dim", True, "subsystem 0: state_dim must be an integer, not True"),
        ("out_dim", "1", "subsystem 0: out_dim must be an integer, not '1'"),
        ("neighbor_dims", {1: 1.7}, "subsystem 0: neighbor_dims[1] must be an integer, not 1.7"),
        ("neighbor_dims", {1.7: 1}, "subsystem 0: neighbor_dims key must be an integer, not 1.7"),
        ("neighbor_dims", [1], "subsystem 0: neighbor_dims must map neighbor indices, not [1]"),
    ], ids=["index", "state_dim", "out_dim", "neighbor-dimension", "neighbor-key",
            "neighbor-list"])
    def test_integer_field_that_is_not_an_integer_rejected_by_name(self, field, value,
                                                                   message):
        # Accepted, state_dim true built a one-state subsystem, {1: 1.7} and
        # {1.7: 1} a neighbor 1 of dimension 1; out_dim '1' raised a bare
        # TypeError and a list a bare AttributeError.
        fields = dict(index=0, state_dim=1, out_dim=1, neighbor_dims={1: 1},
                      f=lambda x, nb: x, h=lambda x: x, Q=np.eye(1), R=np.eye(1))
        fields[field] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            NonlinearSubsystem(**fields)

    def test_subsystem_without_outputs_takes_an_empty_R(self):
        sub = NonlinearSubsystem(index=0, state_dim=2, out_dim=0, neighbor_dims={},
                                 f=lambda x, nb: x, h=lambda x: x[:0], Q=np.eye(2),
                                 R=np.zeros((0, 0)))
        model = aggregate_nonlinear([sub], make_partition([2], [0]))
        assert model.R.shape == (0, 0)

    @pytest.mark.parametrize("size", [3, 100], ids=["small", "large"])
    def test_finite_values_whose_sum_overflows_are_finite(self, size):
        # The finiteness check reads a result's sum first; a sum that
        # overflows must lead to the term-by-term test, not to an error.
        big = np.zeros(size)
        big[:2] = 1e308
        for value, ok in ((big, True), (np.r_[big[:-1], np.inf], False),
                          (np.r_[big[:-1], np.nan], False)):
            sub = NonlinearSubsystem(index=0, state_dim=size, out_dim=1, neighbor_dims={},
                                     f=lambda x, nb, v=value: v, h=lambda x: x[:1],
                                     Q=np.eye(size), R=np.eye(1))
            model = aggregate_nonlinear([sub], make_partition([size], [1]))
            if ok:
                assert np.array_equal(model.f(np.zeros(size)), big)
            else:
                with pytest.raises(LinearizationError, match="^subsystem 0: f returned "
                                   "a non-finite value$"):
                    model.f(np.zeros(size))

    def test_a_finite_value_beyond_float_range_is_non_finite_as_written(self):
        # A long double result passes the real-dtype check; what is checked
        # for finiteness is the float it is written as.
        value = np.array([1.0, np.longdouble("1e400")], dtype=np.longdouble)
        assert np.isfinite(value).all() and value[1] > np.finfo(float).max
        sub = NonlinearSubsystem(index=0, state_dim=2, out_dim=1, neighbor_dims={},
                                 f=lambda x, nb: value, h=lambda x: x[:1],
                                 Q=np.eye(2), R=np.eye(1))
        model = aggregate_nonlinear([sub], make_partition([2], [1]))
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(
                LinearizationError, match="^subsystem 0: f returned a non-finite value$"):
            model.f(np.zeros(2))

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
