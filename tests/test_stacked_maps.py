"""Stacked subsystem maps: a subsystem flagged ``stacked`` has each map
called once per instant for a whole batch of runs, its rows the bits of the
per-point calls; a flagged map that mixes rows is found at construction and
called per point."""

import dataclasses
import itertools

import numpy as np
import pytest

import partkf.benchmarks
import partkf.dekf
import partkf.harness
import partkf.model
from partkf.analysis import monte_carlo
from partkf.benchmarks import (
    REACTOR_BOX_C,
    REACTOR_BOX_T,
    REACTOR_C_SENSOR,
    REACTOR_NEIGHBORS,
    get_benchmark,
    reactor_subsystems,
)
from partkf.harness import ExperimentConfig, run_experiment
from partkf.model import (LinearizationError, NonlinearSubsystem, aggregate_nonlinear,
                          make_partition)

from conftest import assert_same_ensemble, count_calls, per_run_ensemble

REACTOR = ExperimentConfig(model={"name": "reactor-chain"}, steps=5, seed=3, monitors=False)

#: Seeded points of the state box: per reactor unit, its own block and its
#: neighbors' blocks, uniform in temperature and concentration.
POINTS = 10_000


def _box_points(rng, count: int) -> np.ndarray:
    return np.column_stack([rng.uniform(*REACTOR_BOX_T, count),
                            rng.uniform(*REACTOR_BOX_C, count)])


def _unit_points(i: int) -> tuple[np.ndarray, dict]:
    rng = np.random.default_rng(100 + i)
    return _box_points(rng, POINTS), {l: _box_points(rng, POINTS) for l in REACTOR_NEIGHBORS[i]}


def _per_point(sub, name: str, x: np.ndarray, nbrs: dict) -> list[np.ndarray]:
    """The results of map ``name`` of ``sub`` called point by point,
    stacked: per ``jac_f`` block, or one array."""
    fn = getattr(sub, name)
    if name in ("h", "jac_h"):
        return [np.array([fn(x_r) for x_r in x])]
    got = [fn(x_r, {l: v[r] for l, v in nbrs.items()}) for r, x_r in enumerate(x)]
    if name == "f":
        return [np.array(got)]
    return [np.array([g[l] for g in got]) for l in (sub.index, *sub.neighbors)]


def _stacked(sub, name: str, x: np.ndarray, nbrs: dict) -> list[np.ndarray]:
    """The results of one call of map ``name`` of ``sub`` on the stack."""
    got = getattr(sub, name)(*((x, nbrs) if name in ("f", "jac_f") else (x,)))
    return ([np.asarray(got[l]) for l in (sub.index, *sub.neighbors)] if name == "jac_f"
            else [np.asarray(got)])


def _same_bits(a: list, b: list) -> bool:
    return all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in zip(a, b, strict=True))


MAPS = ("f", "h", "jac_f", "jac_h")


class TestReactorMaps:
    """The reactor's four maps give a stack of points the bits of their
    per-point calls, at 10,000 seeded points of the box per unit."""

    @pytest.fixture(scope="class")
    def reference(self):
        out = {}
        for sub in reactor_subsystems():
            x, nbrs = _unit_points(sub.index)
            out[sub.index] = sub, x, nbrs, {name: _per_point(sub, name, x, nbrs)
                                            for name in MAPS}
        return out

    def test_every_unit_is_stacked(self):
        assert all(sub.stacked for sub in reactor_subsystems())

    @pytest.mark.parametrize("name", MAPS)
    def test_a_stack_has_the_bits_of_its_points(self, reference, name):
        for sub, x, nbrs, want in reference.values():
            assert _same_bits(_stacked(sub, name, x, nbrs), want[name]), (sub.index, name)

    @pytest.mark.parametrize("name", MAPS)
    def test_a_stack_of_two_axes_has_the_bits_of_its_points(self, reference, name):
        # (runs, members, d): the stack's axes stay in their order.
        for sub, x, nbrs, want in reference.values():
            shape = (100, POINTS // 100)
            got = _stacked(sub, name, x.reshape(shape + (2,)),
                           {l: v.reshape(shape + (2,)) for l, v in nbrs.items()})
            assert _same_bits([g.reshape((POINTS,) + g.shape[2:]) for g in got],
                              want[name]), (sub.index, name)

    def test_an_array_square_fails_the_bit_check(self, reference, monkeypatch):
        # Negative control: an array's ``** 2`` is ``z * z``, not libm pow.
        monkeypatch.setattr(partkf.benchmarks, "_squared", lambda z: z ** 2)
        differs = [not _same_bits(_stacked(sub, "jac_f", x, nbrs), want["jac_f"])
                   for sub, x, nbrs, want in reference.values()]
        assert all(differs)


def _rebuilt(monkeypatch, i: int, **maps) -> ExperimentConfig:
    """REACTOR with unit ``i`` built anew with ``maps`` (its other fields,
    the stacked flag and the check samples kept), registered under a name
    of its own."""
    bench = get_benchmark("reactor-chain")
    subs = list(bench.model.subsystems)
    subs[i] = dataclasses.replace(subs[i], **maps)
    model = aggregate_nonlinear(subs, bench.model.partition)
    built = dataclasses.replace(bench, model=model)
    monkeypatch.setitem(partkf.benchmarks._REGISTRY, "test-reactor", lambda: built)
    return REACTOR.replace(model={"name": "test-reactor"}, steps=20)


class TestFallback:
    """A flagged map that mixes the rows of a stack fails the construction
    check and is called per point; its ensemble is the per-run path's."""

    def test_a_map_subtracting_the_batch_mean_runs_per_point(self, monkeypatch):
        f = reactor_subsystems()[1].f

        def batch_mean_f(x_i, neighbors):
            # One point is a batch of one: the term vanishes.
            return f(x_i, neighbors) + 1e-3 * (x_i - x_i.mean(axis=tuple(range(x_i.ndim - 1))))

        config = _rebuilt(monkeypatch, 1, f=batch_mean_f)
        assert not partkf.harness._resolve(config).model.subsystems[1].stacked
        result = monte_carlo(config, runs=4)
        assert_same_ensemble(result, per_run_ensemble(config, 4))
        # Per point the map is the reactor's own.
        assert_same_ensemble(result, monte_carlo(REACTOR.replace(steps=20), runs=4))

    def test_a_map_unpacking_its_point_runs_per_point(self, monkeypatch):
        def unpacking_h(x_i):
            T, c = x_i
            return np.array([T, REACTOR_C_SENSOR * c])

        config = _rebuilt(monkeypatch, 2, h=unpacking_h)
        assert not partkf.harness._resolve(config).model.subsystems[2].stacked
        # Three runs: a stacked call would raise on unpacking three rows.
        assert_same_ensemble(monte_carlo(config, runs=3), per_run_ensemble(config, 3))

    def test_a_map_that_raises_on_a_stack_runs_per_point(self):
        sub = reactor_subsystems()[0]

        def scalar_only(x_i):
            return np.array([float(x_i[0]), REACTOR_C_SENSOR * float(x_i[1])])

        assert not dataclasses.replace(sub, h=scalar_only).stacked

    def test_stacked_needs_two_check_samples(self):
        sub = reactor_subsystems()[0]
        for samples in ((), sub.jacobian_check_samples[:1]):
            with pytest.raises(ValueError, match="^subsystem 0: stacked maps need at least "
                                                 "two jacobian_check_samples$"):
                dataclasses.replace(sub, jacobian_check_samples=samples)
        assert not dataclasses.replace(sub, jacobian_check_samples=(), stacked=False).stacked

    def test_the_flag_is_true_or_false(self):
        with pytest.raises(ValueError, match="^subsystem 0: stacked must be true or false, "
                                             "not 1$"):
            dataclasses.replace(reactor_subsystems()[0], stacked=1)

    def test_an_unflagged_subsystem_is_never_stacked(self):
        sub = reactor_subsystems()[3]
        plain = NonlinearSubsystem(
            index=3, state_dim=2, out_dim=2, neighbor_dims={2: 2}, f=sub.f, h=sub.h,
            Q=sub.Q, R=sub.R, jac_f=sub.jac_f, jac_h=sub.jac_h,
            jacobian_check_samples=sub.jacobian_check_samples)
        assert not plain.stacked


def _tally(calls: list) -> dict:
    """Per ``(subsystem, map)``, the leading shapes of the points of the
    calls of the subsystem's own maps among ``calls`` of ``model._called``."""
    out = {}
    for sub, what, fn, *args in calls:
        if fn is getattr(sub, what, None):
            out.setdefault((sub.index, what), []).append(np.shape(args[0])[:-1])
    return out


def _expected(K: int, runs: int, stacked: bool) -> dict:
    """The leading shapes of one subsystem's map calls in an ensemble of
    ``runs`` at horizon ``K``: the truth calls ``f`` at instants ``0..K-1``
    and ``h`` at ``0..K``; the filter ``h`` and ``jac_h`` once at the prior
    guess, and every map at instants ``1..K``.  A stacked subsystem's call
    takes the batch, any other's one run."""
    batch = [(runs,)] if stacked else [()] * runs
    return {"f": batch * (2 * K), "h": batch * (2 * K + 1) + [()],
            "jac_f": batch * K, "jac_h": batch * K + [()]}


def _standalone_tally(monkeypatch) -> dict:
    """The :func:`_tally` of ``run_experiment`` on REACTOR: one run,
    simulation plus filter."""
    partkf.harness._resolve(REACTOR)   # the build's own checks are not counted
    calls = count_calls(monkeypatch, partkf.model, "_called")
    run_experiment(REACTOR, write_outputs=False)
    return _tally(calls)


class TestOneCallPerInstant:
    """The reactor's maps are called once per subsystem and instant for a
    whole batch, whatever the run count: a silent fallback to per-point
    calls fails here."""

    def test_a_standalone_run_calls_each_map_once_per_instant(self, monkeypatch):
        tally = _standalone_tally(monkeypatch)
        want = _expected(REACTOR.steps, 1, stacked=False)
        assert {key: len(shapes) for key, shapes in tally.items()} == {
            (i, what): len(want[what]) for i in range(4) for what in MAPS}
        assert all(shape == () for shapes in tally.values() for shape in shapes)

    def test_a_walk_that_calls_f_twice_fails_the_count(self, monkeypatch):
        # Negative control: the filter's dynamics step calls f once more.
        walk = partkf.dekf._walk

        def twice(model, x, maps, *args, **kwargs):
            if "f" in maps:
                walk(model, x, ("f",))
            return walk(model, x, maps, *args, **kwargs)

        monkeypatch.setattr(partkf.dekf, "_walk", twice)
        tally = _standalone_tally(monkeypatch)
        want = _expected(REACTOR.steps, 1, stacked=False)
        assert [len(tally[i, "f"]) for i in range(4)] == [len(want["f"]) + REACTOR.steps] * 4
        assert all(len(tally[i, what]) == len(want[what])
                   for i in range(4) for what in ("h", "jac_f", "jac_h"))

    @pytest.mark.parametrize("runs", [1, 4])
    def test_the_reactor_ensemble_calls_each_map_once_per_instant(self, monkeypatch, runs):
        partkf.harness._resolve(REACTOR)   # the build's own checks are not counted
        calls = count_calls(monkeypatch, partkf.model, "_called")
        monte_carlo(REACTOR, runs=runs)
        tally = _tally(calls)
        want = _expected(REACTOR.steps, runs, stacked=True)
        for i in range(4):
            for what in MAPS:
                assert sorted(tally[i, what]) == sorted(want[what]), (i, what)

    def test_a_mixed_model_calls_the_unflagged_subsystem_per_run(self, monkeypatch):
        config = _rebuilt(monkeypatch, 2, stacked=False).replace(steps=REACTOR.steps)
        plan = partkf.harness._resolve(config)
        assert [sub.stacked for sub in plan.model.subsystems] == [True, True, False, True]
        calls = count_calls(monkeypatch, partkf.model, "_called")
        result = monte_carlo(config, runs=4)
        tally = _tally(calls)
        for i in range(4):
            want = _expected(config.steps, 4, stacked=i != 2)
            for what in MAPS:
                assert sorted(tally[i, what]) == sorted(want[what]), (i, what)
        assert_same_ensemble(result, per_run_ensemble(config, 4))


def _mixed_model(maps: dict | None = None):
    """The reactor with unit 2 unflagged and unit 1 without providers (its
    Jacobians by central differences); ``maps``, ``{(i, name): make}``,
    replace map ``name`` of unit ``i`` by ``make`` of it."""
    subs = reactor_subsystems()
    subs[2] = dataclasses.replace(subs[2], stacked=False)
    subs[1] = dataclasses.replace(subs[1], jac_f=None, jac_h=None)
    for (i, name), fn in (maps or {}).items():
        subs[i] = dataclasses.replace(subs[i], **{name: fn(getattr(subs[i], name))})
    return aggregate_nonlinear(subs, make_partition([2] * 4, [2] * 4))


#: A point of the reactor and a stack of three runs around it.
_POINT = get_benchmark("reactor-chain").x0
_STACK = np.stack([_POINT, _POINT + 1.0, _POINT - 1.0])

#: The walks the filters, the simulation and the oracles take: maps,
#: agenda and whether the Jacobians are analytic.
WALKS = {"dynamics": (("jac_f", "f"), (3, 2, 1, 0), True),
         "output": (("jac_h", "h"), None, True),
         "simulation": (("h", "f"), None, True),
         "central": (("jac_f", "jac_h"), None, False)}

#: Per walk and point (1: one point, 2: the stack), the calls through
#: ``model._called`` on the mixed model, recorded before walks were compiled
#: into plans: subsystem, map and, for a call on the stack, ``[3]``, with
#: ``*n`` for ``n`` equal calls in a row.  Unit 1's central differences call
#: its ``f`` or ``h`` at the point and at two points per column, per run.
CALL_SEQUENCES = {
    ("dynamics", 1): "0jac_f 1f*9 2jac_f 3jac_f 3f 2f 1f 0f",
    ("dynamics", 2): "0jac_f[3] 1f*27 2jac_f*3 3jac_f[3] 3f[3] 2f*3 1f[3] 0f[3]",
    ("output", 1): "0jac_h 1h*5 2jac_h 3jac_h 0h 1h 2h 3h",
    ("output", 2): "0jac_h[3] 1h*15 2jac_h*3 3jac_h[3] 0h[3] 1h[3] 2h*3 3h[3]",
    ("simulation", 1): "0h 1h 2h 3h 0f 1f 2f 3f",
    ("simulation", 2): "0h[3] 1h[3] 2h*3 3h[3] 0f[3] 1f[3] 2f*3 3f[3]",
    ("central", 1): "0f*13 1f*9 2f*9 3f*9 0h*5 1h*5 2h*5 3h*5",
    ("central", 2): "0f*39 1f*27 2f*27 3f*27 0h*15 1h*15 2h*15 3h*15",
}


def _run_length(calls: list) -> str:
    """``calls`` of ``model._called`` in the notation of :data:`CALL_SEQUENCES`."""
    out = []
    for sub, what, fn, *args in calls:
        token = f"{sub.index}{what}{list(np.shape(args[0])[:-1]) or ''}"
        if out and out[-1][0] == token:
            out[-1][1] += 1
        else:
            out.append([token, 1])
    return " ".join(token if n == 1 else f"{token}*{n}" for token, n in out)


def _first_error(model, x, maps) -> str:
    """The message of the :class:`LinearizationError` that a walk raises."""
    with pytest.raises(LinearizationError) as err:
        partkf.model._walk(model, x, maps)
    return str(err.value)


def _hot(good, bad):
    """A map that is ``good`` but, where a point's temperature is above
    400 K (outside the check samples), ``bad`` there: per row, so that a
    stacked map stays stacked."""
    def fn(x_i, *nbrs):
        hot = np.asarray(x_i)[..., 0] > 400.0
        return bad(x_i, *nbrs) if np.any(hot) else good(x_i, *nbrs)
    return fn


def _nan_block(good):
    """``jac_f`` of unit 0 whose neighbor block 1 is NaN in the rows above
    400 K."""
    def bad(x_i, nbrs):
        blocks = good(x_i, nbrs)
        hot = (np.asarray(x_i)[..., 0] > 400.0)[..., None, None]
        return {**blocks, 1: np.where(hot, np.nan, blocks[1])}
    return _hot(good, bad)


def _raise(*args):
    raise ZeroDivisionError("boom")


class TestWalker:
    """The walk of a compiled plan makes the calls, in the order, that the
    walker made before plans, at one point and on a stack, and the first bad
    block written still names the error."""

    @pytest.mark.parametrize("point", [1, 2])
    @pytest.mark.parametrize("kind", WALKS)
    def test_the_call_sequence_is_the_recorded_one(self, monkeypatch, kind, point):
        model = _mixed_model()
        assert [sub.stacked for sub in model.subsystems] == [True, True, False, True]
        calls = count_calls(monkeypatch, partkf.model, "_called")
        partkf.model._walk(model, _POINT if point == 1 else _STACK, *WALKS[kind])
        assert _run_length(calls) == CALL_SEQUENCES[kind, point]

    #: Unit 0's neighbor block 1 of ``jac_f`` turns NaN where unit 0 is hot;
    #: then unit 3's ``f``, called after every ``jac_f``, fails where unit 3
    #: is hot.  Hot: units 0 and 3 at 420 K, in run 1 of the stack.
    FAILURES = {"raises": _raise, "wrong-shape": lambda x_i, nbrs: np.zeros(3)}

    @staticmethod
    def _hot_points():
        hot = _POINT.copy()
        hot[[0, 6]] = 420.0
        return hot, np.stack([_POINT, hot, _POINT])

    @pytest.mark.parametrize("failure", FAILURES)
    def test_a_bad_block_written_first_is_the_error(self, failure):
        fails = {(3, "f"): lambda good: _hot(good, self.FAILURES[failure])}
        model = _mixed_model({(0, "jac_f"): _nan_block, **fails})
        assert model.subsystems[0].stacked and model.subsystems[3].stacked
        for x in self._hot_points():
            assert _first_error(model, x, ("jac_f", "f")) == (
                "subsystem 0: jac_f block 1 returned a non-finite value")
        # Without the bad block the failing map is the error.
        model = _mixed_model(fails)
        for x in self._hot_points():
            assert _first_error(model, x, ("jac_f", "f")).startswith("subsystem 3: f ")

    def test_a_walker_that_does_not_test_what_it_wrote_fails(self, monkeypatch):
        # Negative control: without the finiteness tests of the walk the
        # raising map is named, not the bad block written before it.
        monkeypatch.setattr(partkf.model, "_all_finite", lambda a: True)
        model = _mixed_model({(0, "jac_f"): _nan_block,
                              (3, "f"): lambda good: _hot(good, _raise)})
        for x in self._hot_points():
            assert _first_error(model, x, ("jac_f", "f")).startswith(
                "subsystem 3: f raised ZeroDivisionError")

    def test_a_nested_list_goes_through_the_result_check(self, monkeypatch):
        as_lists = {(2, "h"): lambda good: lambda x_i: good(x_i).tolist()}
        model, want = _mixed_model(as_lists), _mixed_model()
        puts = count_calls(monkeypatch, partkf.model, "_put")
        for x in (_POINT, _STACK):
            puts.clear()
            got = partkf.model._walk(model, x, ("h",))[0]
            assert got.tobytes() == partkf.model._walk(want, x, ("h",))[0].tobytes()
            # Unit 2 is unflagged: one list per run.
            assert sum(type(args[3]) is list for args in puts) == (len(x) if x.ndim == 2 else 1)
        for bad, message in (([1.0, float("nan")], "returned a non-finite value"),
                             ([1.0, 2.0, 3.0], "returned shape (3,), expected (2,)"),
                             ([1.0, "2"], "returned <U32 values, expected real numbers")):
            model = _mixed_model({(2, "h"): lambda good, bad=bad: _hot(good, lambda x_i: bad)})
            hot = _POINT.copy()
            hot[4] = 420.0
            assert _first_error(model, hot, ("h",)) == f"subsystem 2: h {message}"

    def test_plans_are_compiled_once_and_bounded(self):
        model = _mixed_model()
        plan = model._plan(("jac_f", "f"), (3, 2, 1, 0), True)
        assert model._plan(("jac_f", "f"), (3, 2, 1, 0), True) is plan
        for order in itertools.permutations(range(4)):   # 24 agendas
            partkf.model._walk(model, _POINT, ("jac_f", "f"), list(order))
        assert len(vars(model)["_plans"]) == partkf.model._PLANS
        assert model._plan(("jac_f", "f"), (3, 2, 1, 0), True) is not plan
