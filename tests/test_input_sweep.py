"""One-field mutation sweep of partkf's inputs.

Inputs come from outside the program: inline configs, subsystem
constructors and record files.  Each case below takes a valid input, changes
one field to one value of :data:`MUTATIONS` (or deletes it) and feeds it to
the program.  The case must run, or raise ``ValueError`` or
``LinearizationError`` whose message names the field.  ``RunRecord.from_json``
may also raise its documented ``KeyError`` for a missing required field, and
a constructor Python's ``TypeError`` naming a deleted required argument.  A
value of the right kind may still break the run: a coupling of ``2**70``
makes the filter's covariance collapse.  Such a case ends in the run's own
error, a ``FilterError`` or ``SimulationError`` naming the subsystem or the
instant, and counts as run: the input passed every check.

The sweeps cover:

- every node (key, section, list entry) of a valid two-subsystem inline
  config, run through ``ExperimentConfig`` and ``run_experiment``, and its
  inline coupling keys;
- a model parameter of a registered benchmark set to each mutation and to
  the NumPy values and tuples a caller may pass, run, exported and digested;
- the arguments of ``make_partition``, ``LinearSubsystem`` and
  ``NonlinearSubsystem``, their entries and their neighbour keys;
- every field of a schema-2 record file, the keys of its estimator,
  monitors and packed block entries, and the first entry of each monitor
  flag list the CSV export reads, loaded, exported as CSV and then given
  monitors.

The negative controls swap ``model._integer`` for a bare ``int(value)``,
and the config's JSON check of model parameters for one that passes
everything, and show that the sweeps then report failing cases.
"""

import json
import math
import re
import sys
import tempfile

import numpy as np
import pytest

import partkf.harness
from partkf import analysis
from partkf.harness import ExperimentConfig, export, run_experiment
from partkf.dkf import FilterError
from partkf.model import (LinearizationError, LinearSubsystem, NonlinearSubsystem,
                          make_partition)
from partkf.records import RunRecord
from partkf.simulate import SimulationError

#: Seed of the random two-subsystem plant the sweeps start from.
SEED = 19
DELETE = object()
#: The mutation values, by name.  ``1e400`` is read as infinity, as JSON
#: readers read it.
MUTATIONS = {
    "string": "x", "null": None, "bool": True, "fraction": 1.5, "negative": -1,
    "empty-list": [], "empty-object": {}, "nan": math.nan, "overflow": float("1e400"),
    "matrix": [[1.0]], "big-integer": 2 ** 70, "deleted": DELETE,
}
#: The errors a case may raise when their message names the field.
NAMED_ERRORS = (ValueError, LinearizationError)
#: The errors of a run that the input's checks let through.
RUN_ERRORS = (FilterError, SimulationError)
#: How a message names a field whose key is not the word itself.  A
#: dimension of ``NonlinearSubsystem`` is named by the weight that is
#: checked against it.
ALIASES = {"subsystems": r"subsystems?", "index": r"ind(ex|ices)",
           "coupling": r"coupling|neighbor", "neighbor_dims": r"neighbor(_dims)?",
           "state_dim": r"state_dim|Q", "out_dim": r"out_dim|output dimension"}


def _plant(rng: np.random.Generator) -> dict:
    """A stable two-subsystem inline model: ``dims`` [2, 2], one output each."""
    subs = []
    for i in range(2):
        a = 0.8 * np.linalg.qr(rng.normal(size=(2, 2)))[0]
        subs.append({"index": i, "A": a.round(3).tolist(),
                     "coupling": {str(1 - i): (0.05 * rng.normal(size=(2, 2))).round(3).tolist()},
                     "C": [[1.0, 0.0]], "Q": [[0.01, 0.0], [0.0, 0.01]], "R": [[0.04]]})
    return {"inline": {"dims": [2, 2], "out_dims": [1, 1], "subsystems": subs}}


def base_config() -> dict:
    """A valid inline config, drawn from :data:`SEED`."""
    rng = np.random.default_rng(SEED)
    x0 = rng.normal(size=4).round(3).tolist()
    return {
        "model": _plant(rng), "steps": 3, "runs": 1, "seed": 7, "monitors": True,
        "out_dir": "out", "x0": x0,
        "noise": {"w_std": 0.1, "v_std": 0.2, "w_bound": 0.6, "v_bound": 1.2},
        "estimator": {"Q": [[[0.01, 0.0], [0.0, 0.01]]] * 2, "R": [[0.04, 0.0], [0.0, 0.04]],
                      "P0": [[[1.0, 0.0], [0.0, 1.0]]] * 2,
                      "x0_guess": [v + 0.5 for v in x0]},
    }


def paths(tree, prefix=()):
    """The path of every node below ``tree``, a dict key or a list entry."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


def _copy(tree):
    """A copy of ``tree`` whose dicts and lists are new."""
    if isinstance(tree, dict):
        return {key: _copy(value) for key, value in tree.items()}
    return [_copy(value) for value in tree] if isinstance(tree, list) else tree


def mutated(tree, path, value):
    """A copy of ``tree`` with the node at ``path`` set to ``value``, or
    deleted for :data:`DELETE`."""
    out = _copy(tree)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = _copy(value)
    return out


def rekeyed(tree, path, key):
    """A copy of ``tree`` whose mapping at ``path`` has its one key replaced
    by ``key``."""
    out = _copy(tree)
    parent = out
    for step in path:
        parent = parent[step]
    (value,) = parent.values()
    parent.clear()
    parent[key] = value
    return out


def names_field(message: str, path) -> bool:
    """Whether ``message`` names the field at ``path``: its last key."""
    key = next(k for k in reversed(path) if isinstance(k, str))
    return re.search(rf"\b({ALIASES.get(key, re.escape(key))})\b", message) is not None


def failure(case: str, path, run, deleted: bool = False) -> str | None:
    """``None`` when ``run()`` runs or raises an error naming the field at
    ``path``; else a line saying what it raised."""
    try:
        run()
    except RUN_ERRORS:
        return None
    except NAMED_ERRORS as exc:
        if names_field(str(exc), path):
            return None
        return f"{case}: {type(exc).__name__} not naming the field: {exc}"
    except TypeError as exc:
        if deleted and len(path) == 1 and f"'{path[0]}'" in str(exc):
            return None   # Python's signature check names the missing argument
        return f"{case}: bare {type(exc).__name__}: {exc}"
    except Exception as exc:
        return f"{case}: bare {type(exc).__name__}: {exc}"
    return None


def _key_values() -> dict:
    """The mutations that can be a mapping key, and the JSON text of each, as
    a key read from a file is a string."""
    keys = {f"json-{name}": json.dumps(value) for name, value in MUTATIONS.items()
            if value is not DELETE}
    keys.update({name: value for name, value in MUTATIONS.items()
                 if value is not DELETE and not isinstance(value, (list, dict))})
    keys.update({"fraction-text": "1.7", "underscore": "1_0", "word": "x"})
    return keys


def _run_config(tree: dict) -> None:
    run_experiment(ExperimentConfig(**tree))


def config_failures() -> tuple[int, list[str]]:
    """The number of config cases and the failing ones."""
    base, out, cases = base_config(), [], 0
    for path in paths(base):
        for name, value in MUTATIONS.items():
            cases += 1
            tree = mutated(base, path, value)
            out.append(failure(f"config {'.'.join(map(str, path))} = {name}", path,
                               lambda: _run_config(tree), value is DELETE))
    for j in range(2):
        path = ("model", "inline", "subsystems", j, "coupling")
        for name, key in _key_values().items():
            cases += 1
            tree = rekeyed(base, path, key)
            out.append(failure(f"config subsystem {j} coupling key {name}", path,
                               lambda: _run_config(tree)))
    return cases, [f for f in out if f]


#: Model parameter values beyond :data:`MUTATIONS`: JSON writes a NumPy
#: float64 scalar (a float), a tuple and an integer key, and none of the rest.
PARAM_VALUES = {
    **MUTATIONS, "numpy-array": np.array(0.03), "numpy-int": np.int64(3),
    "numpy-float32": np.float32(0.03), "numpy-float": np.float64(0.03), "tuple": (0.03,),
    "integer-key": {1: 0.03}, "mixed-keys": {1: 0.03, "a": 0.03},
}


def params_failures() -> tuple[int, list[str]]:
    """The number of model parameter cases and the failing ones: the
    reactor chain's ``coupling`` set to each of :data:`PARAM_VALUES`, run,
    exported and digested."""
    base = {"model": {"name": "reactor-chain", "params": {"coupling": 0.03}},
            "steps": 3, "out_dir": "out"}
    path = ("model", "params", "coupling")
    out = []
    for name, value in PARAM_VALUES.items():
        tree = mutated(base, path, value)
        out.append(failure(f"config model.params.coupling = {name}", path,
                           lambda: run_experiment(ExperimentConfig(**tree)).content_digest(),
                           value is DELETE))
    return len(PARAM_VALUES), [f for f in out if f]


def _constructors() -> dict:
    """Valid keyword arguments of each constructor, as nested lists."""
    one = [[1.0, 0.0], [0.0, 1.0]]
    return {
        "make_partition": (make_partition, {"dims": [2, 2], "out_dims": [1, 1]}),
        "LinearSubsystem": (LinearSubsystem, {
            "index": 0, "A": [[0.5, 0.1], [0.0, 0.5]], "coupling": {1: [[0.1, 0.0], [0.0, 0.1]]},
            "C": [[1.0, 0.0]], "Q": one, "R": [[1.0]]}),
        "NonlinearSubsystem": (lambda **kw: NonlinearSubsystem(
            f=lambda x, nb: x, h=lambda x: x[:1], **kw), {
            "index": 0, "state_dim": 2, "out_dim": 1, "neighbor_dims": {1: 2},
            "Q": one, "R": [[1.0]], "state_box": [[-1.0, -1.0], [1.0, 1.0]]}),
    }


def constructor_failures() -> tuple[int, list[str]]:
    """The number of constructor cases and the failing ones."""
    out, cases = [], 0
    for label, (make, base) in _constructors().items():
        for path in paths(base):
            for name, value in MUTATIONS.items():
                cases += 1
                kw = mutated(base, path, value)
                out.append(failure(f"{label} {'.'.join(map(str, path))} = {name}", path,
                                   lambda: make(**kw), value is DELETE))
        for field in ("coupling", "neighbor_dims"):
            if field in base:
                for name, key in _key_values().items():
                    cases += 1
                    kw = rekeyed(base, (field,), key)
                    out.append(failure(f"{label} {field} key {name}", (field,),
                                       lambda: make(**kw)))
    return cases, [f for f in out if f]


def base_record() -> dict:
    """A schema-2 record file of a monitored run of the base config."""
    tree = base_config()
    del tree["out_dir"]
    return json.loads(json.dumps(run_experiment(ExperimentConfig(**tree)).to_json()))


def record_failures() -> tuple[int, list[str]]:
    """The number of record cases and the failing ones: every field, the
    keys of ``estimator``, of ``monitors`` and of subsystem 0's packed block
    entries, and the first flag of ``coupling_ok`` and ``contraction_ok``
    (deleting it leaves a list one instant short)."""
    base, out, cases = base_record(), [], 0
    fields = [(key,) for key in base]
    fields += [(name, key) for name in ("estimator", "monitors") for key in base[name]]
    fields += [(name, 0, key) for name in ("gains", "a_cols", "c_cols")
               for key in base[name][0]]
    fields += [("monitors", key, 0) for key in ("coupling_ok", "contraction_ok")]
    tmp = tempfile.TemporaryDirectory()
    for path in fields:
        for name, value in MUTATIONS.items():
            cases += 1
            payload = mutated(base, path, value)

            def run():
                try:
                    record = RunRecord.from_json(payload)
                except KeyError as exc:   # a missing required field, named
                    if value is DELETE and exc.args == (path[0],):
                        return
                    raise
                export(record, "csv", tmp.name)
                analysis.attach_monitors(record)

            out.append(failure(f"record {'.'.join(map(str, path))} = {name}", path, run))
    tmp.cleanup()
    return cases, [f for f in out if f]


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    """Run in a scratch directory: the config's ``out_dir`` is relative."""
    monkeypatch.chdir(tmp_path)


def test_every_config_mutation_runs_or_names_the_field(in_tmp):
    cases, failing = config_failures()
    assert cases >= 1320
    assert failing == []


def test_every_param_value_runs_or_names_the_field(in_tmp):
    cases, failing = params_failures()
    assert cases >= 19
    assert failing == []


def test_negative_control_unchecked_params_fail_the_sweep(in_tmp, monkeypatch):
    monkeypatch.setattr(partkf.harness, "_canonical", lambda value: "")
    _, failing = params_failures()
    assert failing and all("bare TypeError" in f for f in failing), failing


def test_every_constructor_mutation_runs_or_names_the_field():
    cases, failing = constructor_failures()
    assert cases >= 200
    assert failing == []


def test_every_record_mutation_runs_or_names_the_field():
    cases, failing = record_failures()
    assert cases >= 44 * len(MUTATIONS)
    assert failing == []


def test_negative_control_bare_int_fails_the_sweeps(in_tmp, monkeypatch):
    for module in [m for name, m in sys.modules.items() if name.startswith("partkf")]:
        if hasattr(module, "_integer"):
            monkeypatch.setattr(module, "_integer", lambda name, value: int(value))
    for sweep in (config_failures, constructor_failures, record_failures):
        _, failing = sweep()
        assert failing, sweep.__name__
