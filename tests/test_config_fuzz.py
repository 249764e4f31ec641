"""Fuzzing of experiment configs: a mutated config is either rejected with a
ConfigError or a CapacityError or describes a run whose components can be
built (a single family is one component), and the CLI runs it to exit 0, 2
or 3."""

import contextlib
import copy
import csv
import io
import json
import os
import tempfile
from math import sqrt

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import focklab as fl
from focklab.cli import main
from focklab.harness import CSV_HEADER, _superposition_spec

_C = 1 / sqrt(2)
_E0, _E1 = [[1, 0], [0, 0]], [[0, 0], [1, 0]]
_PHI3 = [[0.6, 0], [0, 0.8], [0, 0]]
_DENSE = {"geometry": "dense", "h": [[0, -1], [-1, 0]], "v": [[1, 0], [0, 1]]}
_LATTICE = {"geometry": "lattice", "sites": 3, "hopping": 1.0,
            "potential": {"kind": "gaussian", "g": 1.0, "sigma": 0.5}}


def _doc(mode_system, state, n_list=(4, 6)):
    return {"mode_system": mode_system, "state": state, "n_list": list(n_list),
            "t_list": [0.0, 0.5], "tolerances": {"hartree_tol": 1e-12},
            "seed": 3, "output": {"dir": "out", "format": "csv"}}


def _components(phis, ms=None):
    comps = [{"phi": phi, "coeff": [_C, 0]} for phi in phis]
    for i, (comp, m) in enumerate(zip(comps, ms or ())):
        comp.update(m=m, excitation_seed=i)
    return comps


VALID = [
    _doc(_DENSE, {"family": "theta", "phi": _E0, "m": 1, "excitation_seed": 0}),
    _doc(_LATTICE, {"family": "coherent", "phi": _PHI3}),
    _doc(_DENSE, {"family": "superposition", "kind": "product",
                  "components": _components([_E0, [[_C, 0], [_C, 0]]])}),
    _doc(_DENSE, {"family": "superposition", "kind": "theta",
                  "components": _components([_E0, _E1],
                                            [0, {"schedule": "log", "a": 0.4}])},
         n_list=(6, 20)),
    _doc(_LATTICE, {"family": "superposition", "kind": "coherent",
                    "components": _components([_PHI3, [[0, 0], [0.6, 0], [0, 0.8]]])}),
]

scalars = (st.none() | st.booleans() | st.integers(-3, 40)
           | st.sampled_from([0.0, 0.5, 1.0, -1.0, 1e-300, 1e300])
           | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4))
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10,
)


def _paths(node, prefix=()):
    """Every (container path, key) in the document below the root."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix, key
        if isinstance(child, (dict, list)) and child:
            yield from _paths(child, prefix + (key,))


@st.composite
def mutated_configs(draw):
    doc = copy.deepcopy(draw(st.sampled_from(VALID)))
    for _ in range(draw(st.integers(1, 3))):
        prefix, key = draw(st.sampled_from(list(_paths(doc))))
        parent = doc
        for k in prefix:
            parent = parent[k]
        action = draw(st.sampled_from(["replace", "replace", "delete", "add"]))
        if action == "delete":
            del parent[key]
        elif action == "add" and isinstance(parent, dict):
            parent[draw(st.text(max_size=6))] = draw(values)
        elif action == "add":
            parent.append(draw(values))
        else:
            parent[key] = draw(values)
        if not doc:
            break
    return doc


@pytest.mark.parametrize("doc", VALID)
def test_unmutated_configs_are_valid(doc):
    fl.ExperimentConfig.from_dict(copy.deepcopy(doc))


# a mutation hypothesis found: a huge h_00 makes |t r| = 1e4 at n = 6, which the
# time guard refuses with a CapacityError (exit 3)
_HUGE_H = _doc(dict(_DENSE, h=[[3332.0, -1], [-1, 0]]), copy.deepcopy(VALID[0]["state"]))
# and a mean-field tolerance of 1, which used to pass the parser and then fail
# the run (exit 1) on a norm drift of 3.7e-7
_LOOSE_HARTREE = dict(copy.deepcopy(VALID[1]), tolerances={"hartree_tol": 1})


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated_configs())
@example(doc=_HUGE_H)
def test_mutated_config_is_rejected_or_buildable(doc):
    try:
        cfg = fl.ExperimentConfig.from_dict(doc)
    except (fl.ConfigError, fl.CapacityError):
        return
    _superposition_spec(cfg, cfg.n_list[0], {})


def _end_to_end(test):
    """The unmutated configs as explicit examples, so that the sweeps run
    (nearly every mutation is a config error)."""
    for doc in VALID:
        family = doc["state"]["family"]
        test = example(doc=doc, command="superpose" if family == "superposition"
                       else "converge")(test)
    return test


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(doc=mutated_configs(), command=st.sampled_from(["converge", "superpose"]))
@_end_to_end
@example(doc=_HUGE_H, command="converge")
@example(doc=_LOOSE_HARTREE, command="converge")
def test_mutated_config_runs_end_to_end_or_exits_cleanly(doc, command):
    # the whole CLI on a mutated config: 0 with the bit-exact header, 2 for a
    # config error or 3 for a capacity error, never 1 or a traceback
    try:
        cfg = fl.ExperimentConfig.from_dict(copy.deepcopy(doc))
    except (fl.ConfigError, fl.CapacityError):
        pass
    else:  # keep the cells cheap
        assume(max(cfg.n_list) <= 6 and cfg.ms.d <= 3
               and max(abs(t) for t in cfg.t_list) <= 2)
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--config", path, "--out", out, "--format", "csv"])
        assert code in (0, 2, 3)
        if code == 0:
            stem = "convergence" if command == "converge" else "superposition"
            with open(os.path.join(out, f"{stem}.csv"), encoding="utf-8") as fh:
                assert next(csv.reader(fh)) == CSV_HEADER
