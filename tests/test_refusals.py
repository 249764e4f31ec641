"""Each library refusal raises its own exception type with its own message."""

import numpy as np
import pytest
import scipy.sparse as sp

import focklab as fl


def _basis(d=2, n=2):
    return fl.enumerate_basis(d, fl.fixed(n))


def _vector(basis):
    return fl.FockVector(basis, np.eye(basis.dim)[0])


_E0, _E1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])


def _plan():
    basis = _basis()
    return fl.make_plan(fl.build_hamiltonian(fl.ModeSystem.lattice(2), 2, basis))


def _excitation_along_phi():
    # one particle in mode 0, the mode phi occupies: not orthogonal to phi
    return fl.ExcitationState(psi=_vector(_basis(2, 1)), orthogonal_to=_E0)


def _config(**changes):
    doc = {"mode_system": {"geometry": "lattice", "sites": 2,
                           "potential": {"kind": "contact", "g": 1.0}},
           "state": {"family": "superposition", "kind": "product",
                     "components": [{"phi": [[1, 0], [0, 0]], "coeff": 1},
                                    {"phi": [[0, 0], [1, 0]], "coeff": 1}]},
           "n_list": [2], "t_list": [0.5]}
    for key, value in changes.items():
        *path, last = key.split(".")
        target = doc
        for k in path:
            target = target.setdefault(k, {})
        target[last] = value
    return fl.ExperimentConfig.from_dict(doc)


_CASES = {
    "fixed-negative": (lambda: fl.fixed(-1), ValueError, "fixed sector needs n >= 0, got -1"),
    "basis-unknown-kind": (lambda: fl.enumerate_basis(2, ("band", 3)), ValueError,
                           "unknown sector kind 'band'"),
    "basis-no-modes": (lambda: fl.enumerate_basis(0, fl.fixed(1)), ValueError,
                       "need d >= 1 modes"),
    "vector-length": (lambda: fl.FockVector(_basis(), np.zeros(4)), ValueError,
                      "coefficient vector has shape (4,), basis dim 3"),
    "normalize-zero": (lambda: fl.FockVector(_basis(), np.zeros(3)).normalized(), ValueError,
                       "cannot normalize the zero vector"),
    "add-across-bases": (lambda: _vector(_basis()) + _vector(_basis(2, 3)), fl.SectorError,
                         "vectors live on different bases"),
    "operator-shape": (lambda: fl.SparseOperator(_basis(), sp.identity(4, format="csr")),
                       ValueError, "matrix shape does not match basis dimension"),
    "operator-other-basis": (
        lambda: fl.SparseOperator(_basis(), sp.identity(3, format="csr")).apply(
            _vector(_basis(2, 3))),
        fl.SectorError, "vector and operator bases differ"),
    "field-kind": (lambda: fl.field_apply("lower", _E0, _vector(_basis())), ValueError,
                   "ladder kind must be create|annihilate, got 'lower'"),
    "second-quantize-shape": (lambda: fl.second_quantize(np.eye(3), _basis()), ValueError,
                              "one-particle matrix must be 2x2"),
    "hamiltonian-d": (lambda: fl.build_hamiltonian(fl.ModeSystem.lattice(3), 2, _basis()),
                      ValueError, "mode system and basis disagree on d"),
    "evolve-other-basis": (lambda: fl.evolve_fock(_plan(), _vector(_basis(2, 3)), 0.5),
                           fl.SectorError, "vector does not live on the plan's basis"),
    "rhs-length": (lambda: fl.hartree_rhs(fl.ModeSystem.lattice(2), [1.0, 0.0, 0.0]),
                   ValueError, "phi must have length d=2"),
    "grid-not-monotone": (lambda: fl.evolve_hartree(fl.ModeSystem.lattice(2), _E0,
                                                    [0.0, 1.0, 0.5]),
                          ValueError, "t_grid must be strictly monotone"),
    "modes-none": (lambda: fl.ModeSystem(0, np.zeros((0, 0)), np.zeros((0, 0))), ValueError,
                   "mode count must be >= 1"),
    "modes-shapes": (lambda: fl.ModeSystem(2, np.eye(2), np.eye(3)), ValueError,
                     "h and v must be 2x2"),
    "modes-asymmetric-v": (lambda: fl.ModeSystem(2, np.eye(2), [[0.0, 1.0], [0.0, 0.0]]),
                           ValueError, "v must be exactly symmetric"),
    "dm-trace": (lambda: fl.OneParticleDM(np.diag([0.5, 0.4]), 0.9), ValueError,
                 "reduced density matrix does not have unit trace"),
    "distance-norm": (lambda: fl.distance(np.eye(2) / 2, np.eye(2) / 2, "nuclear"), ValueError,
                      "unknown norm 'nuclear'"),
    "mixture-count": (lambda: fl.mixed_target([1.0], [_E0, _E1]), ValueError,
                      "need one state per weight"),
    "excitation-along-phi": (_excitation_along_phi, ValueError,
                             "excitation is not first-variable orthogonal to phi"),
    "theta-method": (lambda: fl.theta_state(_E0, None, 2, "other", _basis()), ValueError,
                     "unknown construction 'other'"),
    "spec-kind": (lambda: fl.SuperpositionSpec(kind="cat", coeffs=[1, 1], phis=[_E0, _E1]),
                  ValueError, "unknown superposition kind 'cat'"),
    "spec-counts": (lambda: fl.SuperpositionSpec(kind="product", coeffs=[1], phis=[_E0, _E1]),
                    ValueError, "need one coefficient per component"),
    "spec-theta-excitations": (
        lambda: fl.SuperpositionSpec(kind="theta", coeffs=[1, 1], phis=[_E0, _E1]),
        ValueError, "theta superposition needs one excitation per component"),
    "overlap-kind": (lambda: fl.gram_overlap("cat", _E0, _E1, 2), ValueError,
                     "unknown overlap kind 'cat'"),
    "admissible-n": (lambda: fl.admissible_m(0), ValueError, "n must be >= 1"),
    "suite-level": (lambda: fl.run_invariant_suite("medium"), ValueError,
                    "level must be quick or full"),
    "config-format": (lambda: _config(**{"output.format": "xml"}), fl.ConfigError,
                      "output.format must be csv or json"),
    "config-superposition-kind": (lambda: _config(**{"state.kind": "cat"}), fl.ConfigError,
                                  "unknown superposition kind 'cat'"),
    "config-one-component": (
        lambda: _config(**{"state.components": [{"phi": [[1, 0], [0, 0]], "coeff": 1}]}),
        fl.ConfigError, "superposition needs at least 2 components"),
}


@pytest.mark.parametrize("case", _CASES)
def test_each_refusal_names_itself(case):
    call, error, message = _CASES[case]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_zeta_far_from_one_is_one():
    # the tail terms underflow to 0 and the Euler-Maclaurin loop stops early
    assert fl.zeta(300) == 1.0
