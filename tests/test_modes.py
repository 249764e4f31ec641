"""Mode-system construction and validation."""

import numpy as np
import pytest

import focklab as fl


def test_lattice_laplacian_structure():
    ms = fl.ModeSystem.lattice(4, hopping=0.5, potential=("contact", 2.0))
    assert ms.d == 4
    assert ms.h[0, 0] == pytest.approx(1.0)   # 2 * hopping on the diagonal
    assert ms.h[0, 1] == pytest.approx(-0.5)
    assert ms.h[0, 3] == pytest.approx(-0.5)  # periodic wrap
    assert ms.h[0, 2] == 0.0
    assert np.allclose(ms.v, 2.0 * np.eye(4))


def test_lattice_two_sites_periodic_double_bond():
    ms = fl.ModeSystem.lattice(2, hopping=1.0, potential=("contact", 1.0))
    assert ms.h[0, 1] == pytest.approx(-2.0)  # both neighbors are the same site


def test_lattice_neighbor_potential():
    ms = fl.ModeSystem.lattice(4, potential=("neighbor", 3.0))
    assert ms.v[0, 1] == 3.0 and ms.v[0, 3] == 3.0
    assert ms.v[0, 0] == 0.0 and ms.v[0, 2] == 0.0


def test_lattice_gaussian_potential_periodic_distance():
    ms = fl.ModeSystem.lattice(6, potential=("gaussian", 1.0, 1.0))
    assert ms.v[0, 0] == pytest.approx(1.0)
    assert ms.v[0, 5] == pytest.approx(ms.v[0, 1])  # distance 1 both ways
    assert np.array_equal(ms.v, ms.v.T)


def test_dense_symmetrizes_kernel():
    ms = fl.ModeSystem.dense(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert ms.v[0, 1] == ms.v[1, 0] == 0.5


def test_near_hermitian_h_is_stored_as_its_hermitian_part(rng):
    h = np.array([[0, -1 + 9e-13j], [-1, 0]])
    ms = fl.ModeSystem.dense(h, np.eye(2))
    assert np.array_equal(ms.h, ms.h.conj().T)
    for n in (4, 40):
        dg = fl.second_quantize(ms.h, fl.enumerate_basis(2, fl.fixed(n))).matrix.toarray()
        assert np.array_equal(dg, dg.conj().T)
    exact = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    exact = exact + exact.conj().T
    assert np.array_equal(fl.ModeSystem.dense(exact, np.eye(3)).h, exact)


def test_non_hermitian_h_rejected():
    with pytest.raises(ValueError):
        fl.ModeSystem(d=2, h=np.array([[0, 1], [0, 0]], dtype=complex),
                      v=np.zeros((2, 2)))


def test_non_finite_kernel_rejected():
    v = np.zeros((2, 2))
    v[0, 1] = v[1, 0] = np.inf
    with pytest.raises(ValueError):
        fl.ModeSystem(d=2, h=np.zeros((2, 2), dtype=complex), v=v)


def test_mean_field_potential():
    ms = fl.ModeSystem.dense(np.zeros((2, 2)), np.array([[1.0, 2.0], [2.0, 0.5]]))
    phi = np.array([1.0, 1j]) / np.sqrt(2)
    got = ms.mean_field_potential(phi)
    assert np.allclose(got, [0.5 * 1.0 + 0.5 * 2.0, 0.5 * 2.0 + 0.5 * 0.5])


def test_lattice_config_parse():
    doc = {
        "mode_system": {"geometry": "lattice", "sites": 3, "hopping": 1.0,
                        "potential": {"kind": "gaussian", "g": 1.0, "sigma": 0.7}},
        "state": {"family": "product",
                  "phi": [[0.5773502691896258, 0]] * 3},
        "n_list": [2, 3],
        "t_list": [0.1],
        "seed": 0,
    }
    cfg = fl.ExperimentConfig.from_dict(doc)
    lattice = fl.ModeSystem.lattice(3, hopping=1.0, potential=("gaussian", 1.0, 0.7))
    assert np.array_equal(cfg.ms.h, lattice.h) and np.array_equal(cfg.ms.v, lattice.v)


def test_unknown_potential_kind_rejected():
    with pytest.raises(ValueError):
        fl.ModeSystem.lattice(3, potential=("yukawa", 1.0))
