"""Mode-system construction and validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import focklab as fl
from focklab.tolerances import DEFAULT_STATE_CAP


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


@pytest.mark.parametrize("sites", [2, 3, 5, 8])
@pytest.mark.parametrize("sigma", [0.5, 1.0, 3.7, 1e-3, 1e10, 0.1, 7.0])
def test_gaussian_kernel_is_the_closed_form_bit_for_bit(sites, sigma):
    dist = np.abs(np.arange(sites)[:, None] - np.arange(sites)[None, :])
    dist = np.minimum(dist, sites - dist).astype(float)
    expected = 2.5 * np.exp(-(dist ** 2) / (2.0 * sigma * sigma))
    v = fl.ModeSystem.lattice(sites, potential=("gaussian", 2.5, sigma)).v
    assert np.array_equal(v, expected) and np.array_equal(v, v.T)


@pytest.mark.parametrize("sigma", [1e-170, 1e-160, 5e-324])
def test_gaussian_width_whose_square_underflows_is_the_contact_kernel(sigma):
    # 2 sigma^2 underflows to 0 (or to a subnormal): the kernel used to be
    # 0/0 = nan at distance 0
    assert np.array_equal(fl.ModeSystem.lattice(3, potential=("gaussian", 1.0, sigma)).v,
                          np.eye(3))


@pytest.mark.parametrize("kind", ["contact", "neighbor", "gaussian"])
def test_lattice_kernels_at_the_float_limit_are_kept_as_given(kind):
    v = fl.ModeSystem.lattice(4, potential=(kind, 1.7e308)).v
    assert np.all(np.isfinite(v)) and v.max() == 1.7e308


def test_dense_symmetrizes_kernel():
    ms = fl.ModeSystem.dense(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert ms.v[0, 1] == ms.v[1, 0] == 0.5


def test_dense_symmetrizes_without_overflow(rng):
    # halved first: the same bits as (v + v.T) / 2 for normal entries, and
    # entries at or above 9e307 no longer overflow
    v = rng.standard_normal((4, 4))
    assert np.array_equal(fl.ModeSystem.dense(np.eye(4), v).v, (v + v.T) / 2.0)
    a = 2.0 ** 1023  # about 9e307
    big = fl.ModeSystem.dense(np.eye(2), np.array([[1e308, a], [1.5 * a, 0.0]])).v
    assert np.array_equal(big, [[1e308, 1.25 * a], [1.25 * a, 0.0]])


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


def _lattice_doc(sites, hopping, potential):
    return {
        "mode_system": {"geometry": "lattice", "sites": sites, "hopping": hopping,
                        "potential": potential},
        "state": {"family": "product", "phi": [[1, 0]] + [[0, 0]] * (sites - 1)},
        "n_list": [2],
        "t_list": [0.1],
    }


_finite = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def _lattice_potentials(draw):
    """A valid potential object of every kind; gaussian with and without sigma."""
    pot = {"kind": draw(st.sampled_from(["contact", "neighbor", "gaussian"])),
           "g": draw(_finite | st.integers(-5, 5))}
    if pot["kind"] == "gaussian" and draw(st.booleans()):
        pot["sigma"] = draw(st.floats(1e-3, 1e3) | st.integers(1, 5))
    return pot


@given(sites=st.integers(1, 9), hopping=_finite, pot=_lattice_potentials())
@settings(deadline=None, max_examples=80)
def test_lattice_config_parse_is_the_constructor_bit_for_bit(sites, hopping, pot):
    cfg = fl.ExperimentConfig.from_dict(_lattice_doc(sites, hopping, pot))
    params = [float(pot[k]) for k in ("g", "sigma") if k in pot]
    lattice = fl.ModeSystem.lattice(sites, hopping=float(hopping),
                                    potential=(pot["kind"], *params))
    for got, want in ((cfg.ms.h, lattice.h), (cfg.ms.v, lattice.v)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("sites", [2.7, 2.0, True, 0, -1, "3", None])
def test_lattice_sites_must_be_an_int_at_least_1(sites):
    with pytest.raises(ValueError, match="sites"):
        fl.ModeSystem.lattice(sites)


def test_gaussian_width_defaults_to_1():
    default = fl.ModeSystem.lattice(3, potential=("gaussian", 1.0))
    explicit = fl.ModeSystem.lattice(3, potential=("gaussian", 1.0, 1.0))
    assert default.v.tobytes() == explicit.v.tobytes()
    assert default.h.tobytes() == explicit.h.tobytes()


@pytest.mark.parametrize("potential", [
    ("contact", 1.0, 5.0), ("neighbor", 1.0, 5.0), ("gaussian", 1.0, 0.0),
    ("gaussian", 1.0, -1.0), ("gaussian", 1.0, float("nan")), ("gaussian", 1.0, 1.0, 1.0),
])
def test_lattice_rejects_a_sigma_it_would_not_use(potential):
    with pytest.raises(ValueError, match="sigma") as info:
        fl.ModeSystem.lattice(3, potential=potential)
    assert "\n" not in str(info.value)


def test_lattice_beyond_the_state_cap_is_refused_before_allocating():
    assert 2236**2 <= DEFAULT_STATE_CAP < 2237**2
    for sites in (2237, 10**12):
        with pytest.raises(fl.CapacityError, match="cap"):
            fl.ModeSystem.lattice(sites)
