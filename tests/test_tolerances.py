"""The tolerance module: every library tolerance defined once, and the
relations between tolerances that the other modules rely on."""

import ast
from math import comb
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

import focklab as fl
from focklab.dynamics import _bessel_series, _radius_bound
from focklab.hartree import _generator_bound
from focklab.states import _check_components, _combine_components, component_states
from focklab.tolerances import (
    DEFAULT_HARTREE_TOL,
    DEFAULT_KRYLOV_TOL,
    GRAM_FLOOR,
    HERMITICITY_TOL,
    INDEPENDENCE_TOL,
    MAX_TIME_RADIUS,
    NORM_DRIFT_TOL,
    SERIES_STOP_TOL,
    TRACE_TOL,
    UNIT_NORM_TOL,
    WEIGHT_SUM_TOL,
    check_hermitian,
)

from conftest import random_unit

_SRC = Path(fl.__file__).parent
_OWNERS = ("tolerances.py", "invariants.py")  # the suite keeps its own pass thresholds


def _tolerance_definitions(path):
    """(line, what) for each tolerance-like float literal, module-level
    ``*_TOL``/``*_FLOOR`` assignment and ``norm(...) - 1.0`` in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and type(node.value) is float
                and 0 < abs(node.value) < 1e-5):
            found.append((node.lineno, f"literal {node.value!r}"))
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                and isinstance(node.left, ast.Call)
                and isinstance(node.left.func, ast.Attribute)
                and node.left.func.attr == "norm"
                and isinstance(node.right, ast.Constant) and node.right.value == 1):
            found.append((node.lineno, "own unit-norm check"))
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for t in targets:
            if isinstance(t, ast.Name) and t.id.endswith(("_TOL", "_FLOOR")):
                found.append((node.lineno, f"assigns {t.id}"))
    return found


def test_tolerances_are_defined_only_in_the_tolerance_module():
    offenders = [f"{path.name}:{line}: {what}"
                 for path in sorted(_SRC.glob("*.py")) if path.name not in _OWNERS
                 for line, what in _tolerance_definitions(path)]
    assert offenders == []


def test_the_lint_sees_each_kind_of_definition(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("X_TOL = 1.0\nY_FLOOR: float = -2.0\n"
                    "def f(v):\n    return abs(v.norm() - 1.0) > 3e-11\n")
    assert [what for _, what in _tolerance_definitions(path)] == [
        "literal 3e-11", "own unit-norm check", "assigns X_TOL", "assigns Y_FLOOR"]


def _scaled(phi, factor):
    return phi * (factor / np.linalg.norm(phi))


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5), k=st.integers(1, 4),
       norm_signs=st.lists(st.sampled_from([-1, 1]), min_size=4, max_size=4),
       weight_sign=st.sampled_from([-1, 0, 1]))
def test_every_mixture_mixed_target_accepts_has_unit_trace(seed, d, k, norm_signs,
                                                           weight_sign):
    rng = np.random.default_rng(seed)
    phis = [_scaled(random_unit(d, rng), 1 + s * 0.99 * UNIT_NORM_TOL)
            for s in norm_signs[:k]]
    w = rng.random(k) + 0.1
    w *= (1 + weight_sign * 0.99 * WEIGHT_SUM_TOL) / w.sum()
    rho = fl.rdm.mixed_target(w, phis)
    assert abs(np.trace(rho.rho).real - 1.0) <= TRACE_TOL
    for phi in phis:
        fl.rdm.projector(phi)


def test_projector_accepts_what_its_unit_check_accepts():
    phi = np.array([1.0 + 6e-11, 0.0])
    fl.rdm.projector(phi)  # unit to UNIT_NORM_TOL, so its projector must have unit trace
    assert ((1 + WEIGHT_SUM_TOL) * (1 + UNIT_NORM_TOL) ** 2 - 1 < TRACE_TOL
            and 1 - (1 - WEIGHT_SUM_TOL) * (1 - UNIT_NORM_TOL) ** 2 < TRACE_TOL)


def _ms(d):
    return fl.ModeSystem.lattice(d)


@pytest.mark.parametrize("entry", [
    "product_state", "coherent_state", "theta_state", "random_excitation",
    "excitation", "evolve_hartree", "mixed_target", "config",
])
def test_every_unit_check_has_the_same_threshold(entry):
    phi = np.array([0.6, 0.8j])
    error = ValueError if entry != "config" else fl.ConfigError

    def call(factor):
        p = phi * factor
        if entry == "product_state":
            fl.product_state(p, 2, fl.enumerate_basis(2, fl.fixed(2)))
        elif entry == "coherent_state":
            fl.coherent_state(p, 1, fl.enumerate_basis(2, fl.truncated(30)))
        elif entry == "theta_state":
            fl.theta_state(p, None, 2, "creation_polynomial",
                           fl.enumerate_basis(2, fl.fixed(2)))
        elif entry == "random_excitation":
            fl.states.random_excitation(p, 1, seed=0)
        elif entry == "excitation":
            exc = fl.states.random_excitation(np.array([0.6, 0.8]), 1, seed=0)
            fl.states.ExcitationState(psi=fl.FockVector(exc.psi.basis,
                                                        exc.psi.coeffs * factor),
                                      orthogonal_to=exc.orthogonal_to)
        elif entry == "evolve_hartree":
            fl.evolve_hartree(_ms(2), p, [0.0])
        elif entry == "mixed_target":
            fl.rdm.mixed_target([1.0], [p])
        else:
            fl.ExperimentConfig.from_dict({
                "mode_system": {"geometry": "lattice", "sites": 2,
                                "potential": {"kind": "contact", "g": 1.0}},
                "state": {"family": "product",
                          "phi": [[float(z.real), float(z.imag)] for z in p]},
                "n_list": [2], "t_list": [0.5]})

    for s in (-1, 1):
        call(1 + s * 0.99 * UNIT_NORM_TOL)
        with pytest.raises(error):
            call(1 + s * 1.01 * UNIT_NORM_TOL)


@pytest.mark.parametrize("entry", ["ModeSystem", "OneParticleDM", "distance", "SparseOperator"])
def test_every_hermiticity_check_has_the_same_threshold(entry):
    def call(skew):
        a = np.array([[0.5, skew], [0.0, 0.5]], dtype=complex)
        if entry == "ModeSystem":
            fl.ModeSystem(d=2, h=a, v=np.zeros((2, 2)))
        elif entry == "OneParticleDM":
            fl.OneParticleDM(rho=a, trace_raw=1.0)
        elif entry == "distance":
            fl.distance(a, np.eye(2) / 2)
        else:
            fl.SparseOperator(fl.enumerate_basis(2, fl.fixed(1)), sp.csr_matrix(a),
                              hermitian=True)

    call(0.99 * HERMITICITY_TOL)
    with pytest.raises(ValueError, match=f"is not Hermitian to {HERMITICITY_TOL}$"):
        call(1.01 * HERMITICITY_TOL)
    with pytest.raises(ValueError):
        call(np.nan)


def _csr(data, indices, indptr):
    return sp.csr_matrix((np.array(data, dtype=complex), indices, indptr), shape=(2, 2))


_T = HERMITICITY_TOL
_HERMITICITY_VERDICTS = {  # name -> (matrix, Hermitian to HERMITICITY_TOL?)
    "nan-diagonal": (sp.csr_matrix(np.array([[np.nan, 0], [0, 1.0]])), False),
    "nan-pair": (sp.csr_matrix(np.array([[0, np.nan], [np.nan, 0]])), False),
    "one-side": (sp.csr_matrix(np.array([[0, 1.0], [0, 0]])), False),
    "one-side-half-tol": (sp.csr_matrix(np.array([[0, 0.5 * _T], [0, 0]])), True),
    "one-side-twice-tol": (sp.csr_matrix(np.array([[0, 2 * _T], [0, 0]])), False),
    "skew-half-tol": (sp.csr_matrix(np.array([[1, 1j], [-1j + 0.5 * _T, 2]])), True),
    "skew-twice-tol": (sp.csr_matrix(np.array([[1, 1j], [-1j + 2 * _T, 2]])), False),
    "all-zero": (sp.csr_matrix((3, 3), dtype=complex), True),
    "stored-zero-one-side": (_csr([0.0], [1], [0, 1, 1]), True),
    "unsorted-hermitian": (_csr([2j, 1, -2j, 3], [1, 0, 0, 1], [0, 2, 4]), True),
    "unsorted-twice-tol": (_csr([2j, 1, -2j + 2 * _T, 3], [1, 0, 0, 1], [0, 2, 4]), False),
    # duplicates compare by their sums: 0.3 + 0.7 against 0.7 + 0.3
    "duplicates-hermitian": (_csr([0.3, 0.7, 0.7, 0.3], [1, 1, 0, 0], [0, 2, 4]), True),
    "duplicates-twice-tol": (_csr([0.3, 0.7, 0.7, 0.3 + 2 * _T], [1, 1, 0, 0], [0, 2, 4]),
                             False),
    "dense-hermitian": (np.array([[1, 2 - 1j, 0], [2 + 1j, 0, 3j], [0, -3j, 5]]), True),
    "dense-twice-tol": (np.array([[1, 2 - 1j, 0], [2 + 1j, 0, 3j], [0, -3j + 2 * _T, 5]]),
                        False),
    "dense-nan": (np.array([[1, np.nan], [np.nan, 1]]), False),
}


@pytest.mark.parametrize("name", sorted(_HERMITICITY_VERDICTS))
def test_hermiticity_verdicts_are_pinned(name):
    # each verdict and message is the one of the check that forms A - A^H;
    # the input comes back unchanged, its arrays untouched
    a, hermitian = _HERMITICITY_VERDICTS[name]
    parts = (("data", "indices", "indptr") if sp.issparse(a) else ("data",))
    before = [np.array(getattr(a, p)).tobytes() for p in parts]
    if hermitian:
        assert check_hermitian(a, "m") is a
    else:
        with pytest.raises(ValueError, match=f"^m is not Hermitian to {HERMITICITY_TOL}$"):
            check_hermitian(a, "m")
    assert [np.array(getattr(a, p)).tobytes() for p in parts] == before


def test_gram_floor_lies_within_the_independence_check():
    assert 0 < GRAM_FLOOR <= INDEPENDENCE_TOL


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 3),
       gap=st.floats(2e-12, 1e-9), n=st.integers(1, 8))
def test_accepted_product_components_keep_a_gram_above_the_floor(seed, d, gap, n):
    # |<phi_0, phi_1>| = 1 - gap, clear of rounding at the exact parse bound
    rng = np.random.default_rng(seed)
    phi0 = random_unit(d, rng)
    w = random_unit(d, rng)
    w = w - np.vdot(phi0, w) * phi0
    w /= np.linalg.norm(w)
    c = 1.0 - gap
    phis = [phi0, c * phi0 + np.sqrt(1.0 - c * c) * w]
    coeffs = np.array([1.0, 1.0j])
    _check_components("product", coeffs, phis, [])
    spec = fl.states.SuperpositionSpec(kind="product", coeffs=coeffs, phis=phis)
    comps = component_states(spec, n, fl.enumerate_basis(d, fl.fixed(n)))
    _, _, gram = _combine_components(coeffs, comps)
    assert np.min(np.linalg.eigvalsh(gram)) >= GRAM_FLOOR


def test_hartree_targets_need_renormalizing():
    # the integrator may drift the norm past what a unit vector may be off,
    # which is why harness._hartree_targets renormalizes; kept end to end by
    # test_cli.py::test_default_hartree_tol_lattice_product_sweep_exits_0
    assert UNIT_NORM_TOL < NORM_DRIFT_TOL


_TWO_SITES = {"mode_system": {"geometry": "lattice", "sites": 2,
                              "potential": {"kind": "contact", "g": 1.0}},
              "state": {"family": "product", "phi": [1, 0]},
              "n_list": [2], "t_list": [0.5]}


def test_config_bounds_hartree_tol_by_its_default():
    # a looser mean-field tolerance passed the parser and then drifted the
    # norm past NORM_DRIFT_TOL (tests/test_config_fuzz.py keeps the input);
    # evolve_hartree itself takes any finite tol above 0
    above = float(np.nextafter(DEFAULT_HARTREE_TOL, 1.0))
    doc = dict(_TWO_SITES, tolerances={"hartree_tol": DEFAULT_HARTREE_TOL})
    assert fl.ExperimentConfig.from_dict(doc).hartree_tol == DEFAULT_HARTREE_TOL
    for tol in (above, 1.0):
        doc["tolerances"] = {"hartree_tol": tol}
        with pytest.raises(fl.ConfigError, match=r"^tolerances.hartree_tol must lie in "
                                                 rf"\(0, {DEFAULT_HARTREE_TOL}\]$"):
            fl.ExperimentConfig.from_dict(doc)
    assert fl.evolve_hartree(_ms(2), np.array([0.6, 0.8j]), [0.0, 0.5], tol=1e-8).tol == 1e-8


def _capacity_site(entry):
    """(call, count): a call that asks the state cap for ``count`` entries
    before the work they size."""
    if entry == "enumerate_basis":
        def call():
            fl.fock._enumerate_cached.cache_clear()  # a cached basis skips the check
            fl.enumerate_basis(3, fl.fixed(6))
        return call, comb(8, 2)
    if entry == "weyl_grid":
        # the pass after one of two displaced modes pairs C(5, 1) states of
        # each side, at n_max = 4
        v = fl.basis_state(fl.enumerate_basis(2, fl.truncated(4)), (1, 1))
        return (lambda: fl.fock._displace_grid(np.array([0.5, 0.5j]), v)), 25
    if entry == "lattice":
        return (lambda: fl.ModeSystem.lattice(7)), 49
    if entry == "coherent_cutoff":
        def call():
            fl.states._poisson_cutoff.cache_clear()  # a cached cutoff skips the check
            fl.states._poisson_cutoff(40)
        return call, 40
    if entry == "interpolation_grid":  # ceil(1 / 0.01) + 1 samples at the default dt
        return (lambda: fl.trajectory_for_interpolation(_ms(2), np.array([0.6, 0.8j]), 1.0)), 101
    return (lambda: fl.ExperimentConfig.from_dict({  # 3 sites: h holds 9 entries
        "mode_system": {"geometry": "lattice", "sites": 3,
                        "potential": {"kind": "contact", "g": 1.0}},
        "state": {"family": "product", "phi": [1, 0, 0]},
        "n_list": [2, 6], "t_list": [0.5]})), comb(8, 2)


@pytest.mark.parametrize("entry", ["enumerate_basis", "weyl_grid", "lattice",
                                   "coherent_cutoff", "interpolation_grid", "config"])
def test_every_capacity_check_has_the_same_threshold(monkeypatch, entry):
    # every site asks tolerances.check_capacity, so the one cap moves them
    # all: a count at the cap passes, one above it is refused in one format
    call, count = _capacity_site(entry)
    monkeypatch.setattr(fl.tolerances, "DEFAULT_STATE_CAP", count)
    call()
    monkeypatch.setattr(fl.tolerances, "DEFAULT_STATE_CAP", count - 1)
    with pytest.raises(fl.CapacityError, match=f" has {count} entries, cap is {count - 1}$"):
        call()


def _time_radius_site(entry):
    """(call, radius): call(t) runs a solver, or parses a config, for time t
    with a generator bounded by ``radius``, a power of two."""
    h, zero = np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((2, 2))

    def config(ms):
        return lambda t: fl.ExperimentConfig.from_dict({
            "mode_system": {"geometry": "dense", "h": ms.h.real.tolist(), "v": ms.v.tolist()},
            "state": {"family": "product", "phi": [1, 0]}, "n_list": [3], "t_list": [t]})

    if entry == "config_chebyshev":  # r = 3 * 1 + 2 / 2 at n = 3; s = 1
        ms = fl.ModeSystem.dense(h, zero)
        return config(ms), _radius_bound(ms, 3, 3)
    if entry == "config_hartree":  # a uniform kernel leaves r = 0; s = 4
        ms = fl.ModeSystem.dense(zero, np.full((2, 2), 4.0))
        return config(ms), _generator_bound(ms)
    if entry == "evolve_fock":  # the Gershgorin interval of H is [-1, 1]
        b = fl.enumerate_basis(2, fl.fixed(1))
        plan = fl.make_plan(fl.build_hamiltonian(fl.ModeSystem.dense(h, zero), 1, b))
        lo, hi = plan.interval
        return (lambda t: fl.evolve_fock(plan, fl.basis_state(b, (1, 0)), t)), (hi - lo) / 2
    # a state h annihilates stays put, so DOP853 reaches t in a few steps
    ms, phi = fl.ModeSystem.dense(h + np.eye(2), zero), np.array([1.0, -1.0]) / np.sqrt(2)

    def call(t):
        if entry == "evolve_hartree":
            return fl.evolve_hartree(ms, phi, [0.0, t])
        return fl.HartreeTrajectory(ms, np.array([0.0, t]), np.array([phi, phi]),
                                    None, None, DEFAULT_HARTREE_TOL).at(t)
    return call, _generator_bound(ms)


@pytest.mark.parametrize("entry", ["config_chebyshev", "config_hartree", "evolve_fock",
                                   "evolve_hartree", "at"])
def test_every_time_radius_check_has_the_same_threshold(entry):
    # |t| radius = MAX_TIME_RADIUS passes and the next float above it is refused
    call, radius = _time_radius_site(entry)
    t = MAX_TIME_RADIUS / radius
    above = float(np.nextafter(t, np.inf))
    assert t * radius == MAX_TIME_RADIUS < above * radius
    call(t)
    with pytest.raises(fl.CapacityError, match=r"\|t [rs]\| = 1e\+04 above 10000$"):
        call(above)


def test_chebyshev_truncation_lies_below_rounding_and_the_norm_check():
    # the propagator's series drops 2 sum_{k >= K} |J_k(x)| ||v|| at x = t r
    for x in np.concatenate([[0.0, 1e-289, 1e-12, 3e-9],
                             np.geomspace(1e-3, 1e4, 57), -np.geomspace(1e-3, 1e4, 8)]):
        degree = _bessel_series(x).size
        tail = 2 * np.abs(jv(np.arange(degree, degree + 200), x)).sum()
        assert tail <= 16 * SERIES_STOP_TOL
    assert 16 * SERIES_STOP_TOL < np.finfo(float).eps < DEFAULT_KRYLOV_TOL


# ---------------------------------------------------------------------------
# NaN fails every check: each compares as ``not value <= TOL``


@pytest.mark.parametrize("case", [
    "check_unit", "projector", "mixed_target", "one_particle_dm", "sparse_operator",
])
def test_nan_fails_the_tolerance_checks(case):
    nan = float("nan")
    with pytest.raises(ValueError):
        if case == "check_unit":
            fl.tolerances.check_unit([nan, 0])
        elif case == "projector":
            fl.rdm.projector(np.array([nan, 0]))
        elif case == "mixed_target":
            fl.rdm.mixed_target([nan, 0.5], [np.array([1.0, 0]), np.array([0, 1.0])])
        elif case == "one_particle_dm":
            fl.rdm.OneParticleDM(rho=np.full((2, 2), nan), trace_raw=1.0)
        else:
            b = fl.enumerate_basis(2, fl.fixed(1))
            fl.SparseOperator(b, fl.fock.sparse.csr_matrix([[0, nan], [1, 0]]),
                              hermitian=True)


_NAN_GUARDS = {  # case -> (call with a nan argument, the guard's own message)
    "build_hamiltonian": (lambda nan: fl.build_hamiltonian(
        _ms(2), nan, fl.enumerate_basis(2, fl.fixed(2))), "n_scale must be >= 1"),
    "laguerre": (lambda nan: fl.combinatorics.laguerre(3, nan, 1.0), "parameter must be > -1"),
    "krasikov_bound": (lambda nan: fl.combinatorics.krasikov_bound(3, nan, 1.0),
                       "parameter must be > -1"),
    "zeta": (lambda nan: fl.combinatorics.zeta(nan), "zeta needs s > 1"),
    "harmonic_number": (lambda nan: fl.combinatorics.harmonic_number(1.5, nan),
                        "N must be >= 1"),
    "weighted_number_moment": (lambda nan: fl.combinatorics.weighted_number_moment(20, 1, nan),
                               "delta must be 1/4"),
}


@pytest.mark.parametrize("case", sorted(_NAN_GUARDS))
def test_nan_fails_the_argument_guards(case):
    # each guard reads ``not value >= bound``; as ``value < bound`` a nan
    # passed it and came back as nan, as valid=False or as a numpy error
    call, message = _NAN_GUARDS[case]
    with pytest.raises(ValueError, match=f"^{message}"):
        call(float("nan"))


@pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan"), float("inf")])
def test_hartree_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    # a nan rtol never lets the integrator finish a step
    with pytest.raises(ValueError):
        fl.evolve_hartree(_ms(2), np.array([0.6, 0.8j]), [0.0, 1.0], tol=tol)


@pytest.mark.parametrize("drift", ["norm", "energy"])
def test_hartree_drift_checks_fail_on_nan(monkeypatch, drift):
    import focklab.hartree as hartree

    states = np.array([[0.6, 0.8j], [0.6, 0.8j]])
    energies = iter([0.0, np.nan if drift == "energy" else 0.0])
    monkeypatch.setattr(hartree, "hartree_energy", lambda ms, phi: next(energies))
    if drift == "norm":
        states[1, 0] = np.nan
    with pytest.raises(fl.IntegrationError, match=f"{drift} drift"):
        hartree._finish(_ms(2), np.array([0.0, 1.0]), states, DEFAULT_HARTREE_TOL)
