"""Experiment driver: convergence sweeps in the particle number n, rate
fitting, and result persistence.

Every sweep runs on one state model: a list of components with
coefficients, where a single family is one component with coefficient 1.
The cell pipeline ``_sweep`` builds the mean-field targets once per time,
then at each n the basis, the propagator plan and the normalized combination
of the components.  It evolves the combination with the exact 1/n-scaled
many-body propagator through the times in increasing order and records the
distances between its one-particle reduced density matrix and the target:
the weighted mixture of the rank-one projections on the components'
mean-field states.  The cell also fills its family's columns: the rate
envelope of a single family, or the cross term and mixture weights of a
superposition.

The CSV schema is bit-exact: header
``n,m,t,trace_dist,hs_dist,op_dist,cross_term,bound_envelope,runtime_s``,
floats as shortest round-trip decimals, UTF-8, LF line endings, all from the
one writer ``fock._written_csv``.  In single-thread mode (the
reproducibility reference) the wall-clock column is left empty so identical
(config, seed) runs produce byte-identical files.
"""

import csv
import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import exp, inf, isfinite, log, sqrt

import numpy as np

from .combinatorics import _check_admissible, admissible_m
from .dynamics import _radius_bound, evolve_fock, make_plan
from .errors import ConfigError, DegeneracyError, ExactRegimeError
from .fock import (_is_truncated, _written, _written_csv, build_hamiltonian, enumerate_basis,
                   sector_dimension)
from .hartree import _generator_bound, evolve_hartree
from .modes import ModeSystem
from .rdm import _distances, mixed_target, reduced_dm
from .states import (
    KINDS,
    SuperpositionSpec,
    _cell_sector,
    _check_components,
    _combine_components,
    _poisson_tail,
    component_states,
    random_excitation,
)
from .tolerances import (DEFAULT_HARTREE_TOL, EXACT_REGIME_TOL, TIME_TOL, check_capacity,
                         check_time_radius, check_tolerance, check_unit)

CSV_HEADER = [
    "n", "m", "t",
    "trace_dist", "hs_dist", "op_dist",
    "cross_term", "bound_envelope", "runtime_s",
]


# ---------------------------------------------------------------------------
# configuration


def _parse_real(x, where):
    if type(x) in (int, float) and isfinite(x):  # not bool, not a string
        return float(x)
    raise ConfigError(f"{where}: expected a finite number, got {x!r}")


def _parse_complex(x, where):
    """A real number or an [re, im] pair."""
    pair = x if isinstance(x, list) and len(x) == 2 else [x, 0]
    return complex(*(_parse_real(u, where) for u in pair))


def _parse_cvector(xs, where, d):
    if not isinstance(xs, list) or len(xs) != d:
        raise ConfigError(f"{where}: expected a list of {d} entries, one per mode")
    return np.array([_parse_complex(x, where) for x in xs], dtype=complex)


def _parse_seed(x, where):
    if type(x) is not int or x < 0:  # not bool, not float
        raise ConfigError(f"{where}: expected an integer seed >= 0, got {x!r}")
    return x


def _require_keys(d, allowed, required, where):
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(d)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _parse_square(rows, where, parse):
    """A non-empty square list of lists, entry by entry through ``parse``."""
    if not (isinstance(rows, list) and rows
            and all(isinstance(r, list) and len(r) == len(rows) for r in rows)):
        raise ConfigError(f"{where}: expected a square list of lists")
    return np.array([[parse(x, where) for x in row] for row in rows])


def _parse_mode_system(d):
    """Each geometry checks its own keys once the object names it."""
    if not isinstance(d, dict) or "geometry" not in d:
        raise ConfigError("mode_system: expected an object with a geometry key")
    geom = d["geometry"]
    if geom == "lattice":
        _require_keys(
            d, ("geometry", "sites", "hopping", "potential"),
            ("sites", "potential"), "mode_system",
        )
        pot = d["potential"]
        _require_keys(pot, ("kind", "g", "sigma"), ("kind", "g"), "mode_system.potential")
        params = [_parse_real(pot[k], f"mode_system.potential.{k}")
                  for k in ("g", "sigma") if k in pot]
        return ModeSystem.lattice(
            d["sites"], hopping=_parse_real(d.get("hopping", 1.0), "mode_system.hopping"),
            potential=(pot["kind"], *params),
        )
    if geom == "dense":
        _require_keys(d, ("geometry", "h", "v"), ("h", "v"), "mode_system")
        return ModeSystem.dense(_parse_square(d["h"], "mode_system.h", _parse_complex),
                                _parse_square(d["v"], "mode_system.v", _parse_real))
    raise ConfigError(f"unknown geometry {geom!r}")


@dataclass
class MSchedule:
    """Excitation-size schedule: constant m, or round(a ln n) clamped."""

    kind: str = "constant"
    m: int = 0
    a: float = 0.0

    def value(self, n):
        if self.kind == "constant":
            return self.m
        return max(0, min(int(round(self.a * log(n))), admissible_m(n)))


def _parse_m(x, where, a_cap):
    """An integer m >= 0, or ``{"schedule": "log", "a": a}`` with 0 <= a < a_cap."""
    if isinstance(x, dict):
        if x.get("schedule") != "log":
            raise ConfigError(f'{where}: a schedule object needs "schedule": "log"')
        _require_keys(x, ("schedule", "a"), ("schedule", "a"), where)
        a = _parse_real(x["a"], f"{where}.a")
        if not 0 <= a < a_cap:
            raise ConfigError(f"{where}: log schedule needs 0 <= a < {a_cap}")
        return MSchedule(kind="log", a=a)
    if type(x) is int and x >= 0:
        return MSchedule(kind="constant", m=x)
    raise ConfigError(f"{where}: expected an integer m >= 0 or a schedule object")


@dataclass
class ComponentSpec:
    """A unit phi, its coefficient, its m schedule (constant 0 outside the
    theta kind) and the prefix of its excitation's draw key: ``()`` for a
    single family, ``(excitation_seed,)`` for a superposition component."""

    phi: np.ndarray
    coeff: complex
    m_schedule: MSchedule = field(default_factory=MSchedule)
    seed_key: tuple = ()


@dataclass
class ExperimentConfig:
    """Parsed, validated experiment description plus its canonical hash.
    ``components`` (of family ``kind``) is never empty: a single family is
    one component with coefficient 1."""

    ms: ModeSystem
    family: str
    kind: str
    components: list
    n_list: list = field(default_factory=list)
    t_list: list = field(default_factory=list)
    hartree_tol: float = DEFAULT_HARTREE_TOL
    seed: int = 0
    out_dir: str = "."
    out_format: str = "csv"
    config_hash: str = ""

    @staticmethod
    def from_dict(doc, seed_override=None):
        """Parse and validate ``doc``; every malformed value is a ConfigError,
        including conversion failures, failed ModeSystem checks and a
        ``hartree_tol`` outside (0, DEFAULT_HARTREE_TOL].  What no cell could
        run is a CapacityError, raised before any cell is built: a lattice
        too large for the state cap, an n whose cell basis exceeds the cap,
        or a max(t_list) whose propagation at some n needs |t r| above
        MAX_TIME_RADIUS (r from ``dynamics._radius_bound``) or whose
        mean-field integration needs |t s| above it (s from
        ``hartree._generator_bound``); the solvers check the same limits.
        Numpy warnings on extreme values are silenced: such values fail a
        check."""
        try:
            with np.errstate(all="ignore"):
                return ExperimentConfig._parse(doc, seed_override)
        except (TypeError, ValueError, OverflowError) as e:
            raise ConfigError(str(e)) from e

    @staticmethod
    def _parse(doc, seed_override):
        _require_keys(
            doc,
            allowed=("mode_system", "state", "n_list", "t_list",
                     "tolerances", "seed", "output"),
            required=("mode_system", "state", "n_list", "t_list"),
            where="config",
        )
        ms = _parse_mode_system(doc["mode_system"])
        st = doc["state"]
        _require_keys(
            st,
            allowed=("family", "phi", "m", "excitation_seed", "kind", "components"),
            required=("family",),
            where="state",
        )
        family = st["family"]
        if family not in (*KINDS, "superposition"):
            raise ConfigError(f"unknown state family {family!r}")
        single = family != "superposition"
        if single:
            kind = family
            items = [{k: v for k, v in st.items() if k != "family"} | {"coeff": 1.0}]
        else:
            _require_keys(st, ("family", "kind", "components"),
                          ("kind", "components"), "state")
            kind, items = st["kind"], st["components"]
            if kind not in KINDS:
                raise ConfigError(f"unknown superposition kind {kind!r}")
            if not isinstance(items, list) or len(items) < 2:
                raise ConfigError("superposition needs at least 2 components")
        theta = kind == "theta"
        keys = ("phi", "coeff") + (("m", "excitation_seed") if theta else ())
        components = []
        for i, comp in enumerate(items):
            where = "state" if single else f"state.components[{i}]"
            _require_keys(comp, keys, ("phi", "coeff"), where)
            cs = ComponentSpec(
                phi=check_unit(_parse_cvector(comp["phi"], f"{where}.phi", ms.d),
                               f"{where}.phi"),
                coeff=_parse_complex(comp["coeff"], f"{where}.coeff"),
            )
            if theta:
                cs.m_schedule = _parse_m(comp.get("m", 1 if single else 0),
                                         f"{where}.m", a_cap=1.0 if single else 0.5)
                seed = _parse_seed(comp.get("excitation_seed", i),
                                   f"{where}.excitation_seed")
                # a single family accepts and hashes excitation_seed, but its
                # draw is keyed by (seed, m) alone
                cs.seed_key = () if single else (seed,)
            components.append(cs)
        cfg = ExperimentConfig(ms=ms, family=family, kind=kind, components=components)

        n_list = doc["n_list"]
        if (not isinstance(n_list, list) or len(n_list) < 1
                or any(type(n) is not int or n < 1 for n in n_list)
                or any(b <= a for a, b in zip(n_list, n_list[1:]))):
            raise ConfigError("n_list must be a strictly increasing list of positive ints")
        cfg.n_list = list(n_list)
        t_list = doc["t_list"]
        if (not isinstance(t_list, list) or not t_list
                or any(type(t) not in (int, float) for t in t_list)):
            raise ConfigError("t_list must be a non-empty list of numeric times")
        cfg.t_list = [float(t) + 0.0 for t in t_list]  # -0.0 reads 0.0
        if not all(0 <= t < inf for t in cfg.t_list):
            raise ConfigError("t_list times must be finite and >= 0")

        tol = doc.get("tolerances", {})
        _require_keys(tol, ("hartree_tol",), (), "tolerances")
        value = _parse_real(tol.get("hartree_tol", DEFAULT_HARTREE_TOL), "tolerances.hartree_tol")
        cfg.hartree_tol = check_tolerance(value, DEFAULT_HARTREE_TOL, "tolerances.hartree_tol")
        cfg.seed = _parse_seed(doc.get("seed", 0) if seed_override is None
                               else seed_override, "seed")
        out = doc.get("output", {})
        _require_keys(out, ("dir", "format"), (), "output")
        cfg.out_dir = out.get("dir", ".")
        if not isinstance(cfg.out_dir, str):
            raise ConfigError("output.dir must be a string")
        cfg.out_format = str(out.get("format", "csv"))
        if cfg.out_format not in ("csv", "json"):
            raise ConfigError("output.format must be csv or json")

        # every cell's m and components are admissible and its basis fits the
        # state cap; the propagation to max(t_list) sums about |t| r Chebyshev
        # terms, with r bounded at the top total of the cell's basis, and the
        # mean-field integrator takes about |t| s steps
        coeffs = np.array([c.coeff for c in components])
        phis = [c.phi for c in components]
        t_max = max(cfg.t_list)
        for n in cfg.n_list:
            m_n = [c.m_schedule.value(n) for c in components]
            for m in m_n:
                _check_admissible(m, n)
            if ms.d < 2 and any(m_n):
                raise ConfigError("an excitation (m > 0) needs at least 2 modes")
            try:
                _check_components(kind, coeffs, phis, m_n)
            except ValueError as e:
                raise ConfigError(f"state.components at n={n}: {e}") from e
            sector = _cell_sector(kind, n)
            check_capacity(sector_dimension(ms.d, sector), f"n_list: the basis at n={n}")
            check_time_radius(t_max, _radius_bound(ms, n, sector[1]),
                              f"t_list: t={t_max} at n={n} asks for |t r|")
        check_time_radius(t_max, _generator_bound(ms),
                          f"t_list: t={t_max} asks the mean-field integrator for |t s|")
        # at t = 0 both radius checks pass, so H's assembly at each cell is
        # bounded here: its pair sums by top^2 max|v|, its hopping entries by
        # top max|h|, and the Chebyshev half-width by the radius bound
        for n in cfg.n_list:
            top = _cell_sector(kind, n)[1]
            bounds = (top * top * np.abs(ms.v).max(), top * np.abs(ms.h).max(),
                      _radius_bound(ms, n, top))
            if not all(map(isfinite, bounds)):
                raise ConfigError(f"mode_system: the Hamiltonian at n={n} overflows a float")

        # the hash names the physics and the seed, not where results are written
        doc_for_hash = {k: v for k, v in doc.items() if k != "output"}
        if seed_override is not None:
            doc_for_hash["seed"] = int(seed_override)
        canonical = json.dumps(doc_for_hash, sort_keys=True, separators=(",", ":"))
        cfg.config_hash = hashlib.sha256(canonical.encode()).hexdigest()[:16]
        return cfg

    @staticmethod
    def from_json(path, seed_override=None):
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as e:  # RecursionError: nested too deeply
            raise ConfigError(f"invalid JSON in {path}: {e}") from e
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read {path}: {e}") from e
        return ExperimentConfig.from_dict(doc, seed_override=seed_override)


# ---------------------------------------------------------------------------
# reports


@dataclass
class SweepRow:
    n: int
    m: int
    t: float
    trace_dist: float
    hs_dist: float
    op_dist: float
    cross_term: float = None
    bound_envelope: float = None
    runtime_s: float = None
    extras: dict = field(default_factory=dict)


@dataclass
class ConvergenceReport:
    config_hash: str
    family: str
    seed: int
    rows: list
    reproducible: bool = True
    metadata: dict = field(default_factory=dict)
    fits: dict = field(default_factory=dict)  # t -> FitResult | "exact" | None

    def rows_at(self, t):
        return [r for r in self.rows if abs(r.t - t) <= TIME_TOL]

    def times(self):
        out = []
        for r in self.rows:
            if not any(abs(r.t - t) <= TIME_TOL for t in out):
                out.append(r.t)
        return out

    def attach_fits(self):
        """Record the log-log slope of trace_dist vs n at every time."""
        for t in self.times():
            try:
                self.fits[t] = fit_rate(self, t)
            except ExactRegimeError:
                self.fits[t] = "exact"
            except ValueError:
                self.fits[t] = None
        return self

    def _cells(self, row):
        """The row's values in CSV_HEADER order; the wall clock is blank in
        a reproducible report."""
        return [None if key == "runtime_s" and self.reproducible else getattr(row, key)
                for key in CSV_HEADER]

    def to_csv(self, path):
        _written_csv(path, CSV_HEADER,
                     map(self._cells, sorted(self.rows, key=lambda r: (r.n, r.t))))

    def to_json(self, path=None):
        def fit_doc(f):
            if f is None or f == "exact":
                return f
            return {"slope": f.slope, "intercept": f.intercept, "r2": f.r2}

        doc = {
            "config_hash": self.config_hash,
            "family": self.family,
            "seed": self.seed,
            "reproducible": self.reproducible,
            "metadata": self.metadata,
            "fits": {repr(float(t)): fit_doc(f) for t, f in self.fits.items()},
            "rows": [
                dict(zip(CSV_HEADER, self._cells(r)),
                     config_hash=self.config_hash, extras=r.extras)
                for r in sorted(self.rows, key=lambda r: (r.n, r.t))
            ],
        }
        return _written(doc, path, indent=1)


def report_from_csv(path):
    """Reload a persisted sweep (config hash is not recoverable from CSV); a
    file that cannot be read as the sweep schema, or that holds a non-finite
    number, a missing or negative distance, n < 1 or m < 0, raises
    ConfigError."""
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != CSV_HEADER:
                raise ConfigError(f"{path} does not carry the sweep CSV schema")
            for rec in reader:
                row = {k: None if rec[k] == "" else float(rec[k]) for k in CSV_HEADER}
                row |= {"n": int(rec["n"]), "m": int(rec["m"]), "t": float(rec["t"])}
                if (not all(x is None or isfinite(x) for x in row.values())
                        or not all(row[k] is not None and row[k] >= 0
                                    for k in ("trace_dist", "hs_dist", "op_dist"))
                        or row["n"] < 1 or row["m"] < 0):
                    raise ConfigError(f"{path} line {reader.line_num}: a number is not "
                                      f"finite, a distance is missing or negative, "
                                      f"n < 1 or m < 0")
                rows.append(SweepRow(**row))
    except (OSError, ValueError, TypeError, csv.Error) as e:
        raise ConfigError(f"cannot read {path}: {e}") from e
    return ConvergenceReport(config_hash="", family="", seed=0, rows=rows)


def merge_reports(reports):
    """Concatenate sweeps; an empty list or mixed configurations are rejected."""
    if not reports:
        raise ValueError("no reports to merge")
    hashes = {r.config_hash for r in reports}
    if len(hashes) > 1:
        raise ConfigError(f"refusing to aggregate mixed configs: {sorted(hashes)}")
    base = reports[0]
    rows = [row for r in reports for row in r.rows]
    return ConvergenceReport(
        config_hash=base.config_hash, family=base.family, seed=base.seed,
        rows=rows, reproducible=all(r.reproducible for r in reports),
    )


@dataclass
class FitResult:
    slope: float
    intercept: float
    r2: float


def fit_rate(report, t):
    """OLS of log(trace_dist) on log(n) at time t.

    Refuses with ValueError an n < 1, fewer than 3 distinct n at t (a
    repeated time repeats rows, not points) and a non-finite distance, and
    with ExactRegimeError any distance at most EXACT_REGIME_TOL: at rounding
    level the exact-mean-field regime has nothing to fit.
    """
    rows = sorted(report.rows_at(t), key=lambda r: r.n)
    if rows and rows[0].n < 1:
        raise ValueError(f"particle numbers must be >= 1, got n={rows[0].n}")
    distinct = len({r.n for r in rows})
    if distinct < 3:
        raise ValueError(f"need at least 3 distinct n at t={t}, have {distinct}")
    dists = np.array([r.trace_dist for r in rows], dtype=float)
    if not np.all(np.isfinite(dists)):
        raise ValueError(f"distances at t={t} must be finite, got {dists.tolist()}")
    if np.any(dists <= EXACT_REGIME_TOL):
        raise ExactRegimeError(f"distances at t={t} are at rounding level: exact regime")
    x = np.log(np.array([r.n for r in rows], dtype=float))
    y = np.log(dists)
    A = np.stack([x, np.ones_like(x)], axis=1)
    (slope, intercept), res, _rank, _sv = np.linalg.lstsq(A, y, rcond=None)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(res[0])  # 3 or more distinct n: A has full rank and more rows than columns
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return FitResult(slope=float(slope), intercept=float(intercept), r2=float(r2))


# ---------------------------------------------------------------------------
# sweeps


def _hartree_targets(config, weights):
    """``{t: (phi_ts, target)}``: the components' mean-field states at t and
    their projections' mixture with ``weights``, each built once per time.

    Each state is renormalized: the integrator's norm drift is allowed up to
    NORM_DRIFT_TOL, far above the UNIT_NORM_TOL that ``mixed_target`` accepts.
    """
    grid = sorted(set([0.0] + list(config.t_list)))
    trajs = [evolve_hartree(config.ms, c.phi, np.array(grid), tol=config.hartree_tol)
             for c in config.components]
    targets = {}
    for t in set(config.t_list):
        phi_ts = [tr.states[grid.index(t)] for tr in trajs]
        phi_ts = [phi / np.linalg.norm(phi) for phi in phi_ts]
        targets[t] = (phi_ts, mixed_target(weights, phi_ts))
    return targets


def _superposition_spec(config, n, draws):
    """The state's components at particle number n.  A theta component's
    excitation of size m = ``m_schedule.value(n)`` is the random excitation
    orthogonal to its phi drawn from ``(seed, *seed_key, m)``, that is
    ``(seed, excitation_seed, m)`` in a superposition and ``(seed, m)`` for a
    single family; it is None for m = 0.  The draw depends on the component
    and m alone, so ``draws``, a dict that one sweep keeps, holds it under
    (component index, m) and every n with that m reuses it."""
    comps = config.components

    def excitation(i, c, m):
        if (i, m) not in draws:
            draws[i, m] = random_excitation(c.phi, m, seed=(config.seed, *c.seed_key, m))
        return draws[i, m]

    ms = [c.m_schedule.value(n) for c in comps]
    excs = [None if m == 0 else excitation(i, c, m) for i, (c, m) in enumerate(zip(comps, ms))]
    return SuperpositionSpec(kind=config.kind, coeffs=[c.coeff for c in comps],
                             phis=[c.phi for c in comps], excitations=excs)


def _target_weights(comps):
    """|c_i|^2 / sum_j |c_j|^2, the weights of the mean-field mixture."""
    w = np.abs(np.array([c.coeff for c in comps], dtype=complex)) ** 2
    return w / float(np.sum(w))


def _theta_envelope(trace_dist, n, m):
    return trace_dist * sqrt(n) * exp(-m / 2.0) / float((m + 1) ** 7)


def _sweep(config, threads):
    """The one cell pipeline of both sweeps.

    First the targets of ``_hartree_targets``, once per time.  Then one cell
    per n: the basis on ``_cell_sector(kind, n)`` (``enumerate_basis``
    refuses one above the state cap), the propagator plan, the spec of
    ``_superposition_spec`` (its excitations drawn once per component and m
    in the sweep) and the normalized combination of its components with
    their Gram matrix and coefficients; m is the largest excitation size of
    the spec.  At each t, in increasing order, the state evolves on from the
    previous time, and the row holds the three distances from its reduced
    density matrix rho to the target at t, from one eigenvalue solve, and
    its family's columns:
    ``bound_envelope`` for a single family; for a superposition the largest
    off-diagonal Gram entry as ``cross_term`` (the numerically measured
    overlap, so the closed forms |<phi_i,phi_j>|^n and e^{-n ||dphi||^2/2}
    can be checked against it downstream) and the coefficient, fitted and
    target weights.  A cell returns its rows and, on a truncated basis, the
    cutoff n_max and the Poisson mass it drops, which the report lists per n
    in ``metadata["truncation"]``: H commutes with N and rho has no
    cross-sector terms, so the cutoff moves the distances only at the level
    of that mass.  ``threads > 1`` runs the cells on a pool.
    """
    import scipy

    from . import __version__

    single = config.family in KINDS
    weights = [float(w) for w in _target_weights(config.components)]
    targets = _hartree_targets(config, weights)
    # the excitations of _superposition_spec, one per (component, m); two
    # pool threads may both draw a missing one, and their draws are equal
    draws = {}

    def cell(n):
        basis = enumerate_basis(config.ms.d, _cell_sector(config.kind, n))
        plan = make_plan(build_hamiltonian(config.ms, n, basis))
        spec = _superposition_spec(config, n, draws)
        try:  # the pairwise parse checks cannot see a degenerate span
            state, coeffs_n, gram = _combine_components(
                spec.coeffs, component_states(spec, n, basis))
        except DegeneracyError as e:
            raise ConfigError(f"state.components at n={n}: {e}") from e
        m = max(spec.m_schedule or [0])
        # abs entry by entry: numpy's vectorized abs can differ in the last bit
        cross = float(max(map(abs, gram[np.triu_indices(len(gram), 1)]), default=0))
        rows, t_prev = [], 0.0
        # each time evolves on from the previous one (a repeated time by 0)
        for t in sorted(config.t_list):
            row_start = time.perf_counter()
            state = evolve_fock(plan, state, t - t_prev)
            t_prev = t
            rho = reduced_dm(state)
            phi_ts, target = targets[t]
            td, hd, od = _distances(rho, target)
            rows.append(SweepRow(
                n=n, m=m, t=t, trace_dist=td, hs_dist=hd, op_dist=od,
                runtime_s=time.perf_counter() - row_start,
                **({"bound_envelope": _theta_envelope(td, n, m)} if single else {
                    "cross_term": cross, "extras": {
                        "coeff_weights": [float(abs(c) ** 2) for c in coeffs_n],
                        "fitted_weights": _fit_mixture_weights(rho.rho, phi_ts),
                        "target_weights": list(weights)}}),
            ))
        return rows, ({"n_max": basis.n_max, "tail_mass": _poisson_tail(basis.n_max, n)}
                      if _is_truncated(basis) else None)

    sweep_start = time.perf_counter()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            cells = list(pool.map(cell, config.n_list))
    else:  # in the calling thread, so that Ctrl-C stops a long cell at once
        cells = [cell(n) for n in config.n_list]
    metadata = {"threads": threads, "n_list": config.n_list, "t_list": config.t_list,
                "versions": {"focklab": __version__, "numpy": np.__version__,
                             "scipy": scipy.__version__},
                "total_runtime_s": round(time.perf_counter() - sweep_start, 3)}
    truncation = {str(n): cut for n, (_, cut) in zip(config.n_list, cells) if cut}
    if truncation:
        metadata["truncation"] = truncation
    return ConvergenceReport(
        config_hash=config.config_hash, seed=config.seed, reproducible=(threads == 1),
        family=config.family if single else "superposition:" + config.kind,
        rows=[r for cell_rows, _ in cells for r in cell_rows],  # n_list increases
        metadata=metadata,
    )


def run_convergence_sweep(config: ExperimentConfig, threads=1):
    """Single-family sweep: distance of the evolved reduced density matrix to
    the projection on the mean-field state, per (n, t), plus the
    rate-envelope column and the fitted rates."""
    if config.family not in KINDS:
        raise ConfigError(
            f"convergence sweep takes a single-state family, got {config.family!r}"
        )
    return _sweep(config, threads).attach_fits()


def run_superposition_sweep(config: ExperimentConfig, threads=1):
    """Mixture sweep: distance of the evolved reduced density matrix to the
    weighted mixture of mean-field projections, with cross-term logging."""
    if config.family != "superposition":
        raise ConfigError("superposition sweep needs family=superposition")
    return _sweep(config, threads)


def _fit_mixture_weights(rho, phi_ts):
    """The real weights w minimizing the Hilbert-Schmidt distance
    ||rho - sum_i w_i |phi_t^i><phi_t^i| ||, one least-squares solve whose
    column i is the flattened projection on phi_t^i.  Where two projections
    coincide (phi and -phi, say) the solve returns the minimum-norm weights,
    which split the coincident ones evenly.  The normal equations of this
    problem are real, so the solution is real up to rounding; its imaginary
    part is dropped."""
    P = np.stack([np.outer(phi, phi.conj()).ravel() for phi in phi_ts], axis=1)
    w, *_ = np.linalg.lstsq(P, rho.ravel(), rcond=None)
    return [float(x) for x in w.real]
