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
mean-field states.  Each sweep adds its own columns through one flat callback.

The CSV schema is bit-exact: header
``n,m,t,trace_dist,hs_dist,op_dist,cross_term,bound_envelope,runtime_s``,
floats as shortest round-trip decimals, UTF-8, LF line endings.  In
single-thread mode (the reproducibility reference) the wall-clock column is
left empty so identical (config, seed) runs produce byte-identical files.
"""

import csv
import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations
from math import exp, inf, isfinite, log, sqrt

import numpy as np
from scipy.special import pdtrc

from .combinatorics import admissible_m
from .dynamics import evolve_fock, make_plan
from .errors import ConfigError, DegeneracyError, ExactRegimeError
from .fock import build_hamiltonian, enumerate_basis, fixed, truncated
from .hartree import evolve_hartree
from .modes import ModeSystem
from .rdm import distance, mixed_target, reduced_dm
from .states import (
    SuperpositionSpec,
    _check_components,
    _combine_components,
    _poisson_cutoff,
    component_states,
    random_excitation,
)
from .tolerances import (DEFAULT_HARTREE_TOL, DEFAULT_KRYLOV_TOL, EXACT_REGIME_TOL, TIME_TOL,
                         check_unit)

CSV_HEADER = [
    "n", "m", "t",
    "trace_dist", "hs_dist", "op_dist",
    "cross_term", "bound_envelope", "runtime_s",
]

_FAMILIES = ("product", "coherent", "theta", "superposition")
_SUPER_KINDS = ("product", "theta", "coherent")


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


def _parse_mode_system(d):
    _require_keys(
        d,
        allowed=("geometry", "sites", "hopping", "potential", "h", "v"),
        required=("geometry",),
        where="mode_system",
    )
    geom = d["geometry"]
    if geom == "lattice":
        _require_keys(
            d, ("geometry", "sites", "hopping", "potential"),
            ("sites", "potential"), "mode_system",
        )
        if type(d["sites"]) is not int:
            raise ConfigError(f"mode_system.sites: expected an integer, got {d['sites']!r}")
        pot = d["potential"]
        _require_keys(pot, ("kind", "g", "sigma"), ("kind", "g"), "mode_system.potential")
        g = _parse_real(pot["g"], "mode_system.potential.g")
        if pot["kind"] == "gaussian":
            spec = ("gaussian", g, _parse_real(pot.get("sigma", 1.0),
                                               "mode_system.potential.sigma"))
        elif pot["kind"] in ("contact", "neighbor"):
            spec = (pot["kind"], g)
        else:
            raise ConfigError(f"unknown potential kind {pot['kind']!r}")
        return ModeSystem.lattice(
            d["sites"], hopping=_parse_real(d.get("hopping", 1.0), "mode_system.hopping"),
            potential=spec,
        )
    if geom == "dense":
        _require_keys(d, ("geometry", "h", "v"), ("h", "v"), "mode_system")
        h = np.array([[_parse_complex(x, "mode_system.h") for x in row] for row in d["h"]])
        v = np.array([[_parse_real(x, "mode_system.v") for x in row] for row in d["v"]])
        return ModeSystem.dense(h, v)
    raise ConfigError(f"unknown geometry {geom!r}")


@dataclass
class MSchedule:
    """Excitation-size schedule: constant m, or round(a ln n) clamped."""

    kind: str
    m: int = 0
    a: float = 0.0

    def value(self, n):
        if self.kind == "constant":
            return self.m
        return max(0, min(int(round(self.a * log(n))), admissible_m(n)))


def _parse_m(x, where, a_cap):
    if isinstance(x, dict):
        _require_keys(x, ("schedule", "a", "m"), ("schedule",), where)
        if x["schedule"] == "log":
            _require_keys(x, ("schedule", "a"), ("schedule", "a"), where)
            a = _parse_real(x["a"], f"{where}.a")
            if not 0 <= a < a_cap:
                raise ConfigError(f"{where}: log schedule needs 0 <= a < {a_cap}")
            return MSchedule(kind="log", a=a)
        if x["schedule"] == "constant":
            _require_keys(x, ("schedule", "m"), ("schedule",), where)
            x = x.get("m", 0)
    if type(x) is int and x >= 0:
        return MSchedule(kind="constant", m=x)
    raise ConfigError(f"{where}: expected an integer m >= 0 or a schedule object")


@dataclass
class ComponentSpec:
    """A unit phi, its coefficient and, for the theta kind, its m schedule
    and excitation seed (None for a single family)."""

    phi: np.ndarray
    coeff: complex
    m_schedule: MSchedule = None
    excitation_seed: int = None


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
    krylov_tol: float = DEFAULT_KRYLOV_TOL
    seed: int = 0
    out_dir: str = "."
    out_format: str = "csv"
    config_hash: str = ""

    @staticmethod
    def from_dict(doc, seed_override=None):
        """Parse and validate ``doc``; every malformed value is a ConfigError,
        including conversion failures and failed ModeSystem checks.  Numpy
        warnings on extreme values are silenced: such values fail a check."""
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
        if family not in _FAMILIES:
            raise ConfigError(f"unknown state family {family!r}")
        single = family != "superposition"
        if single:
            kind = family
            items = [{k: v for k, v in st.items() if k != "family"} | {"coeff": 1.0}]
        else:
            _require_keys(st, ("family", "kind", "components"),
                          ("kind", "components"), "state")
            kind, items = st["kind"], st["components"]
            if kind not in _SUPER_KINDS:
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
                cs.excitation_seed = None if single else seed
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
        cfg.t_list = [float(t) for t in t_list]
        if not all(0 <= t < inf for t in cfg.t_list):
            raise ConfigError("t_list times must be finite and >= 0")

        tol = doc.get("tolerances", {})
        _require_keys(tol, ("hartree_tol", "krylov_tol"), (), "tolerances")
        cfg.hartree_tol = _parse_real(tol.get("hartree_tol", DEFAULT_HARTREE_TOL),
                                      "tolerances.hartree_tol")
        cfg.krylov_tol = _parse_real(tol.get("krylov_tol", DEFAULT_KRYLOV_TOL),
                                     "tolerances.krylov_tol")
        if not 0 < cfg.hartree_tol < inf:
            raise ConfigError("tolerances.hartree_tol must be finite and > 0")
        if not 0 < cfg.krylov_tol <= DEFAULT_KRYLOV_TOL:
            raise ConfigError(
                f"tolerances.krylov_tol must lie in (0, {DEFAULT_KRYLOV_TOL}]"
            )
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

        coeffs = np.array([c.coeff for c in components])
        phis = [c.phi for c in components]
        for n in cfg.n_list:
            m_n = [c.m_schedule.value(n) for c in components] if theta else []
            for m in m_n:
                if m > admissible_m(n):
                    raise ConfigError(
                        f"m={m} exceeds admissible bound {admissible_m(n)} at n={n}")
            if ms.d < 2 and any(m_n):
                raise ConfigError("an excitation (m > 0) needs at least 2 modes")
            try:
                _check_components(kind, coeffs, phis, m_n)
            except ValueError as e:
                raise ConfigError(f"state.components at n={n}: {e}") from e

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
        except json.JSONDecodeError as e:
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
        def fmt(x):
            return "" if x is None else repr(float(x))

        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(CSV_HEADER)
            for r in sorted(self.rows, key=lambda r: (r.n, r.t)):
                n, m, *reals = self._cells(r)
                w.writerow([str(n), str(m)] + [fmt(x) for x in reals])

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
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
        return doc


def report_from_csv(path):
    """Reload a persisted sweep (config hash is not recoverable from CSV); a
    file that cannot be read as the sweep schema, or that holds a non-finite
    number or a missing or negative distance, raises ConfigError."""
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != CSV_HEADER:
                raise ConfigError(f"{path} does not carry the sweep CSV schema")
            for rec in reader:
                row = {k: None if rec[k] == "" else float(rec[k]) for k in CSV_HEADER}
                if (not all(x is None or isfinite(x) for x in row.values())
                        or not all(row[k] is not None and row[k] >= 0
                                    for k in ("trace_dist", "hs_dist", "op_dist"))):
                    raise ConfigError(f"{path} line {reader.line_num}: a number is not "
                                      f"finite or a distance is missing or negative")
                rows.append(SweepRow(**row | {"n": int(rec["n"]), "m": int(rec["m"]),
                                              "t": float(rec["t"])}))
    except (OSError, ValueError, TypeError, csv.Error) as e:
        raise ConfigError(f"cannot read {path}: {e}") from e
    return ConvergenceReport(config_hash="", family="", seed=0, rows=rows)


def merge_reports(reports):
    """Concatenate sweeps; mixing different configurations is rejected."""
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

    Refuses with ExactRegimeError when any distance is at most
    EXACT_REGIME_TOL: at rounding level the exact-mean-field regime has
    nothing to fit.
    """
    rows = sorted(report.rows_at(t), key=lambda r: r.n)
    if len(rows) < 3:
        raise ValueError(f"need at least 3 rows at t={t}, have {len(rows)}")
    dists = np.array([r.trace_dist for r in rows], dtype=float)
    if np.any(dists <= EXACT_REGIME_TOL):
        raise ExactRegimeError(f"distances at t={t} are at rounding level: exact regime")
    x = np.log(np.array([r.n for r in rows], dtype=float))
    y = np.log(dists)
    A = np.stack([x, np.ones_like(x)], axis=1)
    (slope, intercept), res, _rank, _sv = np.linalg.lstsq(A, y, rcond=None)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(res[0]) if len(res) else float(np.sum((y - A @ [slope, intercept]) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return FitResult(slope=float(slope), intercept=float(intercept), r2=float(r2))


# ---------------------------------------------------------------------------
# sweeps


def _hartree_targets(config):
    """``{t: (phi_ts, target)}``: the components' mean-field states at t and
    the weighted mixture of their projections, each built once per time.

    Each state is renormalized: the integrator's norm drift is allowed up to
    NORM_DRIFT_TOL, far above the UNIT_NORM_TOL that ``mixed_target`` accepts.
    """
    grid = sorted(set([0.0] + list(config.t_list)))
    trajs = [evolve_hartree(config.ms, c.phi, np.array(grid), tol=config.hartree_tol)
             for c in config.components]
    weights = _target_weights(config.components)
    targets = {}
    for t in set(config.t_list):
        phi_ts = [tr.states[grid.index(t)] for tr in trajs]
        phi_ts = [phi / np.linalg.norm(phi) for phi in phi_ts]
        targets[t] = (phi_ts, mixed_target(weights, phi_ts))
    return targets


def _excitation(config, phi, m, *key):
    """Seeded random m-particle excitation orthogonal to ``phi``, drawn from
    ``(config.seed, *key, m)``; None for m = 0."""
    if m == 0:
        return None
    return random_excitation(phi, m, seed=(config.seed, *key, m))


def _superposition_spec(config, n):
    """The state's components at particle number n, each theta excitation
    drawn from ``(seed, excitation_seed, m)``, or ``(seed, m)`` for a single
    family."""
    comps = config.components
    excs = [_excitation(config, c.phi, c.m_schedule.value(n),
                        *([] if c.excitation_seed is None else [c.excitation_seed]))
            for c in comps] if config.kind == "theta" else []
    return SuperpositionSpec(kind=config.kind, coeffs=[c.coeff for c in comps],
                             phis=[c.phi for c in comps], excitations=excs)


def _target_weights(comps):
    """|c_i|^2 / sum_j |c_j|^2, the weights of the mean-field mixture."""
    w = np.abs(np.array([c.coeff for c in comps], dtype=complex)) ** 2
    return w / float(np.sum(w))


def _theta_envelope(trace_dist, n, m):
    return trace_dist * sqrt(n) * exp(-m / 2.0) / float((m + 1) ** 7)


def _sweep(config, threads, family, score):
    """The cell pipeline every sweep shares.

    First the targets of ``_hartree_targets``, once per time.  Then one cell
    per n: the basis (for coherent states truncated at ``_poisson_cutoff(n)``,
    the smallest n_max whose Poisson(n) tail is at most POISSON_TAIL_FLOOR;
    the fixed(n) sector otherwise), the propagator plan and the normalized
    combination of the components with its Gram matrix and coefficients.  At
    each t, in increasing order, the state evolves on from the previous time;
    the row holds the three distances from its reduced density matrix rho to
    the target at t, and the sweep's own columns
    ``score(n, m, gram, coeffs_n, rho, phi_ts, trace_dist)``.  A cell returns
    its rows and its basis's n_max, from which coherent sweeps record the
    dropped Poisson mass per n in ``metadata["truncation"]``: H commutes with
    N and rho has no cross-sector terms, so the cutoff moves the distances
    only at the level of that mass.  ``threads > 1`` runs the cells on a pool.
    """
    targets = _hartree_targets(config)
    coherent = config.kind == "coherent"

    def cell(n):
        sector = truncated(_poisson_cutoff(n)) if coherent else fixed(n)
        basis = enumerate_basis(config.ms.d, sector)
        plan = make_plan(build_hamiltonian(config.ms, n, basis),
                         tol=config.krylov_tol)
        spec = _superposition_spec(config, n)
        try:  # the pairwise parse checks cannot see a degenerate span
            state, coeffs_n, gram = _combine_components(
                spec.coeffs, component_states(spec, n, basis))
        except DegeneracyError as e:
            raise ConfigError(f"state.components at n={n}: {e}") from e
        m = max(spec.m_schedule or [0])
        rows = []
        t_prev = 0.0
        # each time evolves on from the previous one (a repeated time by 0)
        for t in sorted(config.t_list):
            cell_start = time.perf_counter()
            state = evolve_fock(plan, state, t - t_prev)
            t_prev = t
            rho = reduced_dm(state)
            phi_ts, target = targets[t]
            td, hd, od = (distance(rho, target, kind)
                          for kind in ("trace", "hilbert_schmidt", "operator"))
            rows.append(SweepRow(
                n=n, m=m, t=t, trace_dist=td, hs_dist=hd, op_dist=od,
                runtime_s=time.perf_counter() - cell_start,
                **score(n, m, gram, coeffs_n, rho, phi_ts, td),
            ))
        return rows, basis.n_max

    sweep_start = time.perf_counter()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            cells = list(pool.map(cell, config.n_list))
    else:  # in the calling thread, so that Ctrl-C stops a long cell at once
        cells = [cell(n) for n in config.n_list]
    metadata = _metadata(config, threads, time.perf_counter() - sweep_start)
    if coherent:
        metadata["truncation"] = {
            str(n): {"n_max": k, "tail_mass": float(pdtrc(k, n))}
            for n, (_, k) in zip(config.n_list, cells)
        }
    return ConvergenceReport(
        config_hash=config.config_hash, family=family, seed=config.seed,
        rows=sorted((r for rows, _ in cells for r in rows), key=lambda r: (r.n, r.t)),
        reproducible=(threads == 1), metadata=metadata,
    )


def _metadata(config, threads, total_runtime_s):
    import scipy

    from . import __version__

    return {
        "threads": threads,
        "n_list": config.n_list,
        "t_list": config.t_list,
        "versions": {"focklab": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "total_runtime_s": round(total_runtime_s, 3),
    }


def run_convergence_sweep(config: ExperimentConfig, threads=1):
    """Single-family sweep: distance of the evolved reduced density matrix to
    the projection on the mean-field state, per (n, t), plus the
    rate-envelope column."""
    if config.family not in ("product", "coherent", "theta"):
        raise ConfigError(
            f"convergence sweep takes a single-state family, got {config.family!r}"
        )

    def score(n, m, gram, coeffs_n, rho, phi_ts, td):
        return {"bound_envelope": _theta_envelope(td, n, m)}

    return _sweep(config, threads, config.family, score).attach_fits()


def run_superposition_sweep(config: ExperimentConfig, threads=1):
    """Mixture sweep: distance of the evolved reduced density matrix to the
    weighted mixture of mean-field projections, with cross-term logging."""
    if config.family != "superposition":
        raise ConfigError("superposition sweep needs family=superposition")
    weights = _target_weights(config.components)

    def score(n, m, gram, coeffs_n, rho, phi_ts, td):
        # cross terms are logged as the numerically measured overlaps, so the
        # closed forms (|<phi_i,phi_j>|^n, e^{-n ||dphi||^2/2}) can be checked
        # against them downstream
        cross = max(abs(gram[i, j]) for i, j in combinations(range(len(gram)), 2))
        return {"cross_term": float(cross), "extras": {
            "coeff_weights": [float(abs(c) ** 2) for c in coeffs_n],
            "fitted_weights": _fit_mixture_weights(rho.rho, phi_ts),
            "target_weights": [float(w) for w in weights],
        }}

    return _sweep(config, threads, "superposition:" + config.kind, score)


def _fit_mixture_weights(rho, phi_ts):
    """Least-squares mixture weights of projections |phi_t^i><phi_t^i| in rho."""
    k = len(phi_ts)
    M = np.empty((k, k))
    b = np.empty(k)
    for i in range(k):
        b[i] = float(np.real(np.vdot(phi_ts[i], rho @ phi_ts[i])))
        for j in range(k):
            M[i, j] = abs(np.vdot(phi_ts[i], phi_ts[j])) ** 2
    try:
        w = np.linalg.solve(M, b)
    except np.linalg.LinAlgError:
        w, *_ = np.linalg.lstsq(M, b, rcond=None)
    return [float(x) for x in w]
