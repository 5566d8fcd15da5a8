"""Experiment orchestration: strict INI configs, per-cell preimage quadrature,
CSV/JSON persistence, and the slope fits that compare the complex-side
Lyapunov growth with its non-Archimedean counterpart.

Reproducibility contract: CSV bodies contain no timestamps and are
byte-identical across re-runs of the same config; the JSON summary carries a
config hash and refuses to overwrite a record produced by a different config.
"""

from __future__ import annotations

import cmath
import configparser
import hashlib
import importlib
import io
import json
import math
import os
import time
from fractions import Fraction

from . import berkovich
from .errors import ConfigError, ParseError, PrecisionError
from .parser import parse_family, parse_sections, parse_series

# the layers each kind runs on beyond the non-Archimedean core; load_config
# loads them with the config, so that their import is paid in set-up
_LAYERS = {"circle-demo": ("hybrid",), "hybrid-converge": ("admissible", "hybrid", "cxdyn"),
           "lyap-slope": ("cxdyn",)}
# the kinds that sample complex fibers; only they load cxdyn, and with it numpy
_SAMPLED_KINDS = tuple(kind for kind, layers in _LAYERS.items() if "cxdyn" in layers)
# the CSV schema version of each kind: hybrid-converge v7 and lyap-slope v8
# root every cell's preimage quadrature at a repelling periodic point, not
# at a seeded walk; the other kinds' CSVs are as in v5
_SCHEMA_VERSIONS = {"circle-demo": "v5", "hybrid-converge": "v7", "lyap-slope": "v8",
                    "na-measure": "v5"}


# The config schema: (attribute, INI key ``section.key``, type, default,
# hashed).  A key is read as its type; an absent key leaves the default (a
# list default is copied per config).  Hashed keys enter the config hash in
# this order.
_SCHEMA = (
    ("kind", "experiment.kind", str, None, True),
    ("label", "experiment.label", str, None, True),  # defaults to kind
    ("family", "experiment.family", str | None, None, True),
    ("r", "experiment.r", float, 0.5, True),
    ("moduli", "tgrid.moduli", list[float], [], True),
    ("phases", "tgrid.phases", int, 8, True),
    # seed, n_burn and start change no output; until the benchmark's configs
    # stop setting them (ROADMAP item 15) they are read, checked and hashed
    ("seed", "sampler.seed", int, 2026, True),
    ("n_burn", "sampler.n_burn", int, 100, True),
    ("n_keep", "sampler.n_keep", int, 4000, True),
    ("start", "sampler.start", complex, 1.1 + 0.7j, True),
    ("green_n_max", "green.n_max", int, 16, True),
    ("green_tol", "green.tol", float, 1e-3, True),
    ("s_min", "probes.s_min", Fraction, Fraction(-3), True),
    ("s_max", "probes.s_max", Fraction, Fraction(3), True),
    ("probe_q", "probes.q", int, 2, True),
    ("orbit_len", "probes.orbit_len", int, 2, True),
    ("include_critical", "probes.include_critical", bool, True, True),
    ("datum_sections", "datum.sections", list[str], ["w0", "w1"], True),
    ("datum_k", "datum.k", int, 1, True),
    ("datum_d", "datum.d", int, 1, True),
    ("series_f", "series.f", str | None, None, True),
    ("j_max", "series.j_max", int, 30, True),
    ("out_dir", "output.dir", str | None, None, False),
)
_FIELDS = {key: (name, typ) for name, key, typ, _, _ in _SCHEMA}


class ExperimentConfig:
    """One experiment: an attribute per ``_SCHEMA`` entry, set from keyword
    arguments or the entry's default.  ``load_config`` adds what it parses
    for ``run``: ``parsed_family`` for a kind with a family and
    ``parsed_datum`` for hybrid-converge."""

    def __init__(self, **values):
        for name, _, _, default, _ in _SCHEMA:
            default = list(default) if isinstance(default, list) else default
            setattr(self, name, values.pop(name, default))
        if values:
            raise TypeError(f"unknown config fields {sorted(values)}")

    def config_hash(self) -> str:
        blob = "\n".join(f"{key}={_hash_text(getattr(self, name), typ)}"
                         for name, key, typ, _, hashed in _SCHEMA if hashed)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    @property
    def experiment_id(self) -> str:
        return f"{self.label}-{self.config_hash()}"


# list items are separated by ';', float items (moduli) also by ','
_SEPARATORS = {float: ",", str: ";"}
_TYPE_NAMES = {int: "an integer", float: "a number", Fraction: "a rational number",
               complex: "a complex number",
               bool: "a boolean (true/false, yes/no, on/off or 1/0)"}
_READERS = {bool: lambda text: configparser.ConfigParser.BOOLEAN_STATES[text.lower()],
            # an imaginary part is written with a trailing i, as in family texts
            complex: lambda text: complex(text[:-1] + "j" if text.endswith("i") else text)}


def _read(text: str, typ, key: str):
    """``text`` read as ``typ``, a schema type; a malformed value is a
    config error naming ``key``."""
    if getattr(typ, "__origin__", None) is list:
        (item,) = typ.__args__
        sep = _SEPARATORS[item]
        return [_read(x.strip(), item, key) for x in text.replace(";", sep).split(sep)
                if x.strip()]
    if typ in (str, str | None):
        return text
    try:
        return _READERS.get(typ, typ)(text)
    except (ValueError, ZeroDivisionError, KeyError):
        raise ConfigError(f"{key} must be {_TYPE_NAMES[typ]}, got {text!r}") from None


def _hash_text(value, typ) -> str:
    """How a config value enters the config hash."""
    if getattr(typ, "__origin__", None) is list:
        (item,) = typ.__args__
        return _SEPARATORS[item].join(_hash_text(x, item) for x in value)
    if value is None:
        return ""
    return repr(value) if typ in (float, complex) else str(value)


def load_config(source: str, kind: str | None = None) -> ExperimentConfig:
    """Parse and validate an INI config: literal text when ``source`` holds a
    newline or ``[``, otherwise the path of a file.

    Unknown sections or keys are rejected; ``kind`` (from the CLI subcommand)
    must agree with the config when both are present.  The family and the
    datum are parsed here, once, and kept on the config for ``run``.
    """
    cp = configparser.ConfigParser(interpolation=None)
    try:
        if "\n" in source or "[" in source:
            cp.read_string(source)
        elif os.path.isfile(source):
            cp.read(source)
        else:
            what = "a directory" if os.path.isdir(source) else "missing"
            raise ConfigError(f"config file {source!r} is {what}")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    values = {}
    for section in cp.sections():
        if not any(key.startswith(f"{section}.") for key in _FIELDS):
            raise ConfigError(f"unknown config section [{section}]")
        for key, text in cp[section].items():
            if f"{section}.{key}" not in _FIELDS:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            key = f"{section}.{key}"
            name, typ = _FIELDS[key]
            values[name] = _read(text, typ, key)
    cfg_kind = values.setdefault("kind", kind)
    if cfg_kind is None:
        raise ConfigError("experiment.kind missing and no subcommand given")
    if kind is not None and cfg_kind != kind:
        raise ConfigError(f"config kind {cfg_kind!r} does not match subcommand {kind!r}")
    if cfg_kind not in _RUNNERS:
        raise ConfigError(f"unknown experiment kind {cfg_kind!r}")
    values.setdefault("label", cfg_kind)
    cfg = ExperimentConfig(**values)
    _validate(cfg)
    for layer in _LAYERS.get(cfg_kind, ()):
        importlib.import_module(f".{layer}", __package__)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.label in ("", ".", "..") or "/" in cfg.label or "\\" in cfg.label:
        raise ConfigError(f"experiment.label must be a plain file name, got {cfg.label!r}")
    if not 0.0 < cfg.r < 1.0:
        raise ConfigError(f"experiment.r must lie in (0, 1), got {cfg.r}")
    if cfg.kind in ("hybrid-converge", "lyap-slope", "na-measure"):
        if not cfg.family:
            raise ConfigError(f"experiment.family is required for {cfg.kind}")
        try:
            cfg.parsed_family = parse_family(cfg.family)
        except ParseError as exc:
            raise ConfigError(f"experiment.family: {exc}") from None
    if cfg.kind == "circle-demo" and not cfg.series_f:
        raise ConfigError("series.f is required for circle-demo")
    if cfg.kind in _SAMPLED_KINDS:
        if not cfg.moduli:
            raise ConfigError(f"tgrid.moduli is required for {cfg.kind}")
        for m in cfg.moduli:
            if not 0.0 < m <= cfg.r:
                raise ConfigError(
                    f"grid modulus {m} outside the punctured disk of radius {cfg.r}")
        if cfg.phases < 1:
            raise ConfigError("tgrid.phases must be >= 1")
        if cfg.n_burn < 0:
            raise ConfigError(f"sampler.n_burn must be >= 0, got {cfg.n_burn}")
        d = cfg.parsed_family.degree
        if cfg.n_keep < d ** 3:
            # three quadrature levels are the fewest that can certify a cell
            raise ConfigError(f"sampler.n_keep must be >= d^3 = {d ** 3} for a degree-{d} "
                              f"family, got {cfg.n_keep}")
    if cfg.datum_k != 1:
        raise ConfigError(f"datum.k must be 1 (every family acts on P^1), got {cfg.datum_k}")
    if cfg.kind == "hybrid-converge":
        try:
            cfg.parsed_datum = parse_sections(cfg.datum_sections, d=cfg.datum_d)
        except ParseError as exc:
            raise ConfigError(f"datum.sections: {exc}") from None
    if cfg.kind == "lyap-slope" and len(set(cfg.moduli)) < 3:
        raise ConfigError("slope fit is degenerate with fewer than 3 distinct grid moduli")
    if not cmath.isfinite(cfg.start):
        raise ConfigError(f"sampler.start must be finite, got {cfg.start!r}")
    if cfg.seed < 0:
        raise ConfigError(f"sampler.seed must be >= 0, got {cfg.seed}")
    if cfg.j_max < 0:
        raise ConfigError(f"series.j_max must be >= 0, got {cfg.j_max}")
    if cfg.green_n_max < 0:
        raise ConfigError(f"green.n_max must be >= 0, got {cfg.green_n_max}")
    if not cfg.green_tol > 0:
        raise ConfigError(f"green.tol must be > 0, got {cfg.green_tol}")
    if cfg.s_min > cfg.s_max:
        raise ConfigError(f"probes.s_min {cfg.s_min} exceeds probes.s_max {cfg.s_max}")
    if cfg.probe_q < 1:
        raise ConfigError(f"probes.q must be >= 1, got {cfg.probe_q}")
    if cfg.orbit_len < 0:
        raise ConfigError(f"probes.orbit_len must be >= 0, got {cfg.orbit_len}")


# -- result records --------------------------------------------------------------------


class ResultRecord:
    """One run's output: the CSV's columns and rows and the JSON summary."""

    def __init__(self, cfg: ExperimentConfig, columns: list, rows: list, summary: dict):
        self.experiment_id = cfg.experiment_id
        self.kind = cfg.kind
        self.label = cfg.label
        self.config_hash = cfg.config_hash()
        self.columns = columns
        self.rows = rows
        self.summary = summary
        self.created = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())

    def csv_text(self) -> str:
        buf = io.StringIO()
        buf.write(f"# schema: hybdyn/{self.kind}/{_SCHEMA_VERSIONS[self.kind]}\n")
        buf.write(f"# experiment: {self.experiment_id}\n")
        buf.write(",".join(self.columns) + "\n")
        for row in self.rows:
            buf.write(",".join(_fmt_cell(x) for x in row) + "\n")
        return buf.getvalue()

    def json_payload(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "kind": self.kind,
            "label": self.label,
            "config_hash": self.config_hash,
            "created": self.created,
            "summary": self.summary,
        }


def _fmt_cell(x) -> str:
    if hasattr(x, "item"):
        x = x.item()  # a numpy scalar formats as its Python counterpart
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return repr(x + 0.0)  # normalizes -0.0
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return str(x)


def write_record(record: ResultRecord, out_dir: str) -> tuple:
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, f"{record.label}.json")
    csv_path = os.path.join(out_dir, f"{record.label}.csv")
    if os.path.exists(json_path):
        with open(json_path) as fh:
            old = json.load(fh)
        if old.get("config_hash") not in (None, record.config_hash):
            raise ConfigError(
                f"refusing to overwrite {json_path}: existing record has config "
                f"hash {old.get('config_hash')}, current config is {record.config_hash}")
    with open(csv_path, "w") as fh:
        fh.write(record.csv_text())
    with open(json_path, "w") as fh:
        fh.write(json.dumps(record.json_payload(), indent=2, sort_keys=True) + "\n")
    return csv_path, json_path


def load_record(out_dir: str, config: ExperimentConfig) -> dict:
    """Load a stored record, refusing a config-hash mismatch."""
    json_path = os.path.join(out_dir, f"{config.label}.json")
    with open(json_path) as fh:
        payload = json.load(fh)
    if payload.get("config_hash") != config.config_hash():
        raise ConfigError(
            f"stored record {json_path} has config hash {payload.get('config_hash')}, "
            f"expected {config.config_hash()}")
    return payload


# -- statistics -------------------------------------------------------------------------


def fit_slope(xs, ys):
    """Ordinary least squares: (slope, intercept, slope stderr)."""
    import numpy as np

    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n = len(xs)
    if n < 2:
        raise ConfigError("slope fit needs at least 2 points")
    xm, ym = xs.mean(), ys.mean()
    sxx = float(((xs - xm) ** 2).sum())
    if sxx == 0:
        raise ConfigError("slope fit needs at least 2 distinct abscissae")
    slope = float(((xs - xm) * (ys - ym)).sum()) / sxx
    intercept = ym - slope * xm
    if n > 2:
        resid = ys - (intercept + slope * xs)
        s2 = float((resid ** 2).sum()) / (n - 2)
        stderr = math.sqrt(s2 / sxx)
    else:
        stderr = 0.0
    return slope, intercept, stderr


def _grid_cells(cfg: ExperimentConfig):
    cells = []
    for j, m in enumerate(cfg.moduli):
        for p in range(cfg.phases):
            angle = 2.0 * math.pi * p / cfg.phases
            t = m * complex(math.cos(angle), math.sin(angle))
            cells.append((j, p, m, t))
    return cells


def _grid_run(cfg: ExperimentConfig, family, mu, integrand, extra, means):
    """Integrate over every grid cell's equilibrium measure the function
    ``f = integrand(stack, ts)`` of the cells' maps, stacked once
    (``cxdyn.MapStack``), and parameters, where ``f(cell, pts)`` gives the
    values at the points ``pts``, row k on cell ``cell[k]``.

    Every cell is integrated by ``cxdyn.preimage_levels``, all cells at
    once, each rooted at a repelling periodic point of its map; a cell's
    result does not depend on the other cells.  A cell's row is ``[j,
    phase, re_t, im_t, value, estimate, *extra(t, value), certified]``.
    ``per_modulus`` pools the rows of each modulus: each field of ``means``
    is the mean of its row column, and ``stderr`` is
    ``sqrt(mean(estimate**2) / n)``.  Returns the
    rows and the summary fields that the sampled kinds share, with the mass
    fields of ``mu``, the Gauss point's Dirac mass for a family with good
    reduction and the probe tree's measure otherwise (``_na_measure``).
    """
    import numpy as np

    from . import cxdyn

    cells = _grid_cells(cfg)
    stack = cxdyn.MapStack(cxdyn.specialize(family, t, r=cfg.r) for *_, t in cells)
    results = cxdyn.preimage_levels(stack, cfg.n_keep,
                                    integrand(stack, [t for *_, t in cells]))
    rows = [[j, p, t.real, t.imag, value, est, *extra(t, value), certified]
            for (j, p, _, t), (value, est, _, certified) in zip(cells, results)]
    per_mod = []
    for j, m in enumerate(cfg.moduli):
        mod_rows = [row for row in rows if row[0] == j]
        stderrs = [row[5] for row in mod_rows]
        per_mod.append({"abs_t": m, **{key: float(np.mean([row[col] for row in mod_rows]))
                                       for key, col in means.items()},
                        "stderr": float(np.sqrt(np.mean(np.square(stderrs)))
                                        / math.sqrt(len(mod_rows)))})
    return rows, {"uncertified_cells": sum(not ok for *_, ok in results),
                  "max_quadrature_level": max(level for _, _, level, _ in results),
                  "per_modulus": per_mod,
                  "measure_total_mass": mu.total_mass(),
                  "leaf_mass_fraction": mu.leaf_mass_fraction()}


def _na_measure(cfg: ExperimentConfig):
    """Shared non-Archimedean half: family, Green evaluator, potential, and
    the measure on the probe tree (``mu.tree``).

    The potential is evaluated once per tree vertex; ``green`` holds the
    (exponent, error bound) pairs in vertex order, bound 0.0 where exact.
    In a sampled kind (``na-measure`` prints every tree vertex), a family
    whose ``good_reduction_exponent`` is 0 gets exactly the Dirac mass at
    the Gauss point (``TreeMeasure.gauss``), with no probe tree and no Green
    value: ``green`` is empty.  An exponent that raises PrecisionError keeps
    the probe tree.
    """
    family = cfg.parsed_family
    evaluator = berkovich.GreenEvaluator(family, cfg.r, n_max=cfg.green_n_max,
                                         tol=cfg.green_tol)
    try:
        good = cfg.kind in _SAMPLED_KINDS and berkovich.good_reduction_exponent(family) == 0
    except PrecisionError:
        good = False
    if good:
        return family, evaluator, [], berkovich.TreeMeasure.gauss(cfg.r)
    tree = berkovich.build_probe_tree(family, s_min=cfg.s_min, s_max=cfg.s_max,
                                      q=cfg.probe_q, orbit_len=cfg.orbit_len,
                                      include_critical=cfg.include_critical)
    green = [evaluator.exponent(v) for v in tree.vertices]
    exponents = {id(v): q for v, (q, _) in zip(tree.vertices, green)}
    mu = berkovich.tree_ma(lambda v: exponents[id(v)], tree, cfg.r)
    return family, evaluator, green, mu


# -- the four experiments ----------------------------------------------------------------


def cmd_circle_demo(cfg: ExperimentConfig) -> ResultRecord:
    """Convergence table of a series seminorm along |t| = r * 2^-j."""
    from . import hybrid

    f = parse_series(cfg.series_f)
    r = cfg.r
    limit = hybrid.tau_eval(f, hybrid.HybridPoint.central(r))
    rows = []
    for j in range(cfg.j_max + 1):
        t = r * 2.0 ** (-j)
        value = hybrid.tau_eval(f, hybrid.HybridPoint.interior(t, r))
        rows.append([j, t, value, limit, abs(value - limit)])
    summary = {
        "series": str(f),
        "order": _fmt_cell(f.order()) if not f.is_zero() else "inf",
        "limit": limit,
        "final_error": rows[-1][4],
        "monotone_tail": all(rows[i + 1][4] <= rows[i][4] + 1e-15
                             for i in range(len(rows) // 2, len(rows) - 1)),
    }
    return ResultRecord(cfg, ["j", "abs_t", "value", "limit", "abs_error"], rows, summary)


def cmd_hybrid_converge(cfg: ExperimentConfig) -> ResultRecord:
    """Integrals of a model function against the equilibrium measures,
    compared with the atomic non-Archimedean target."""
    import numpy as np

    from . import admissible, hybrid

    family, _, _, mu = _na_measure(cfg)
    datum = cfg.parsed_datum
    ts = [t for *_, t in _grid_cells(cfg)]
    if not admissible.datum_regular(datum, ts):
        bad = next(t for t in ts if not admissible.datum_regular(datum, [t]))
        raise ConfigError(f"no two datum sections are free of common zeros at t = {bad}")
    i0 = 0.0
    for pt, mass in mu.support():
        i0 += mass * admissible.g_na(datum, pt, cfg.r)

    def model_value(stack, ts):
        n_factor = np.array([hybrid.scaling_n(hybrid.HybridPoint.interior(t, cfg.r))
                             for t in ts])
        tables = admissible.coefficient_tables(datum, ts)
        return lambda cell, pts: n_factor[cell] * admissible.phi_canonical(
            datum, (pts[:, 0], pts[:, 1]), tables, cell)

    # n_excluded stays in the schema; the quadrature excludes no value
    rows, summary = _grid_run(cfg, family, mu, model_value,
                              lambda t, value: (0, abs(value - i0)),
                              {"integral_mean": 4, "abs_error": 7})
    errs = [pm["abs_error"] for pm in summary["per_modulus"]]
    tol = 3.0 * max(pm["stderr"] for pm in summary["per_modulus"])
    summary.update(na_integral=i0, final_abs_error=errs[-1],
                   monotone_within_stderr=all(errs[i + 1] <= errs[i] + tol
                                              for i in range(len(errs) - 1)))
    return ResultRecord(cfg, ["j", "phase", "re_t", "im_t", "integral", "stderr",
                              "n_excluded", "abs_error", "certified"], rows, summary)


def cmd_lyap_slope(cfg: ExperimentConfig) -> ResultRecord:
    """Lyapunov growth fit against log|t|^-1 plus the non-Archimedean value:
    exact by the critical-point formula for polynomial families, the probe
    tree's otherwise."""
    from . import cxdyn

    family, evaluator, _, mu = _na_measure(cfg)
    lyap_tree = berkovich.na_lyapunov(family, mu)
    polynomial = family.is_polynomial()
    if polynomial:
        q, exact = berkovich.critical_lyapunov(family, evaluator)
        lyap_na = float(q) * math.log(cfg.r) + 0.0  # + 0.0 writes -0.0 as 0.0
    else:
        lyap_na, exact = lyap_tree, False
    na_ratio = lyap_na / math.log(1.0 / cfg.r)

    def lyapunov_integrand(stack, ts):
        return lambda cell, pts: cxdyn.log_det_norm(stack, pts, cell)

    def oracle(t, value):
        return cxdyn.przytycki_oracle(family, t) if polynomial else math.nan, 0

    rows, summary = _grid_run(cfg, family, mu, lyapunov_integrand, oracle, {"lyapunov": 4})
    slope, intercept, slope_err = fit_slope(
        [math.log(1.0 / m) for m in cfg.moduli],
        [pm["lyapunov"] for pm in summary["per_modulus"]])
    # an infinite stderr would read as 0 sigmas and pass any bound: a cell
    # without an estimate leaves both checks unknown (null)
    estimated = all(math.isfinite(row[5]) for row in rows)
    oracle_dev = None
    if polynomial and estimated:
        devs = [abs(row[4] - row[6]) / max(row[5], 1e-12) for row in rows]
        oracle_dev = float(max(devs))
    bd_bound = 0.5 * math.log(family.degree)
    summary.update({
        "slope": slope,
        "slope_stderr": slope_err,
        "intercept": intercept,
        "na_lyapunov": lyap_na,
        "na_lyapunov_tree": lyap_tree,
        "na_lyapunov_exact": exact,
        "na_ratio": na_ratio,
        "slope_discrepancy": slope - na_ratio,
        "briend_duval_ok": all(row[4] >= bd_bound - 3.0 * row[5] for row in rows)
        if estimated else None,
        "briend_duval_bound": bd_bound,
        "max_oracle_deviation_sigmas": oracle_dev,
    })
    return ResultRecord(cfg, ["j", "phase", "re_t", "im_t", "lyapunov", "stderr",
                              "oracle", "n_excluded", "certified"], rows, summary)


def cmd_na_measure(cfg: ExperimentConfig) -> ResultRecord:
    """Probe tree, Green potential with error bounds, and the atomic measure."""
    family, evaluator, green, mu = _na_measure(cfg)
    measure = mu.records()
    rows = [[i, rec["chart"], rec["center"], rec["s"], float(q) * math.log(cfg.r), bound,
             rec["mass"]] for i, (rec, (q, bound)) in enumerate(zip(measure, green))]
    lyap = berkovich.na_lyapunov(family, mu)
    tail = max(bound for _, bound in green)
    summary = {
        "measure": measure,
        "total_mass": mu.total_mass(),
        "mass_at_gauss": mu.mass_at_gauss(),
        "leaf_mass_fraction": mu.leaf_mass_fraction(),
        "clipped_mass": mu.clipped,
        "convention_failures": mu.negative_report,
        "na_lyapunov": lyap,
        "na_ratio": abs(lyap) / abs(math.log(cfg.r)),
        "green_n_star": evaluator.n_star,
        "green_exact_vertices": sum(bound == 0.0 for _, bound in green),
        "green_tail_bound": tail,
        "green_certified": tail < cfg.green_tol,
        "resultant_valuation": _fmt_cell(berkovich.resultant_valuation(family)),
        "good_reduction_exponent": _fmt_cell(berkovich.good_reduction_exponent(family)),
    }
    return ResultRecord(cfg, ["vertex", "chart", "center", "s", "green_value",
                              "green_error_bound", "mass"], rows, summary)


_RUNNERS = {
    "circle-demo": cmd_circle_demo,
    "hybrid-converge": cmd_hybrid_converge,
    "lyap-slope": cmd_lyap_slope,
    "na-measure": cmd_na_measure,
}
KINDS = tuple(_RUNNERS)


def run(cfg: ExperimentConfig, out_dir: str | None = None) -> ResultRecord:
    """Run the experiment selected by the config; write files when an output
    directory is configured or given."""
    record = _RUNNERS[cfg.kind](cfg)
    target = out_dir or cfg.out_dir
    if target:
        write_record(record, target)
    return record
