"""Trial simulator: empirical estimator distributions and sweep tables.

Each trial performs one full end-to-end measurement simulation on a freshly
seeded generator.  It draws outcome counts, not shots: every estimator is a
function of a few integer sums per direction (outcome and product sums, and
for a variance block the cross sums), and each dataset kind's counts sampler
in :mod:`spinsq.schemes` draws them directly, with the law of the record the
kind's collector would draw, at a cost that does not grow with the budget.
The estimator cores and ``compose_parameter`` then give the parameter, as
``estimate_parameter`` gives it from a record.  A written measurement record
(``spinsq sample``) is still drawn shot by shot by the collectors.

Reproducibility contract: trial ``t`` uses an independent generator seeded
with ``child_seed(master_seed, t)`` (a splitmix64 step, documented below),
which makes results identical no matter how trials are distributed over
threads.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .hypothesis import required_budget
from .schemes import (
    _SCHEMES,
    SCHEMA_VERSION,
    Scheme,
    _as_parameter,
    _budget,
    _count_trial,
)
from .states import DepolarizedMixture, DickeState, ManyBodySinglet, StateModel
from .variance import VarianceReport, parameter_value, var_parameter

__all__ = [
    "TrialStats",
    "ComparisonRecord",
    "child_seed",
    "child_generator",
    "state_spec",
    "run_trials",
    "histogram",
    "compare_analytic",
    "sweep_noise",
    "sweep_sample_size",
    "config_hash",
    "write_trial_stats",
    "write_histogram",
    "write_sweep",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def child_seed(master_seed: int, index: int) -> int:
    """Per-trial seed: splitmix64 output ``index`` of the ``master_seed`` stream.

    ``z = master + index * 0x9E3779B97F4A7C15`` followed by the standard
    splitmix64 finalizer; adjacent indices give statistically independent
    64-bit seeds, so trials can be assigned to workers in any order.
    """
    z = (master_seed + index * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def child_generator(master_seed: int, index: int) -> np.random.Generator:
    """The generator trial ``index`` runs on."""
    return np.random.Generator(np.random.PCG64(child_seed(master_seed, index)))


def state_spec(state: StateModel) -> str:
    """Compact ``family:N[:m][:p]`` description used in config echoes."""
    if isinstance(state, DepolarizedMixture):
        return f"{state_spec(state.base)}:{float(state.visibility):g}"
    if isinstance(state, DickeState):
        return f"dicke:{state.n_qubits}:{state.excitations}"
    if isinstance(state, ManyBodySinglet):
        return f"singlet:{state.n_qubits}"
    return f"{type(state).__name__.lower()}:{state.n_qubits}"


# --------------------------------------------------------------------------
# results
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialStats:
    """Empirical distribution summary of one (state, scheme, parameter) run."""

    trials: int
    mean: float
    empirical_variance: float
    histogram: Mapping
    seed: int
    config: Mapping

    def __post_init__(self):
        if self.trials < 2:
            raise ValueError("need at least two trials")
        if self.empirical_variance < 0:
            raise ValueError("empirical variance cannot be negative")
        h = self.histogram
        total = sum(h["counts"]) + h["underflow"] + h["overflow"]
        if total != self.trials:
            raise ValueError(
                f"histogram accounts for {total} of {self.trials} trials"
            )

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "mean": self.mean,
            "empirical_variance": self.empirical_variance,
            "histogram": {
                "edges": list(self.histogram["edges"]),
                "counts": list(self.histogram["counts"]),
                "underflow": self.histogram["underflow"],
                "overflow": self.histogram["overflow"],
            },
            "seed": self.seed,
            "config": dict(self.config, budget=dict(self.config["budget"])),
        }


@dataclass(frozen=True)
class ComparisonRecord:
    """Empirical-vs-analytic variance check for one configuration."""

    empirical_variance: float
    analytic_variance: float
    relative_deviation: float
    tolerance: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "empirical_variance": self.empirical_variance,
            "analytic_variance": self.analytic_variance,
            "relative_deviation": self.relative_deviation,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------


def histogram(values, bin_count: int, bin_width: float, anchor: float) -> dict:
    """Left-closed fixed-width binning with explicit out-of-range tallies.

    Bin ``i`` covers ``[anchor + i*width, anchor + (i+1)*width)``; values
    below the first edge and at or above the last are counted separately so
    binning never loses mass.
    """
    if bin_count < 1:
        raise ValueError("need at least one bin")
    if not bin_width > 0:
        raise ValueError("bin width must be positive")
    values = np.asarray(values, dtype=np.float64)
    edges = anchor + bin_width * np.arange(bin_count + 1)
    idx = np.searchsorted(edges, values, side="right") - 1
    underflow = int((idx < 0).sum())
    overflow = int((idx >= bin_count).sum())
    counts = np.bincount(idx[(idx >= 0) & (idx < bin_count)], minlength=bin_count)
    return {
        "edges": [float(e) for e in edges],
        "counts": [int(c) for c in counts],
        "underflow": underflow,
        "overflow": overflow,
    }


def _run_config(state, scheme, parameter, budget, trials):
    return {
        "state": state_spec(state),
        "scheme": scheme.value,
        "parameter": parameter.label(),
        "n_qubits": state.n_qubits,
        "budget": dict(budget),
        "trials": trials,
    }


def run_trials(state, scheme, parameter, *, k=None, l=None, trials,
               master_seed=0, threads=0, bins=99, bin_width=None,
               anchor=None) -> TrialStats:
    """T independent end-to-end simulations of one estimator.

    Trial ``t`` draws its estimate from counts on ``child_generator(
    master_seed, t)``.  Deterministic for a given ``(master_seed, trials,
    config)`` no matter how many threads share the work.  When ``bin_width``
    is omitted the histogram spans the observed values; when ``anchor`` is
    omitted the bins are centred on the analytic parameter value.
    """
    if trials < 2:
        raise ValueError("need at least two trials")
    if threads < 0:
        raise ValueError("threads must be >= 0 (0 = automatic)")
    if bins < 1:
        raise ValueError("need at least one bin")
    scheme = Scheme(scheme)
    parameter = _as_parameter(parameter)
    draw = _count_trial(state, scheme, parameter, k=k, l=l)

    values = np.empty(trials, dtype=np.float64)

    def run_range(bounds):
        lo, hi = bounds
        for t in range(lo, hi):
            values[t] = draw(child_generator(master_seed, t))

    workers = threads if threads > 0 else min(os.cpu_count() or 1, 8)
    if workers <= 1 or trials < 4 * workers:
        run_range((0, trials))
    else:
        cuts = np.linspace(0, trials, workers + 1).astype(int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_range, zip(cuts[:-1], cuts[1:])))
    return _trial_stats(values, state, scheme, parameter, _budget(_SCHEMES[scheme].budget, k, l),
                        master_seed, bins, bin_width, anchor)


def _trial_stats(values, state, scheme, parameter, budget, master_seed, bins,
                 bin_width, anchor) -> TrialStats:
    """Summary and histogram of the trial ``values`` of one run."""
    trials = len(values)
    mean = float(values.mean())
    emp_var = float(values.var(ddof=1))
    if bin_width is None:
        span = float(values.max() - values.min())
        bin_width = span / bins if span > 0 else 1.0
    if anchor is None:
        anchor = parameter_value(state, parameter) - (bins / 2) * bin_width
    hist = histogram(values, bins, bin_width, anchor)
    config = _run_config(state, scheme, parameter, budget, trials)
    return TrialStats(trials, mean, emp_var, hist, master_seed, config)


def compare_analytic(stats: TrialStats, report: VarianceReport, *,
                     tolerance=0.10) -> ComparisonRecord:
    """Check the empirical variance against an analytic report.

    The default tolerance reflects the sampling spread of a sample variance
    at 10^4 trials (a few percent); it can be overridden.  Configurations
    must describe the same run.
    """
    cfg = stats.config
    mismatches = []
    if cfg["scheme"] != report.scheme.value:
        mismatches.append(f"scheme {cfg['scheme']} vs {report.scheme.value}")
    if cfg["parameter"] != report.parameter.label():
        mismatches.append(
            f"parameter {cfg['parameter']} vs {report.parameter.label()}"
        )
    if cfg["n_qubits"] != report.n_qubits:
        mismatches.append(f"N {cfg['n_qubits']} vs {report.n_qubits}")
    if dict(cfg["budget"]) != dict(report.budget):
        mismatches.append(f"budget {dict(cfg['budget'])} vs {dict(report.budget)}")
    if mismatches:
        raise ValueError("configuration mismatch: " + "; ".join(mismatches))

    analytic = float(report.value)
    empirical = stats.empirical_variance
    if analytic == 0.0:
        deviation = 0.0 if empirical == 0.0 else float("inf")
    else:
        deviation = abs(empirical / analytic - 1.0)
    return ComparisonRecord(empirical, analytic, deviation, tolerance,
                            deviation <= tolerance)


def sweep_noise(scheme, parameter, n, p_grid, *, k=None, l=None, trials=None,
                master_seed=0, threads=0) -> list:
    """Variance versus depolarization for the half-excited Dicke benchmark.

    Returns one row per grid point with the analytic variance and, when
    ``trials`` is given, an empirical column.  The analytic column must take
    its minimum at the pure state (visibility 1) whenever the grid contains
    it; anything else would mean the variance model is broken.
    """
    if n < 2 or n % 2:
        raise ValueError("the sweep benchmark needs an even N >= 2")
    # run_trials' own checks would come only after the first analytic row
    if trials is not None and trials < 2:
        raise ValueError("need at least two trials")
    if threads < 0:
        raise ValueError("threads must be >= 0 (0 = automatic)")
    scheme = Scheme(scheme)
    parameter = _as_parameter(parameter)
    rows = []
    for index, p in enumerate(p_grid):
        p = float(p)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"visibility grid values must lie in [0, 1], got {p}")
        state = DepolarizedMixture(DickeState(n, n // 2), p)
        row = {
            "p": p,
            "analytic_variance": float(
                var_parameter(state, scheme, parameter, k=k, l=l).value
            ),
        }
        if trials is not None:
            stats = run_trials(
                state, scheme, parameter, k=k, l=l, trials=trials,
                master_seed=child_seed(master_seed, index), threads=threads,
            )
            row["empirical_variance"] = stats.empirical_variance
        rows.append(row)

    pure = [r for r in rows if r["p"] == 1.0]
    if pure:
        smallest = min(r["analytic_variance"] for r in rows)
        if pure[0]["analytic_variance"] > smallest:
            raise AssertionError(
                "analytic variance is not minimal at the pure state"
            )
    return rows


def _t_rule(rule) -> Callable:
    if rule is None or rule == "0.1halfN":
        return lambda n: 0.1 * (n / 2)
    if callable(rule):
        return rule
    raise ValueError(f"unknown margin rule {rule!r}")


def sweep_sample_size(parameter, n_list, *, t_rule=None, gamma=0.95) -> dict:
    """Planner totals per scheme over a range of qubit numbers.

    For every scheme and every (even, >= 4) N the minimal certifying budget
    is computed and reported together with the state preparations it costs.
    """
    parameter = _as_parameter(parameter)
    n_list = list(n_list)
    for n in n_list:
        if n < 4 or n % 2:
            raise ValueError("qubit numbers must be even and >= 4")
    rule = _t_rule(t_rule)
    out = {}
    for scheme in Scheme:
        rows = []
        for n in n_list:
            res = required_budget(scheme, parameter, n, t=rule(n), gamma=gamma)
            rows.append({
                "n": n,
                "budget": res.budget,
                "total_preparations": res.total_preparations,
            })
        out[scheme.value] = rows
    return out


# --------------------------------------------------------------------------
# artifact output
# --------------------------------------------------------------------------


def config_hash(config: Mapping) -> str:
    """sha256 over the canonical JSON form of a config mapping."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode()).hexdigest()


def _stats_doc(stats: TrialStats) -> dict:
    doc = {
        "schema": "spinsq-trialstats",
        "schema_version": SCHEMA_VERSION,
        "config_hash": config_hash(stats.config),
    }
    doc.update(stats.to_json())
    return doc


def write_trial_stats(stats: TrialStats, dest) -> None:
    """JSON artifact with schema version, seed and config hash embedded."""
    with open(dest, "w", encoding="utf-8") as fh:
        json.dump(_stats_doc(stats), fh, indent=2)
        fh.write("\n")


def write_histogram(stats: TrialStats, dest) -> None:
    """CSV histogram artifact: one row per bin plus out-of-range tallies."""
    h = stats.histogram
    with open(dest, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# spinsq-histogram schema={SCHEMA_VERSION}\n")
        fh.write(f"# seed={stats.seed} config_hash={config_hash(stats.config)}\n")
        fh.write(f"# underflow={h['underflow']} overflow={h['overflow']}\n")
        fh.write("bin_lo,bin_hi,count\n")
        edges = h["edges"]
        for i, count in enumerate(h["counts"]):
            fh.write(f"{edges[i]!r},{edges[i + 1]!r},{count}\n")


def write_sweep(rows, dest, *, kind, seed=None, config=None) -> None:
    """CSV sweep artifact; columns are the union of the row keys."""
    if not rows:
        raise ValueError("nothing to write")
    columns = list(rows[0])
    for row in rows[1:]:
        for key in row:
            if key not in columns:
                columns.append(key)
    with open(dest, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# spinsq-sweep schema={SCHEMA_VERSION} kind={kind}\n")
        if seed is not None:
            fh.write(f"# seed={seed}\n")
        if config is not None:
            fh.write(f"# config_hash={config_hash(config)}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_cell(row.get(c)) for c in columns) + "\n")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)
