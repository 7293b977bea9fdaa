"""Command-line surface: sampling, estimation, error analysis, sweeps.

Subcommands: ``sample`` (write a measurement dataset), ``estimate`` (compose
a parameter estimate from dataset files), ``variance`` (analytic error
report), ``samplesize`` (certification budget planner), ``mc`` (trial
simulation), ``sweep`` (bundled reference artifacts).

Configuration may come from flags or an optional ``key=value`` file given
with ``--config``; flags take precedence.  The seed falls back to the
``SPINSQ_SEED`` environment variable and then to 0.  Exit codes: 0 success,
2 validation failure, 1 I/O failure, with a JSON error object on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .hypothesis import p_value_bound, required_budget, separable_bound
from .montecarlo import (
    child_generator,
    config_hash,
    run_trials,
    state_spec,
    sweep_noise,
    sweep_sample_size,
    write_histogram,
    write_sweep,
    write_trial_stats,
    _stats_doc,
    _t_rule,
)
from .schemes import (  # noqa: F401 - _cmd_sample calls the collectors by name
    SCHEMA_VERSION,
    Parameter,
    Scheme,
    collect_all_pairs,
    collect_random_pairs,
    collect_random_split,
    collect_split_single,
    collect_total_spin,
    estimate_parameter,
    read_dataset,
    write_dataset,
    _KIND_NAMES,
    _KINDS,
    _SCHEMES,
)
from .states import DepolarizedMixture, DickeState, ManyBodySinglet
from .variance import var_parameter

__all__ = ["main"]

_TABLE2_BUDGETS = {
    Scheme.TS: {"k": 7400},
    Scheme.AP1: {"k": 82},
    Scheme.AP2: {"k": 60},
    Scheme.RP1: {"l": 7400, "k": 1},
    Scheme.RP2: {"l": 2775, "k": 2},
}

_PATTERNS = {
    **{kind.alias: name for name, kind in _KINDS.items()},
    **{name: name for name in _KINDS},
}

_CONFIG_TYPES = {
    "k": int,
    "l": int,
    "trials": int,
    "seed": int,
    "threads": int,
    "n": int,
    "bins": int,
    "gamma": float,
    "variance": float,
    "bin_width": float,
}


# --------------------------------------------------------------------------
# configuration plumbing
# --------------------------------------------------------------------------


def _parse_state(spec: str):
    """``family:N[:m][:p]`` -> state model (families: dicke, singlet)."""
    def bad(why):
        return ValueError(f"bad state spec {spec!r}: {why}")

    tokens = spec.split(":")
    family, rest = tokens[0].lower(), tokens[1:]
    if family not in ("dicke", "singlet"):
        raise bad("expected family dicke or singlet")
    if not rest:
        raise bad("missing qubit count")
    try:
        n = int(rest[0])
    except ValueError:
        raise bad(f"qubit count must be an integer, got {rest[0]!r}") from None
    if n < 2:
        raise bad(f"need N >= 2 qubits, got {n}")
    rest = rest[1:]

    if family == "dicke":
        m = n // 2
        if rest and _is_int(rest[0]):
            m = int(rest[0])
            rest = rest[1:]
        state = DickeState(n, m)
    else:
        state = ManyBodySinglet(n)

    if rest:
        try:
            p = float(rest[0])
        except ValueError:
            raise bad(f"visibility must be a number, got {rest[0]!r}") from None
        state = DepolarizedMixture(state, p)
        rest = rest[1:]
    if rest:
        raise bad(f"unexpected trailing tokens {':'.join(rest)!r}")
    return state


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def _apply_config_file(args) -> None:
    """Fill unset flags from a plain key=value file (flags win)."""
    path = getattr(args, "config", None)
    if not path:
        return
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(
                    f"{path}:{lineno}: expected key=value, got {line!r}"
                )
            key = key.strip().replace("-", "_")
            value = value.strip()
            if not hasattr(args, key) or key in ("config", "func", "command"):
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if getattr(args, key) is None:
                setattr(args, key, _CONFIG_TYPES.get(key, str)(value))


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SPINSQ_SEED", "").strip()
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"SPINSQ_SEED must be an integer, got {env!r}") from None
    return 0


def _require(args, name: str):
    value = getattr(args, name.replace("-", "_"), None)
    if value is None:
        raise ValueError(f"--{name} is required for this command")
    return value


def _emit(doc: dict, args) -> None:
    text = json.dumps(doc, indent=2, default=str)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_sample(args) -> int:
    state = _parse_state(_require(args, "state"))
    kind = _PATTERNS.get(args.pattern)
    if kind is None:
        raise ValueError(
            f"unknown pattern {args.pattern!r}; expected one of {sorted(_PATTERNS)}"
        )
    seed = _seed(args)
    rng = child_generator(seed, 0)
    budget = {name: _require(args, name) for name in _KINDS[kind].budget}
    # looked up in this module at call time, as a direct call by name would
    # be, so that a wrapper installed on the name sees the call
    collect = globals()[_KINDS[kind].collect.__name__]
    ds = collect(state, rng=rng, **budget)
    config = {
        "command": "sample",
        "pattern": kind,
        "state": state_spec(state),
        "k": args.k,
        "l": args.l,
        "seed": seed,
    }
    meta = {"state": state_spec(state), "seed": seed, "config_hash": config_hash(config)}
    write_dataset(ds, _require(args, "out"), meta)
    return 0


def _cmd_estimate(args) -> int:
    scheme = Scheme(_require(args, "scheme"))
    parameter = Parameter.parse(_require(args, "param"))
    datasets = {}
    for path in args.files:
        ds = read_dataset(path)
        key = _KIND_NAMES[type(ds)]
        if key in datasets:
            raise ValueError(f"duplicate {key!r} dataset: {path}")
        datasets[key] = ds
    result = estimate_parameter(scheme, parameter, datasets)

    config = {
        "command": "estimate",
        "scheme": scheme.value,
        "parameter": parameter.label(),
        "budget": dict(result.budget),
        "files": [os.path.basename(str(p)) for p in args.files],
    }
    doc = {
        "schema": "spinsq-estimate",
        "schema_version": SCHEMA_VERSION,
        "config_hash": config_hash(config),
    }
    doc.update(result.as_dict())

    variance = args.variance
    if variance is None and args.state is not None:
        state = _parse_state(args.state)
        if state.n_qubits != next(iter(datasets.values())).n_qubits:
            raise ValueError(
                "state spec and datasets disagree on the number of qubits"
            )
        variance = var_parameter(state, scheme, parameter, **result.budget).value
    if variance is not None:
        n = next(iter(datasets.values())).n_qubits
        bound = separable_bound(parameter, n)
        doc["variance"] = float(variance)
        doc["separable_bound"] = bound.bound
        doc["p_value_bound"] = p_value_bound(result.value, bound, float(variance))
    _emit(doc, args)
    return 0


def _cmd_variance(args) -> int:
    state = _parse_state(_require(args, "state"))
    scheme = Scheme(_require(args, "scheme"))
    parameter = Parameter.parse(_require(args, "param"))
    budget = {name: _require(args, name) for name in _SCHEMES[scheme].budget}
    report = var_parameter(state, scheme, parameter, **budget)
    config = {
        "command": "variance",
        "state": state_spec(state),
        "scheme": scheme.value,
        "parameter": parameter.label(),
        "budget": dict(report.budget),
    }
    doc = {
        "schema": "spinsq-variance",
        "schema_version": SCHEMA_VERSION,
        "config_hash": config_hash(config),
    }
    doc.update(report.to_json())
    _emit(doc, args)
    return 0


def _cmd_samplesize(args) -> int:
    scheme = Scheme(_require(args, "scheme"))
    parameter = Parameter.parse(_require(args, "param"))
    n = _require(args, "n")
    gamma = 0.95 if args.gamma is None else args.gamma
    rule = _t_rule(args.t_rule or "0.1halfN")
    result = required_budget(scheme, parameter, n, t=rule(n), gamma=gamma)
    config = {
        "command": "samplesize",
        "scheme": scheme.value,
        "parameter": parameter.label(),
        "n": n,
        "gamma": gamma,
        "t": result.t,
    }
    doc = {
        "schema": "spinsq-samplesize",
        "schema_version": SCHEMA_VERSION,
        "config_hash": config_hash(config),
    }
    doc.update(result.to_json())
    _emit(doc, args)
    return 0


def _cmd_mc(args) -> int:
    state = _parse_state(_require(args, "state"))
    scheme = Scheme(_require(args, "scheme"))
    parameter = Parameter.parse(_require(args, "param"))
    seed = _seed(args)
    budget = {name: _require(args, name) for name in _SCHEMES[scheme].budget}
    stats = run_trials(
        state, scheme, parameter,
        trials=_require(args, "trials"),
        master_seed=seed,
        threads=args.threads or 0,
        bins=99 if args.bins is None else args.bins,
        bin_width=args.bin_width,
        **budget,
    )
    fmt = args.format or "json"
    if fmt == "csv":
        write_histogram(stats, _require(args, "out"))
    elif args.out:
        write_trial_stats(stats, args.out)
    else:
        print(json.dumps(_stats_doc(stats), indent=2))
    return 0


def _cmd_sweep(args) -> int:
    figure = _require(args, "figure")
    seed = _seed(args)
    out = _require(args, "out")
    parameter = Parameter("c")

    if figure == "table2":
        state = DickeState(10, 5)
        rows = []
        for scheme, budget in _TABLE2_BUDGETS.items():
            report = var_parameter(state, scheme, parameter, **budget)
            rows.append({
                "scheme": scheme.value,
                "k": budget.get("k"),
                "l": budget.get("l"),
                "variance": float(report.value),
            })
        config = {"command": "sweep", "figure": figure, "state": "dicke:10:5"}
    elif figure == "fig8":
        grid = [i / 10 for i in range(11)]
        rows = []
        for scheme, budget in _TABLE2_BUDGETS.items():
            for row in sweep_noise(scheme, parameter, 10, grid,
                                   trials=args.trials, master_seed=seed,
                                   threads=args.threads or 0, **budget):
                rows.append({"scheme": scheme.value, **row})
        config = {"command": "sweep", "figure": figure, "trials": args.trials,
                  "seed": seed}
    elif figure == "fig9":
        n_list = list(range(4, 21, 2))
        gamma = 0.95 if args.gamma is None else args.gamma
        table = sweep_sample_size(parameter, n_list,
                                  t_rule=args.t_rule or "0.1halfN", gamma=gamma)
        rows = [
            {"scheme": scheme, **row}
            for scheme, scheme_rows in table.items()
            for row in scheme_rows
        ]
        config = {"command": "sweep", "figure": figure, "gamma": gamma,
                  "n_list": n_list}
    else:
        raise ValueError(
            f"unknown figure {figure!r}; expected table2, fig8 or fig9"
        )

    write_sweep(rows, out, kind=figure, seed=seed, config=config)
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinsq",
        description="Collective-spin squeezing estimators: sampling, error "
                    "analysis and reproduction sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, flags):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if "state" in flags:
            p.add_argument("--state", help="state spec family:N[:m][:p]")
        if "scheme" in flags:
            p.add_argument("--scheme", choices=[s.value for s in Scheme])
        if "param" in flags:
            p.add_argument("--param", help="parameter kind a|b|c|d[:kxlymz]")
        if "budget" in flags:
            p.add_argument("--k", type=int, help="repetitions per setting")
            p.add_argument("--l", type=int, help="random settings per direction")
        if "trials" in flags:
            p.add_argument("--trials", type=int)
        if "seed" in flags:
            p.add_argument("--seed", type=int,
                           help="master seed (fallback: SPINSQ_SEED, then 0)")
        if "threads" in flags:
            p.add_argument("--threads", type=int, help="worker threads (0 = auto)")
        if "out" in flags:
            p.add_argument("--out", help="output file path")
        if "format" in flags:
            p.add_argument("--format", choices=["csv", "json"])
        p.add_argument("--config", help="key=value defaults file (flags win)")
        return p

    p = add("sample", _cmd_sample, "collect one dataset and write it as CSV",
            ["state", "budget", "seed", "out"])
    p.add_argument("--pattern", required=True,
                   help="dataset kind: " + "|".join(k.alias for k in _KINDS.values())
                   + " or full name")

    p = add("estimate", _cmd_estimate, "compose an estimate from dataset files",
            ["scheme", "param", "state", "out"])
    p.add_argument("files", nargs="+", help="dataset CSV files")
    p.add_argument("--variance", type=float,
                   help="known estimator variance for the p-value bound")

    add("variance", _cmd_variance, "analytic variance report",
        ["state", "scheme", "param", "budget", "out"])

    p = add("samplesize", _cmd_samplesize, "minimal certification budget",
            ["scheme", "param", "out"])
    p.add_argument("--n", type=int, help="number of qubits")
    p.add_argument("--gamma", type=float, help="confidence level (default 0.95)")
    p.add_argument("--t-rule", dest="t_rule",
                   help="margin rule, e.g. 0.1halfN (default)")

    p = add("mc", _cmd_mc, "run repeated end-to-end trials",
            ["state", "scheme", "param", "budget", "trials", "seed", "threads",
             "out", "format"])
    p.add_argument("--bins", type=int, help="histogram bin count (default 99)")
    p.add_argument("--bin-width", dest="bin_width", type=float)

    p = add("sweep", _cmd_sweep, "regenerate a bundled reference artifact",
            ["trials", "seed", "threads", "out"])
    p.add_argument("--figure", choices=["table2", "fig8", "fig9"])
    p.add_argument("--gamma", type=float)
    p.add_argument("--t-rule", dest="t_rule")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _apply_config_file(args)
        return args.func(args)
    except (ValueError, KeyError) as exc:
        _fail(exc)
        return 2
    except OSError as exc:
        _fail(exc)
        return 1


def _fail(exc: BaseException) -> None:
    json.dump({"error": str(exc), "type": type(exc).__name__}, sys.stderr)
    sys.stderr.write("\n")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
