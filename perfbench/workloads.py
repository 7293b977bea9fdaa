"""The benchmark's three closed-loop workloads, one client each.

Each workload builds its inputs from the workload seed, runs one untimed
warm-up op per scheme at the small budgets, and then runs passes over its
work list.  A pass returns one :class:`Op` per call into spinsq, with the
call's wall time and the result of its output check; ``finish`` applies the
checks that need every call of the run.  The workloads call
spinsq's public functions through their modules at call time, so a traced
run sees the wrappers the tracer installs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spinsq import cli, hypothesis, montecarlo
from spinsq.schemes import Parameter
from spinsq.states import DepolarizedMixture, DickeState
from spinsq.variance import parameter_value, var_parameter
from spans import SCHEMES

# the reference configuration's budgets (Table 2 of the paper)
TABLE2 = {
    "ts": {"k": 7400},
    "ap1": {"k": 82},
    "ap2": {"k": 60},
    "rp1": {"l": 7400, "k": 1},
    "rp2": {"l": 2775, "k": 2},
}
# budgets of the warm-up and of the --minimal mode the benchmark's tests use:
# small, yet large enough that the output checks hold for their seeds
SMALL = {
    "ts": {"k": 200},
    "ap1": {"k": 4},
    "ap2": {"k": 4},
    "rp1": {"l": 200, "k": 1},
    "rp2": {"l": 100, "k": 2},
}
FIG9_BUDGETS = Path(__file__).with_name("fig9_budgets.json")


@dataclass(frozen=True)
class Op:
    """One call into spinsq: its scheme, wall time, weight and check result."""

    scheme: str
    seconds: float
    weight: int  # trials in mc-reference, 1 elsewhere
    error: str | None  # why it failed, or None


def derive(seed: int, *keys: int) -> int:
    """A 32-bit seed determined by the workload seed and the keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def _timed(scheme, weight, call, check):
    """Run ``call`` as one op; an exception or a failed check marks it failed."""
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # a failed op is counted, not fatal
        return Op(scheme, time.perf_counter() - start, weight, f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    return Op(scheme, seconds, weight, check(result))


class Workload:
    def finish(self, ops):
        """The run's ops after the checks over the whole run; none by default."""
        return ops


class MonteCarloReference(Workload):
    """``run_trials`` at the reference configuration, rotating over the schemes.

    Timed calls run on ``threads`` threads (one, from the worker); the traced
    run adds a pass on every core for the parallel efficiency.

    A call of 100 trials keeps the op short enough for a steady median and
    tail (about 60 calls per scheme in a 36-s run), but its own check is
    loose (the variance within 85%).  So ``finish`` also checks each scheme's
    mean and variance over the pooled trials of all its calls in the run
    (about 6,000 in a 36-s run: the variance within about 11%) and fails all
    the scheme's ops if they miss.
    """

    name = "mc-reference"

    def __init__(self, seed, threads, minimal, workdir):
        self.seed = seed
        self.threads = threads
        self.state = DickeState(10, 5)
        self.parameter = Parameter("c")
        self.budgets = SMALL if minimal else TABLE2
        self.trials = 16 if minimal else 100
        self.target = float(parameter_value(self.state, self.parameter))
        self.variance = {
            s: float(var_parameter(self.state, s, self.parameter, **b).value)
            for s, b in self.budgets.items()
        }
        self.calls = defaultdict(list)  # scheme -> (mean, variance) of each call

    def warmup(self):
        for s in SCHEMES:
            montecarlo.run_trials(self.state, s, self.parameter, trials=8,
                                  master_seed=0, threads=self.threads, **SMALL[s])

    def _moments(self, scheme, mean, variance, trials):
        """Why a mean and sample variance over ``trials`` trials are wrong, or None."""
        var = self.variance[scheme]
        if abs(mean - self.target) > 6 * math.sqrt(var / trials):
            return f"mean {mean!r} is over 6 sigma from {self.target!r}"
        # a sample variance over T trials spreads by about sqrt(2 / (T - 1))
        tolerance = 6 * math.sqrt(2 / (trials - 1))
        if abs(variance / var - 1) > tolerance:
            return f"variance {variance!r} is not within {tolerance:.1%} of {var!r}"
        return None

    def _check(self, scheme, stats):
        self.calls[scheme].append((stats.mean, stats.empirical_variance))
        return self._moments(scheme, stats.mean, stats.empirical_variance, self.trials)

    def finish(self, ops):
        errors = {}
        for s, calls in self.calls.items():
            trials = self.trials * len(calls)
            mean = math.fsum(m for m, _ in calls) / len(calls)
            squares = math.fsum((self.trials - 1) * v + self.trials * (m - mean) ** 2
                                for m, v in calls)
            error = self._moments(s, mean, squares / (trials - 1), trials)
            if error:
                errors[s] = f"over the run's {trials} trials, {error}"
        return [dataclasses.replace(op, error=op.error or errors[op.scheme])
                if op.scheme in errors else op for op in ops]

    def run_pass(self, index, tracer=None, threads=None):
        ops = []
        for i, s in enumerate(SCHEMES):
            if tracer:
                tracer.begin_op(s, self.trials)
            master = derive(self.seed, index, i)
            ops.append(_timed(
                s, self.trials,
                lambda: montecarlo.run_trials(
                    self.state, s, self.parameter, trials=self.trials, master_seed=master,
                    threads=threads or self.threads, **self.budgets[s]),
                lambda stats: self._check(s, stats)))
        return ops


class PlannerFig9(Workload):
    """``required_budget`` for every scheme and N behind ``sweep --figure fig9``.

    The planner has no random input; the seed does not change the work list.
    """

    name = "planner-fig9"

    def __init__(self, seed, threads, minimal, workdir):
        self.parameter = Parameter("c")
        self.ns = (4,) if minimal else tuple(range(4, 21, 2))
        with open(FIG9_BUDGETS, encoding="utf-8") as fh:
            self.expected = json.load(fh)

    def warmup(self):
        for s in SCHEMES:
            hypothesis.required_budget(s, self.parameter, 4, gamma=0.95)

    def _check(self, scheme, n, result):
        want = self.expected[scheme][str(n)]
        if result.budget != want:
            return f"{scheme} N={n}: budget {result.budget}, expected {want}"
        return None

    def run_pass(self, index, tracer=None):
        # N outside, schemes inside: each scheme's calls are spread over the
        # whole pass, so a drift in the host's speed moves every scheme alike
        ops = []
        for n in self.ns:
            for s in SCHEMES:
                if tracer:
                    tracer.begin_op(s)
                ops.append(_timed(
                    s, 1,
                    lambda: hypothesis.required_budget(s, self.parameter, n, gamma=0.95),
                    lambda result: self._check(s, n, result)))
        return ops


class CliRoundtrip(Workload):
    """In-process ``spinsq sample`` then ``spinsq estimate --state`` per scheme.

    Every pattern of a scheme gets its own ``--seed``: with a shared seed the
    pair and split blocks would draw the same uniform stream, which the
    estimator's independence check cannot detect.  A pass repeats the cheap
    schemes' round trips (``REPEATS``) so that each scheme gets about a second
    of round trips, and enough samples, per pass: with the per-slot collectors
    one rp1 round trip takes 4-5 s on a 2-vCPU Xeon, a ts one under 0.1 s.
    """

    name = "cli-roundtrip"
    STATE = "dicke:10:5:0.9"
    PATTERNS = {"ts": ("ts",), "ap1": ("ap",), "ap2": ("ap", "split"),
                "rp1": ("rp",), "rp2": ("rp", "rsplit")}
    REPEATS = {"ts": 10, "ap1": 5, "ap2": 4, "rp1": 1, "rp2": 1}

    def __init__(self, seed, threads, minimal, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.budgets = SMALL if minimal else TABLE2
        state = DepolarizedMixture(DickeState(10, 5), 0.9)
        self.target = float(parameter_value(state, Parameter("c")))  # 25.25

    def warmup(self):
        for i, s in enumerate(SCHEMES):
            self._round_trip(s, SMALL[s], (i,), None)

    def _main(self, argv, tracer):
        if not tracer:
            return cli.main(argv)
        with tracer.span(f"cli.{argv[0]}"):
            code = cli.main(argv)
        if code:
            tracer.fail("cli")
        return code

    def _round_trip(self, scheme, budget, keys, tracer):
        flags = [f"--{name}={value}" for name, value in sorted(budget.items())]
        paths = []
        for j, pattern in enumerate(self.PATTERNS[scheme]):
            path = str(self.workdir / f"{scheme}-{pattern}.csv")
            paths.append(path)
            code = self._main(["sample", f"--state={self.STATE}", f"--pattern={pattern}", *flags,
                               f"--seed={derive(self.seed, *keys, j)}", f"--out={path}"], tracer)
            if code:
                raise RuntimeError(f"spinsq sample --pattern {pattern} exited {code}")
        out = str(self.workdir / f"{scheme}-estimate.json")
        code = self._main(["estimate", *paths, f"--scheme={scheme}", "--param=c",
                           f"--state={self.STATE}", f"--out={out}"], tracer)
        if code:
            raise RuntimeError(f"spinsq estimate exited {code}")
        return out

    def _check(self, out):
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        value, variance = doc["value"], doc["variance"]
        if not abs(value - self.target) <= 6 * math.sqrt(variance):
            return f"estimate {value!r} is over 6 sigma (variance {variance!r}) from {self.target!r}"
        return None

    def run_pass(self, index, tracer=None):
        # the k-th of a scheme's R round trips runs at (k + 0.5) / R of the
        # pass, so a drift in the host's speed moves every scheme alike
        order = sorted(((rep + 0.5) / self.REPEATS[s], i, rep, s)
                       for i, s in enumerate(SCHEMES) for rep in range(self.REPEATS[s]))
        ops = []
        for _, i, rep, s in order:
            if tracer:
                tracer.begin_op(s)
            ops.append(_timed(
                s, 1, lambda: self._round_trip(s, self.budgets[s], (index, i, rep), tracer),
                self._check))
        return ops


# name -> class; a class is built as cls(seed, threads, minimal, workdir)
WORKLOADS = {w.name: w for w in (MonteCarloReference, PlannerFig9, CliRoundtrip)}
