"""Experiment runner: every operation behind one reproducible command line.

Reports are JSON with sorted keys so identical configs give identical
bytes; wall-clock runtime goes to the console only. The check commands
(mod-check, verify, moduli-check) also write the CSV ledger (columns
fixed: suite, name, params, lhs, rhs, slack, pass) and exit with the
number of failed checks. TABLE declares every command and parameter.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import __version__
from .checks import CSV_COLUMNS, InequalityCheck, check_order
from .cotype import (
    DEFAULT_BUDGET,
    b_quantity_search,
    exhaustive_b,
    gamma_exhaustive_two_point,
    gamma_hilbert_exact,
    gamma_search,
    grid_distortion_bound,
    mod_inequality_check,
    shift_growth_bound,
)
from .embeddings import (
    coarse_obstruction_check,
    extract_grid,
    frechet_cycle,
    grid_to_torus,
    require_defect_budget,
    sparse_frechet_cycle,
)
from .errors import (
    CotypeLabError,
    NotFoundError,
    SchemaViolationError,
    UnknownCommandError,
)
from .gridops import random_point_values
from .harmonic import GridFunction
from .plotting import emit_plot
from .spaces import (
    TorusDomain,
    load_metric_space,
    require_budget,
    require_float,
    torus_space,
    two_point_space,
)
from .verify import SUITES, run_suite


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    params: dict
    out: str | None = None
    csv: str | None = None
    plot: str | None = None


@dataclass
class Report:
    config: ExperimentConfig
    results: dict
    mode: str
    checks: list[InequalityCheck] = field(default_factory=list)
    runtime: float = 0.0
    version: str = __version__

    @property
    def failures(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    def to_json_dict(self) -> dict:
        """Everything needed to re-run; runtime stays console-only."""
        out = {
            "command": self.config.command,
            "params": _jsonable(self.config.params),
            "mode": self.mode,
            "results": _jsonable(self.results),
            "version": self.version,
        }
        if self.checks:
            out["checks"] = [
                _jsonable({k: v for k, v in c.to_json_dict().items()
                           if k != "tolerance"})
                for c in self.checks
            ]
            out["failures"] = self.failures
        return out


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


@dataclass(frozen=True)
class Param:
    """One parameter of a command: a ``--name`` flag, or a positional."""
    name: str
    type: type = int
    default: object = None
    required: bool | str = False  # or the one kind that needs it
    even: bool = False
    least: int | None = None
    choices: tuple[str, ...] | None = None
    positional: bool = False
    help: str | None = None

    def typed(self, value):
        """A dict value as this type: no bool stands in for a number, no
        fraction for an integer and nothing but a bool for a flag."""
        bad = SchemaViolationError(
            f"{self.name} must be {self.type.__name__}, got {value!r}",
            json_path=f"$.params.{self.name}")
        if isinstance(value, (bool, np.bool_)) != (self.type is bool):
            raise bad
        try:
            typed = self.type(value)
        except (TypeError, ValueError) as exc:
            raise bad from exc
        if self.type is int and typed != value:
            raise bad
        return typed


def _kind(*choices: str) -> Param:
    """The positional that selects a command's variant."""
    return Param("kind", str, required=True, choices=choices, positional=True)


@dataclass(frozen=True)
class Command:
    """One subcommand: its handler, its parameters and the shared flags
    (of ``_FLAGS``) it reads; every command takes ``--out``."""
    name: str
    help: str
    handler: Callable
    params: tuple[Param, ...]
    flags: tuple[str, ...] = ()

    def __call__(self, cfg: ExperimentConfig):
        """The handler on typed, checked values, defaults filled in."""
        for key in sorted(cfg.params.keys() - {p.name for p in self.params}):
            raise SchemaViolationError(f"{self.name} has no parameter {key!r}",
                                       json_path=f"$.params.{key}")
        values = {}
        for par in self.params:
            raw = cfg.params.get(par.name)
            value = par.default if raw is None else par.typed(raw)
            path = f"$.params.{par.name}"
            if value is None:
                if par.required in (True, values.get("kind")):
                    raise SchemaViolationError(
                        f"missing required parameter {par.name!r}",
                        json_path=path)
            elif par.choices is not None and value not in par.choices:
                raise UnknownCommandError(
                    f"no {self.name} {par.name} named {value!r}")
            elif par.even and value % 2 != 0:
                raise SchemaViolationError(
                    f"{par.name} must be even, got {value}", json_path=path)
            elif par.least is not None and value < par.least:
                # no trials certify nothing, and no budget finds no maximum
                raise SchemaViolationError(
                    f"{par.name} must be >= {par.least}, got {value}",
                    json_path=path)
            values[par.name] = value
        return self.handler(cfg, **values)


def _load_space(path: str | None):
    return two_point_space() if path is None else load_metric_space(path)


# ---------------------------------------------------------------- commands

def _gamma_hilbert(cfg: ExperimentConfig, n, m):
    value, kstar = gamma_hilbert_exact(n, m)
    return {"gamma": value, "argmax_frequency": list(kstar),
            "n": n, "m": m}, [], "exact"


def _gamma_exhaustive(cfg: ExperimentConfig, n, m, p, q, budget):
    rep = gamma_exhaustive_two_point(n, m, p, q, budget)
    return rep.to_json_dict(), [], "exact"


def _gamma_search(cfg: ExperimentConfig, n, m, p, q, space, seed, budget):
    rep = gamma_search(_load_space(space), n, m, p, q, budget, seed)
    return rep.to_json_dict(), [], "lower-bound"


def _bq(cfg: ExperimentConfig, n, m, ell, space, exhaustive, seed, budget):
    space = _load_space(space)
    if exhaustive:
        rep = exhaustive_b(space, n, ell, m, budget)
        return rep.to_json_dict(), [], "exact"
    rep = b_quantity_search(space, n, ell, m, budget, seed)
    return rep.to_json_dict(), [], "lower-bound"


def _trial_checks(n, m, trials, space, seed, check) -> list[InequalityCheck]:
    """check(f, space) on `trials` seeded random point maps f of Z_m^n
    into the space, each tagged with its trial, in check order."""
    space = _load_space(space)
    dom = TorusDomain(n=n, m=m)
    rng = np.random.default_rng(seed)
    checks = (check(GridFunction.points(
        dom, random_point_values(dom, space.size, rng)), space)
        for _ in range(trials))
    return sorted((replace(c, params={**c.params, "trial": t})
                   for t, c in enumerate(checks)), key=check_order)


def _mod_check(cfg: ExperimentConfig, n, m, a, r, trials, space, seed):
    checks = _trial_checks(n, m, trials, space, seed, lambda f, sp:
                           mod_inequality_check(f, sp, a, r))
    worst = min(c.slack for c in checks)
    return {"trials": trials, "worst_slack": worst}, checks, "sampled"


def _moduli_check(cfg: ExperimentConfig, n, m, p, q, r, s, trials, space,
                  seed):
    checks = _trial_checks(n, m, trials, space, seed, lambda f, sp:
                           coarse_obstruction_check(f.values, sp, n, m, p, q,
                                                    r, s))
    return {"trials": trials}, checks, "sampled"


def _verify(cfg: ExperimentConfig, suite, trials, seed):
    checks = run_suite(suite, seed=seed, trials=trials)
    return {"suite": suite, "checks_run": len(checks)}, checks, "suite"


def _embed(cfg: ExperimentConfig, kind, m, n, eps):
    if kind == "frechet":
        rec = frechet_cycle(m)
    elif kind == "sparse":
        rec = sparse_frechet_cycle(m, eps)
    else:
        rec = grid_to_torus(m, n)
    return rec.to_json_dict(), [], "exact"


def _extract_grid(cfg: ExperimentConfig, n, m, s):
    if s % 4 != 0:
        raise SchemaViolationError(f"s must be divisible by 4, got {s}",
                                   json_path="$.params.s")
    dom = TorusDomain(n=n, m=m)
    # extract_grid makes this check too, but only after the identity witness
    # and torus coordinates built here (9 GiB at n = 9, m = 8)
    require_defect_budget(dom, s)
    f = GridFunction.points(dom, np.arange(dom.points, dtype=np.int64))
    rec, info = extract_grid(f, torus_space(dom), s)
    return {"embedding": rec.to_json_dict(), "extraction": _jsonable(info)}, [], "exact"


def _bounds(cfg: ExperimentConfig, kind, n, n0, ell0, q, K, m):
    if kind == "shift-growth":
        value = shift_growth_bound(n0, ell0, n)
        return {"kind": kind, "value": value, "n0": n0, "ell0": ell0,
                "n": n}, [], "formula"
    if K is None:  # the exact constant of the named cell
        if m is None:
            raise SchemaViolationError("grid-distortion needs --K or --m",
                                       json_path="$.params.m")
        K, _ = gamma_hilbert_exact(n, m)
    value = grid_distortion_bound(n, q, K)
    return {"kind": kind, "value": value, "n": n, "q": q,
            "K": K}, [], "formula"


def _plot(cfg: ExperimentConfig, kind, n, m, m_max, n_max, q):
    if cfg.plot is None:
        raise SchemaViolationError("plot needs a --plot path",
                                   json_path="$.plot")
    # before the first point: a point takes 520 bytes and 12 us (510 and 10.3 at
    # 10^5 points), an argmax 8 bytes a factor, a factor 60 ns (6.5-57 at n = 10^6)
    if kind == "gamma-vs-m":
        require_float("n", n)
        require_float("m_max", m_max)
        count = m_max // 2  # m = 2, 4, ..., m_max, each of n factors
        require_budget(f"a {count}-point plot", 520 * count + 8 * n,
                       count * (12e-6 + 60e-9 * n))
        pts = [(float(k), gamma_hilbert_exact(n, k)[0])
               for k in range(2, m_max + 1, 2)]
        ref = ("sqrt(6)/pi", float(np.sqrt(6.0) / np.pi))
        emit_plot([(f"n={n}", pts)], cfg.plot, title="Hilbert cotype constant",
                  xlabel="m", ylabel="gamma", reference=ref)
    else:
        require_float("n_max", n_max)  # n = 1, ..., n_max, each of n factors
        require_budget(f"a {n_max}-point plot", (520 + 8) * n_max,
                       n_max * (12e-6 + 60e-9 * (n_max + 1) / 2))
        pts = [(float(k), grid_distortion_bound(
            k, q, gamma_hilbert_exact(k, m)[0])) for k in range(1, n_max + 1)]
        emit_plot([(f"m={m}", pts)], cfg.plot,
                  title="Distortion floor for torus bijections",
                  xlabel="n", ylabel="required distortion")
    return {"kind": kind, "points": pts, "file": str(cfg.plot)}, [], "exact"


# ------------------------------------------------------------------ table

N = Param("n", required=True)
M = Param("m", required=True, even=True)
P = Param("p", float, 2.0)
Q = Param("q", float, 2.0)
SPACE = Param("space", str, help="metric-space JSON file (default: two-point)")
SEED = Param("seed", default=0)
BUDGET = Param("budget", default=DEFAULT_BUDGET, least=1,
               help="evaluations a maximum over maps may spend")

_FLAGS = {
    "csv": {"help": "CSV check-ledger path"},
    "plot": {"help": "SVG output path"},
}

TABLE = {c.name: c for c in (
    Command("gamma-hilbert", "exact l2 constant, p = q = 2",
            _gamma_hilbert, (N, M)),
    Command("gamma-exhaustive", "exact two-point maximum by enumeration",
            _gamma_exhaustive, (N, M, P, Q, BUDGET)),
    Command("gamma-search", "hill-climbed lower bound over a metric space",
            _gamma_search, (N, M, P, Q, SPACE, SEED, BUDGET)),
    Command("bq", "diagonal-shift quantity search", _bq,
            (N, M, Param("ell", required=True, even=True), SPACE,
             Param("exhaustive", bool, False,
                   help="exact maximum by enumeration over --space"),
             SEED, BUDGET)),
    Command("mod-check", "wrapped-shift bound on random maps", _mod_check,
            (N, M, Param("a", default=0), Param("r", required=True),
             Param("trials", default=100, least=1), SPACE, SEED), ("csv",)),
    Command("verify", "run a verification suite", _verify,
            (Param("suite", str, "all", choices=(*SUITES, "all")),
             Param("trials", least=1),
             Param("seed", help="seed for every suite "
                                "(default: each suite's own)")), ("csv",)),
    Command("embed", "reference embeddings and their records", _embed,
            (_kind("frechet", "sparse", "grid-torus"), M,
             Param("n", required="grid-torus"),
             Param("eps", float, required="sparse"))),
    Command("extract-grid", "grid extraction from the identity witness",
            _extract_grid, (N, M, Param("s", required=True))),
    Command("moduli-check", "net-moduli obstruction on random maps",
            _moduli_check,
            (N, M, P, Q, Param("r", float, 2.0), Param("s", float, 1.0),
             Param("trials", default=50, least=1), SPACE, SEED), ("csv",)),
    Command("bounds", "closed-form bound calculators", _bounds,
            (_kind("shift-growth", "grid-distortion"), N,
             Param("n0", required="shift-growth"),
             Param("ell0", required="shift-growth"),
             Param("q", float, required="grid-distortion"),
             Param("K", float), Param("m", even=True))),
    Command("plot", "emit an SVG curve", _plot,
            (_kind("gamma-vs-m", "distortion-vs-n"),
             Param("n", required="gamma-vs-m"),
             Param("m", even=True, required="distortion-vs-n"),
             Param("m_max", even=True, required="gamma-vs-m"),
             Param("n_max", required="distortion-vs-n"), Q), ("plot",)),
)}

# run() dispatches through this copy, so a test can swap one handler
COMMANDS = dict(TABLE)


def run(config: ExperimentConfig) -> Report:
    """Dispatch one experiment, write requested outputs, return the report."""
    if config.command not in COMMANDS:
        raise UnknownCommandError(f"no command named {config.command!r}")
    start = time.perf_counter()
    results, checks, mode = COMMANDS[config.command](config)
    report = Report(config=config, results=results, mode=mode, checks=checks,
                    runtime=time.perf_counter() - start)
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_json_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
    if config.csv and report.checks:
        with open(config.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            suite = config.params.get("suite", config.command)
            for chk in report.checks:
                writer.writerow(chk.csv_row(str(suite)))
    return report


# ------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cotypelab",
        description="numerical laboratory for cotype functionals on Z_m^n",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)
    for spec in TABLE.values():
        p = sub.add_parser(spec.name, help=spec.help)
        for par in spec.params:
            if par.positional:
                p.add_argument(par.name, choices=par.choices)
            elif par.type is bool:
                p.add_argument(f"--{par.name}", action="store_true",
                               help=par.help)
            else:
                p.add_argument(f"--{par.name.replace('_', '-')}",
                               dest=par.name, type=par.type,
                               default=par.default, choices=par.choices,
                               required=par.required is True, help=par.help)
        p.add_argument("--out", help="JSON report path")
        for flag in spec.flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return top


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    raw = vars(args)
    params = {par.name: raw[par.name] for par in TABLE[raw["command"]].params
              if raw.get(par.name) is not None}
    return ExperimentConfig(
        command=raw["command"],
        params=params,
        out=raw.get("out"),
        csv=raw.get("csv"),
        plot=raw.get("plot"),
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config = config_from_args(args)
    try:
        report = run(config)
    except NotFoundError as exc:
        print(f"not found: {exc}", file=sys.stderr)
        return 1
    except CotypeLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    body = json.dumps(report.to_json_dict(), sort_keys=True, indent=2)
    print(body)
    print(f"runtime: {report.runtime:.3f}s", file=sys.stderr)
    if report.checks:
        status = "all passed" if report.failures == 0 else \
            f"{report.failures} FAILED"
        print(f"checks: {len(report.checks)} run, {status}", file=sys.stderr)
    return report.failures


if __name__ == "__main__":
    sys.exit(main())
