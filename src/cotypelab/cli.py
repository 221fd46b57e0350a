"""Experiment runner: every operation behind one reproducible command line.

Reports are JSON with sorted keys so identical configs give identical
bytes; wall-clock runtime goes to the console only. Check-producing
commands also write the CSV ledger (columns fixed: suite, name, params,
lhs, rhs, slack, pass) and exit with the number of failed checks.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .checks import CSV_COLUMNS, InequalityCheck, check_order
from .cotype import (
    b_quantity_search,
    exhaustive_b_two_point,
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
    EvenKError,
    NotFoundError,
    OddEllError,
    OddMError,
    SchemaViolationError,
    UnknownCommandError,
)
from .gridops import random_point_values
from .harmonic import GridFunction
from .plotting import emit_plot
from .spaces import (
    TorusDomain,
    load_metric_space,
    torus_space,
    two_point_space,
)
from .verify import run_suite

DEFAULT_BUDGET = 1 << 20


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    params: dict
    seed: int = 0
    budget: int = DEFAULT_BUDGET
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
            "seed": self.config.seed,
            "budget": self.config.budget,
            "mode": self.mode,
            "results": _jsonable(self.results),
            "version": self.version,
        }
        if self.checks:
            out["checks"] = [
                {
                    "name": c.name,
                    "params": _jsonable(dict(c.params)),
                    "lhs": float(c.lhs),
                    "rhs": float(c.rhs),
                    "slack": float(c.slack),
                    "pass": bool(c.passed),
                }
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


def _need(params: dict, key: str, kind, path_root: str = "$.params"):
    if key not in params or params[key] is None:
        raise SchemaViolationError(f"missing required parameter {key!r}",
                                   json_path=f"{path_root}.{key}")
    try:
        return kind(params[key])
    except (TypeError, ValueError) as exc:
        raise SchemaViolationError(f"parameter {key!r}: {exc}",
                                   json_path=f"{path_root}.{key}") from exc


def _opt(params: dict, key: str, kind, default):
    if key not in params or params[key] is None:
        return default
    return _need(params, key, kind)


def _even(name: str, value: int) -> int:
    if value % 2 != 0:
        raise SchemaViolationError(f"{name} must be even, got {value}",
                                   json_path=f"$.params.{name}")
    return value


def _load_space(params: dict):
    path = params.get("space")
    if path is None:
        return two_point_space()
    return load_metric_space(path)


# ---------------------------------------------------------------- commands

def _cmd_gamma_hilbert(cfg: ExperimentConfig):
    n = _need(cfg.params, "n", int)
    m = _even("m", _need(cfg.params, "m", int))
    value, kstar = gamma_hilbert_exact(n, m)
    return {"gamma": value, "argmax_frequency": list(kstar),
            "n": n, "m": m}, [], "exact"


def _cmd_gamma_exhaustive(cfg: ExperimentConfig):
    n = _need(cfg.params, "n", int)
    m = _even("m", _need(cfg.params, "m", int))
    p = _opt(cfg.params, "p", float, 2.0)
    q = _opt(cfg.params, "q", float, 2.0)
    rep = gamma_exhaustive_two_point(n, m, p, q, budget=cfg.budget)
    return rep.to_json_dict(), [], "exact"


def _cmd_gamma_search(cfg: ExperimentConfig):
    n = _need(cfg.params, "n", int)
    m = _even("m", _need(cfg.params, "m", int))
    p = _opt(cfg.params, "p", float, 2.0)
    q = _opt(cfg.params, "q", float, 2.0)
    space = _load_space(cfg.params)
    rep = gamma_search(space, n, m, p, q, cfg.budget, cfg.seed)
    return rep.to_json_dict(), [], "lower-bound"


def _cmd_bq(cfg: ExperimentConfig):
    n = _need(cfg.params, "n", int)
    m = _even("m", _need(cfg.params, "m", int))
    ell = _even("ell", _need(cfg.params, "ell", int))
    space = _load_space(cfg.params)
    if cfg.params.get("exhaustive") and space.size == 2:
        rep = exhaustive_b_two_point(n, ell, m, cfg.budget)
        return rep.to_json_dict(), [], "exact"
    rep = b_quantity_search(space, n, ell, m, cfg.budget, cfg.seed)
    return rep.to_json_dict(), [], "lower-bound"


def _cmd_mod_check(cfg: ExperimentConfig):
    n = _need(cfg.params, "n", int)
    m = _even("m", _need(cfg.params, "m", int))
    a = _opt(cfg.params, "a", int, 0)
    r = _need(cfg.params, "r", int)
    trials = _opt(cfg.params, "trials", int, 100)
    space = _load_space(cfg.params)
    dom = TorusDomain(n=n, m=m)
    rng = np.random.default_rng(cfg.seed)
    checks = []
    for t in range(trials):
        f = GridFunction.points(dom, random_point_values(dom, space.size, rng))
        chk = mod_inequality_check(f, space, a, r)
        checks.append(InequalityCheck(
            name=chk.name, params={**chk.params, "trial": t},
            lhs=chk.lhs, rhs=chk.rhs, tolerance=chk.tolerance))
    checks.sort(key=check_order)
    worst = min(c.slack for c in checks) if checks else 0.0
    return {"trials": trials, "worst_slack": worst}, checks, "sampled"


def _cmd_verify(cfg: ExperimentConfig):
    suite = _opt(cfg.params, "suite", str, "all")
    trials = _opt(cfg.params, "trials", int, None)
    if trials is not None and trials < 1:
        # a *-worst check over no trials has no worst case to report
        raise SchemaViolationError(f"trials must be >= 1, got {trials}",
                                   json_path="$.params.trials")
    seed = _opt(cfg.params, "seed", int, None)
    checks = run_suite(suite, seed=seed, trials=trials)
    return {"suite": suite, "checks_run": len(checks)}, checks, "suite"


def _cmd_embed(cfg: ExperimentConfig):
    kind = _need(cfg.params, "kind", str)
    m = _even("m", _need(cfg.params, "m", int))
    if kind == "frechet":
        rec = frechet_cycle(m)
    elif kind == "sparse":
        eps = _need(cfg.params, "eps", float)
        rec = sparse_frechet_cycle(m, eps)
    elif kind == "grid-torus":
        n = _need(cfg.params, "n", int)
        rec = grid_to_torus(m, n, budget=cfg.budget)
    else:
        raise UnknownCommandError(f"no embed kind named {kind!r}")
    return rec.to_json_dict(), [], "exact"


def _cmd_extract_grid(cfg: ExperimentConfig):
    n = _need(cfg.params, "n", int)
    m = _even("m", _need(cfg.params, "m", int))
    s = _need(cfg.params, "s", int)
    if s % 4 != 0:
        raise SchemaViolationError(f"s must be divisible by 4, got {s}",
                                   json_path="$.params.s")
    dom = TorusDomain(n=n, m=m)
    require_defect_budget(dom, s)  # before the witness and its edge tables
    f = GridFunction.points(dom, np.arange(dom.points, dtype=np.int64))
    rec, info = extract_grid(f, torus_space(dom), s)
    return {"embedding": rec.to_json_dict(), "extraction": _jsonable(info)}, [], "exact"


def _cmd_moduli_check(cfg: ExperimentConfig):
    n = _need(cfg.params, "n", int)
    m = _even("m", _need(cfg.params, "m", int))
    p = _opt(cfg.params, "p", float, 2.0)
    q = _opt(cfg.params, "q", float, 2.0)
    r = _opt(cfg.params, "r", float, 2.0)
    s_scale = _opt(cfg.params, "s", float, 1.0)
    trials = _opt(cfg.params, "trials", int, 50)
    space = _load_space(cfg.params)
    dom = TorusDomain(n=n, m=m)
    rng = np.random.default_rng(cfg.seed)
    checks = []
    for t in range(trials):
        vals = random_point_values(dom, space.size, rng)
        chk = coarse_obstruction_check(vals, space, n, m, p, q, r, s_scale)
        checks.append(InequalityCheck(
            name=chk.name, params={**chk.params, "trial": t},
            lhs=chk.lhs, rhs=chk.rhs, tolerance=chk.tolerance))
    checks.sort(key=check_order)
    return {"trials": trials}, checks, "sampled"


def _cmd_bounds(cfg: ExperimentConfig):
    kind = _need(cfg.params, "kind", str)
    if kind == "shift-growth":
        n0 = _need(cfg.params, "n0", int)
        ell0 = _need(cfg.params, "ell0", int)
        n = _need(cfg.params, "n", int)
        value = shift_growth_bound(n0, ell0, n)
        return {"kind": kind, "value": value, "n0": n0, "ell0": ell0,
                "n": n}, [], "formula"
    if kind == "grid-distortion":
        n = _need(cfg.params, "n", int)
        q = _need(cfg.params, "q", float)
        if cfg.params.get("K") is not None:
            K = _need(cfg.params, "K", float)
        else:
            m = _even("m", _need(cfg.params, "m", int))
            K, _ = gamma_hilbert_exact(n, m)
        value = grid_distortion_bound(n, q, K)
        return {"kind": kind, "value": value, "n": n, "q": q,
                "K": K}, [], "formula"
    raise UnknownCommandError(f"no bounds kind named {kind!r}")


def _cmd_plot(cfg: ExperimentConfig):
    kind = _need(cfg.params, "kind", str)
    path = cfg.plot
    if path is None:
        raise SchemaViolationError("plot needs a --plot path",
                                   json_path="$.plot")
    if kind == "gamma-vs-m":
        n = _need(cfg.params, "n", int)
        m_max = _even("m-max", _need(cfg.params, "m_max", int))
        pts = []
        for m in range(2, m_max + 1, 2):
            g, _ = gamma_hilbert_exact(n, m)
            pts.append((float(m), g))
        ref = ("sqrt(6)/pi", float(np.sqrt(6.0) / np.pi))
        emit_plot([(f"n={n}", pts)], path, title="Hilbert cotype constant",
                  xlabel="m", ylabel="gamma", reference=ref)
        return {"kind": kind, "points": pts, "file": str(path)}, [], "exact"
    if kind == "distortion-vs-n":
        m = _even("m", _need(cfg.params, "m", int))
        q = _opt(cfg.params, "q", float, 2.0)
        n_max = _need(cfg.params, "n_max", int)
        pts = []
        for n in range(1, n_max + 1):
            K, _ = gamma_hilbert_exact(n, m)
            pts.append((float(n), grid_distortion_bound(n, q, K)))
        emit_plot([(f"m={m}", pts)], path,
                  title="Distortion floor for torus bijections",
                  xlabel="n", ylabel="required distortion")
        return {"kind": kind, "points": pts, "file": str(path)}, [], "exact"
    raise UnknownCommandError(f"no plot kind named {kind!r}")


COMMANDS = {
    "gamma-hilbert": _cmd_gamma_hilbert,
    "gamma-exhaustive": _cmd_gamma_exhaustive,
    "gamma-search": _cmd_gamma_search,
    "bq": _cmd_bq,
    "mod-check": _cmd_mod_check,
    "verify": _cmd_verify,
    "embed": _cmd_embed,
    "extract-grid": _cmd_extract_grid,
    "moduli-check": _cmd_moduli_check,
    "bounds": _cmd_bounds,
    "plot": _cmd_plot,
}


def run(config: ExperimentConfig) -> Report:
    """Dispatch one experiment, write requested outputs, return the report."""
    if config.command not in COMMANDS:
        raise UnknownCommandError(f"no command named {config.command!r}")
    if config.budget < 1:
        raise SchemaViolationError(f"budget must be >= 1, got {config.budget}",
                                   json_path="$.budget")
    start = time.perf_counter()
    try:
        results, checks, mode = COMMANDS[config.command](config)
    except (OddMError, OddEllError, EvenKError) as exc:
        # precondition failures on CLI input surface as schema violations
        raise SchemaViolationError(str(exc), json_path="$.params") from exc
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

    def common(p: argparse.ArgumentParser, *, seeded: bool = True):
        p.add_argument("--out", help="JSON report path")
        p.add_argument("--csv", help="CSV check-ledger path")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
        if seeded:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gamma-hilbert", help="exact l2 constant, p = q = 2")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    common(p, seeded=False)

    p = sub.add_parser("gamma-exhaustive",
                       help="exact two-point maximum by enumeration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--q", type=float, default=2.0)
    common(p, seeded=False)

    p = sub.add_parser("gamma-search",
                       help="hill-climbed lower bound over a metric space")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--space", help="metric-space JSON file (default: two-point)")
    common(p)

    p = sub.add_parser("bq", help="diagonal-shift quantity search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--space")
    p.add_argument("--exhaustive", action="store_true")
    common(p)

    p = sub.add_parser("mod-check", help="wrapped-shift bound on random maps")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--space")
    common(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all",
                   choices=["harmonic", "cotype", "smoothing", "embeddings",
                            "all"])
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int,
                   help="seed for every suite (default: each suite's own)")
    common(p, seeded=False)

    p = sub.add_parser("embed", help="reference embeddings and their records")
    p.add_argument("kind", choices=["frechet", "sparse", "grid-torus"])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--eps", type=float)
    common(p, seeded=False)

    p = sub.add_parser("extract-grid",
                       help="grid extraction from the identity witness")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    common(p, seeded=False)

    p = sub.add_parser("moduli-check",
                       help="net-moduli obstruction on random maps")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--space")
    common(p)

    p = sub.add_parser("bounds", help="closed-form bound calculators")
    p.add_argument("kind", choices=["shift-growth", "grid-distortion"])
    p.add_argument("--n", type=int)
    p.add_argument("--n0", type=int)
    p.add_argument("--ell0", type=int)
    p.add_argument("--q", type=float)
    p.add_argument("--K", type=float)
    p.add_argument("--m", type=int)
    common(p, seeded=False)

    p = sub.add_parser("plot", help="emit an SVG curve")
    p.add_argument("kind", choices=["gamma-vs-m", "distortion-vs-n"])
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--m-max", dest="m_max", type=int)
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--q", type=float)
    p.add_argument("--plot", help="SVG output path")
    common(p, seeded=False)

    return top


_CONFIG_KEYS = {"command", "out", "csv", "plot", "budget", "seed"}


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    raw = vars(args)
    params = {k: v for k, v in raw.items()
              if k not in _CONFIG_KEYS and v is not None}
    if raw["command"] == "verify" and raw.get("seed") is not None:
        params["seed"] = raw["seed"]  # suites keep their own seeds otherwise
    return ExperimentConfig(
        command=raw["command"],
        params=params,
        seed=int(raw.get("seed") or 0),
        budget=int(raw.get("budget", DEFAULT_BUDGET)),
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
