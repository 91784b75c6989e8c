"""Command-line front end.

Subcommands:
  walk          single-realization position distribution at one T
  ensemble      quenched average at one T
  sweep         quenched averages over a T grid plus a scaling fit
  fit           scaling fit of an existing ensemble-point CSV
  table-means   exponents for Poisson jump laws with means 0.5/1.0/1.5/2.0
  table-classes exponents for the six unit-mean binomial/hypergeometric/
                negative-binomial/geometric configurations
  static-sweep  per-site (static) disorder sweep with norm bookkeeping

Every run is a pure function of its flags, config file, and master seed:
re-running writes byte-identical CSVs.  Exit codes: 0 success, 2 usage
error, 3 numerical or domain error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from . import __version__
from .distributions import (
    PARAM_KEYS,
    DistributionSpec,
    family_mean_variance,
    truncate,
)
from .ensemble import (
    RNG_IDENTITY,
    derive_seed,
    EnsemblePoint,
    quenched_average,
    sample_dynamic_realization,
    static_quenched_average,
)
from .scaling import classify_exponent, exponent, fit_line, loglog_points, std_dev
from .walk import hadamard, position_distribution, run_dynamic

__all__ = ["main", "parse_dist_spec", "parse_grid"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3

DEFAULT_SEED = 42
DEFAULT_N = 4000
DEFAULT_GRID = "4:24:+2"
DEFAULT_ORDERED_GRID = "10:640:x2"
DEFAULT_STATIC_GRID = "2:40:+2"

# Integer-valued distribution parameters; everything else parses as float.
_INT_PARAMS = {"n", "N", "K", "r", "j", "rmax"}


class SpecError(ValueError):
    """Malformed CLI input text (a usage error, not a domain error)."""


def parse_dist_spec(text: str) -> DistributionSpec:
    """Parse ``family:key=value{,key=value}`` into a DistributionSpec.

    Accepts the optional ``tol=`` suffix and the ``rmax=`` extension that
    pins the effective maximal jump.
    """
    if not text or not text.strip():
        raise SpecError("empty distribution spec")
    head, sep, rest = text.partition(":")
    family = head.strip()
    if family not in PARAM_KEYS:
        raise SpecError(
            f"unknown distribution family {family!r} "
            f"(expected one of {', '.join(PARAM_KEYS)})"
        )
    if not sep or not rest.strip():
        raise SpecError(f"distribution spec {text!r} has no parameters")
    params: dict = {}
    tol = None
    r_max = None
    for token in rest.split(","):
        key, eq, value = token.partition("=")
        key = key.strip()
        value = value.strip()
        if not eq or not key or not value:
            raise SpecError(f"malformed parameter token {token!r} in {text!r}")
        try:
            parsed = int(value) if key in _INT_PARAMS else float(value)
        except ValueError:
            raise SpecError(f"parameter {key!r} has non-numeric value {value!r}") from None
        if key == "tol":
            tol = parsed
        elif key == "rmax":
            r_max = parsed
        elif key in PARAM_KEYS[family]:
            params[key] = parsed
        else:
            raise SpecError(f"parameter {key!r} does not belong to family {family!r}")
    kwargs = {} if tol is None else {"tail_tolerance": tol}
    return DistributionSpec(family, params, r_max=r_max, **kwargs)


def parse_grid(text: str) -> list[int]:
    """Parse ``start:stop:x<factor>`` (geometric) or ``start:stop:+<step>``."""
    parts = text.split(":")
    if len(parts) != 3:
        raise SpecError(f"grid {text!r} must look like start:stop:x2 or start:stop:+2")
    try:
        start, stop = int(parts[0]), int(parts[1])
    except ValueError:
        raise SpecError(f"grid bounds in {text!r} must be integers") from None
    rule = parts[2].strip()
    if start < 1 or stop < start:
        raise SpecError(f"grid {text!r} must satisfy 1 <= start <= stop")
    values = []
    if rule.startswith("x"):
        try:
            factor = int(rule[1:])
        except ValueError:
            raise SpecError(f"grid factor in {text!r} must be an integer") from None
        if factor < 2:
            raise SpecError("geometric grid factor must be >= 2")
        value = start
        while value <= stop:
            values.append(value)
            value *= factor
    elif rule.startswith("+"):
        try:
            stride = int(rule[1:])
        except ValueError:
            raise SpecError(f"grid step in {text!r} must be an integer") from None
        if stride < 1:
            raise SpecError("arithmetic grid step must be >= 1")
        values = list(range(start, stop + 1, stride))
    else:
        raise SpecError(f"grid rule {rule!r} must start with 'x' or '+'")
    return values


def read_config(path: str) -> dict[str, str]:
    """Read a flat ``key = value`` file; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise SpecError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _meta_line(command: str, args, extra: str = "") -> str:
    fields = [
        f"jumpwalk {__version__}",
        f"cmd={command}",
        f"seed={args.seed}",
        f"rng={RNG_IDENTITY}",
    ]
    if getattr(args, "dist", None):
        fields.append(f"dist={args.dist}")
    if getattr(args, "grid", None):
        fields.append(f"grid={args.grid}")
    if getattr(args, "n", None):
        fields.append(f"n={args.n}")
    if getattr(args, "mode", None):
        fields.append(f"mode={args.mode}")
    if extra:
        fields.append(extra)
    return "# " + " ".join(fields)


def _write_csv(path: Path, meta: str, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(meta + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _point_rows(points, mode: str, dist: str):
    return [
        [p.T, repr(p.mean_sigma), repr(p.stderr), p.n, p.master_seed, mode, dist]
        for p in points
    ]


_POINT_HEADER = ["T", "mean_sigma", "stderr", "n", "master_seed", "mode", "dist_spec"]


def _write_points(path: Path, meta: str, points, mode: str, dist: str) -> None:
    _write_csv(path, meta, _POINT_HEADER, _point_rows(points, mode, dist))


def _write_fit(path: Path, meta: str, fit, dist: str, mode: str) -> None:
    _write_csv(
        path,
        meta,
        ["dist_spec", "mode", "alpha", "intercept", "r_squared", "n_points"],
        [[dist, mode, repr(exponent(fit)), repr(fit.intercept), repr(fit.r_squared), len(fit.points)]],
    )


def _write_loglog(path: Path, meta: str, fit) -> None:
    _write_csv(
        path,
        meta,
        ["ln_T", "ln_inv_sigma"],
        [[repr(x), repr(y)] for x, y in fit.points],
    )


def read_points_csv(path: str) -> tuple[list[EnsemblePoint], str, str]:
    """Read back an ensemble-point CSV; returns (points, mode, dist_spec)."""
    points = []
    mode = dist = ""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if not rows or rows[0] != _POINT_HEADER:
        raise SpecError(f"{path} is not an ensemble-point CSV")
    for row in rows[1:]:
        points.append(
            EnsemblePoint(
                T=int(row[0]),
                mean_sigma=float(row[1]),
                stderr=float(row[2]),
                n=int(row[3]),
                master_seed=int(row[4]),
            )
        )
        mode, dist = row[5], row[6]
    if not points:
        raise SpecError(f"{path} contains no ensemble points")
    return points, mode, dist


def _resolve_spec(args) -> DistributionSpec:
    spec = parse_dist_spec(args.dist)
    if getattr(args, "paper_poisson1", False):
        spec = spec.with_r_max(5)
        args.dist = spec.spec_string()
    return spec


def _warn_small_n(n: int) -> None:
    if n < 30:
        print(
            f"warning: n={n} realizations; stderr estimates are unreliable below n=30",
            file=sys.stderr,
        )


def cmd_walk(args) -> int:
    spec = _resolve_spec(args)
    pmf = truncate(spec)
    seed = derive_seed(args.seed, 0)
    realization = sample_dynamic_realization(pmf, args.T, seed)
    state = run_dynamic(args.T, realization.jumps, hadamard())
    dist = position_distribution(state)
    sigma = std_dev(dist)

    ordered = None
    if args.overlay_ordered:
        ordered = position_distribution(run_dynamic(args.T, [1] * args.T, hadamard()))
    sites = sorted(set(dist) | set(ordered or {}))
    header = ["site", "probability"] + (["ordered_probability"] if ordered else [])
    rows = []
    for site in sites:
        row = [site, repr(dist.get(site, 0.0))]
        if ordered is not None:
            row.append(repr(ordered.get(site, 0.0)))
        rows.append(row)
    meta = _meta_line("walk", args, extra=f"T={args.T}")
    _write_csv(_out_path(args, "pmf"), meta, header, rows)
    print(f"T={args.T} dist={args.dist} sigma={sigma:.6f}")
    return EXIT_OK


def cmd_ensemble(args) -> int:
    spec = _resolve_spec(args)
    _warn_small_n(args.n)
    point = quenched_average(spec, args.T, args.n, args.seed, args.mode, args.workers)
    meta = _meta_line("ensemble", args, extra=f"T={args.T}")
    _write_points(_out_path(args, "points"), meta, [point], args.mode, args.dist)
    print(
        f"T={point.T} mean_sigma={point.mean_sigma:.6f} "
        f"stderr={point.stderr:.6f} n={point.n}"
    )
    return EXIT_OK


def _sweep_points(args, spec, grid, mode):
    return [
        quenched_average(spec, T, args.n, args.seed, mode, args.workers) for T in grid
    ]


def cmd_sweep(args) -> int:
    spec = _resolve_spec(args)
    grid = parse_grid(args.grid)
    _warn_small_n(args.n)
    points = _sweep_points(args, spec, grid, args.mode)
    fit = fit_line(loglog_points(points))
    alpha = exponent(fit)
    meta = _meta_line("sweep", args)
    _write_points(_out_path(args, "points"), meta, points, args.mode, args.dist)
    _write_fit(_out_path(args, "fit"), meta, fit, args.dist, args.mode)
    _write_loglog(_out_path(args, "loglog"), meta, fit)
    print(
        f"alpha={alpha:.4f} ({classify_exponent(alpha)}) "
        f"intercept={fit.intercept:.4f} r2={fit.r_squared:.6f}"
    )
    return EXIT_OK


def cmd_fit(args) -> int:
    points, mode, dist = read_points_csv(args.input)
    fit = fit_line(loglog_points(points))
    args.dist = dist
    meta = _meta_line("fit", args, extra=f"src={args.input}")
    _write_fit(_out_path(args, "fit"), meta, fit, dist, mode)
    _write_loglog(_out_path(args, "loglog"), meta, fit)
    print(f"alpha={exponent(fit):.4f} ({classify_exponent(exponent(fit))})")
    return EXIT_OK


def _table_sweep(args, specs_with_labels, out_name: str, command: str) -> int:
    grid = parse_grid(args.grid)
    _warn_small_n(args.n)
    rows = []
    for label, spec in specs_with_labels:
        points = _sweep_points(args, spec, grid, "dynamic")
        fit = fit_line(loglog_points(points))
        mean, variance = family_mean_variance(spec)
        rows.append(
            [label, spec.spec_string(), repr(mean), repr(variance), repr(fit.slope), repr(fit.r_squared)]
        )
        print(f"{spec.spec_string()}: exponent={fit.slope:.4f}")
    meta = _meta_line(command, args)
    _write_csv(
        _out_path(args, out_name),
        meta,
        ["class", "dist_spec", "mean", "variance", "exponent", "r_squared"],
        rows,
    )
    return EXIT_OK


def cmd_table_means(args) -> int:
    specs = [
        ("poisson", DistributionSpec("poisson", {"lambda": mean}))
        for mean in (0.5, 1.0, 1.5, 2.0)
    ]
    return _table_sweep(args, specs, "table_means", "table-means")


def cmd_table_classes(args) -> int:
    specs = [
        ("sub-poissonian", DistributionSpec("binomial", {"n": 2, "p": 0.5})),
        ("sub-poissonian", DistributionSpec("binomial", {"n": 9, "p": 1 / 9})),
        ("sub-poissonian", DistributionSpec("hypergeom", {"N": 4, "K": 2, "n": 2})),
        ("super-poissonian", DistributionSpec("negbinom", {"r": 1, "p": 0.5})),
        ("super-poissonian", DistributionSpec("negbinom", {"r": 9, "p": 0.1})),
        ("super-poissonian", DistributionSpec("geometric", {"p": 0.5})),
    ]
    return _table_sweep(args, specs, "table_classes", "table-classes")


def cmd_static_sweep(args) -> int:
    spec = _resolve_spec(args)
    grid = parse_grid(args.grid)
    _warn_small_n(args.n)
    points = []
    norm_rows = []
    for T in grid:
        point, mean_dev, max_dev = static_quenched_average(
            spec, T, args.n, args.seed, args.workers
        )
        points.append(point)
        norm_rows.append([T, repr(mean_dev), repr(max_dev), args.n])
    args.mode = "static"
    meta = _meta_line("static-sweep", args)
    _write_points(_out_path(args, "points"), meta, points, "static", args.dist)
    _write_csv(
        _out_path(args, "normdev"),
        meta,
        ["T", "mean_norm_deviation", "max_norm_deviation", "n"],
        norm_rows,
    )
    tail = [p.mean_sigma for p in points if p.T >= 10]
    if tail:
        print(
            f"saturation window T>=10: mean_sigma in "
            f"[{min(tail):.4f}, {max(tail):.4f}] over {len(tail)} points"
        )
    else:
        print("grid has no T >= 10 points; no saturation summary")
    return EXIT_OK


def _out_path(args, kind: str) -> Path:
    return Path(f"{args.out}_{kind}.csv")


def _add_common(sub, *, dist=None, grid=None, n=True, mode=False):
    if dist is not None:
        sub.add_argument("--dist", default=dist, help="distribution spec string")
    if grid is not None:
        sub.add_argument("--grid", default=grid, help="T grid, start:stop:x2 or start:stop:+k")
    if n:
        sub.add_argument("--n", type=int, default=None, help="disorder realizations per point")
    if mode:
        sub.add_argument("--mode", choices=["dynamic", "static"], default="dynamic")
    sub.add_argument("--seed", type=int, default=None, help="64-bit master seed")
    sub.add_argument("--workers", type=int, default=None, help="parallel worker processes")
    sub.add_argument("--out", default=None, help="output path prefix")
    sub.add_argument("--paper-poisson1", action="store_true",
                     help="pin the effective maximal jump to 5 (unit-mean Poisson preset)")
    sub.add_argument("--config", default=None, help="flat key=value config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumpwalk",
        description="Quantum walks on a line with quenched random jump lengths.",
    )
    parser.add_argument("--version", action="version", version=f"jumpwalk {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    walk = subs.add_parser("walk", help="single-realization position distribution")
    walk.add_argument("--T", type=int, default=160)
    walk.add_argument("--overlay-ordered", action="store_true",
                      help="add the no-disorder distribution as a column")
    _add_common(walk, dist="poisson:lambda=1.0", n=False)

    ens = subs.add_parser("ensemble", help="quenched average at a single T")
    ens.add_argument("--T", type=int, required=True)
    _add_common(ens, dist="poisson:lambda=1.0", mode=True)

    sweep = subs.add_parser("sweep", help="T sweep plus scaling fit")
    _add_common(sweep, dist="poisson:lambda=1.0", grid=DEFAULT_GRID, mode=True)

    fit = subs.add_parser("fit", help="fit an existing ensemble-point CSV")
    fit.add_argument("--in", dest="input", required=True, help="ensemble-point CSV")
    _add_common(fit, n=False)

    means = subs.add_parser("table-means", help="Poisson means 0.5/1.0/1.5/2.0 table")
    _add_common(means, grid=DEFAULT_GRID)

    classes = subs.add_parser("table-classes", help="six unit-mean class configurations")
    _add_common(classes, grid=DEFAULT_GRID)

    static = subs.add_parser("static-sweep", help="per-site disorder sweep")
    _add_common(static, dist="poisson:lambda=1.0", grid=DEFAULT_STATIC_GRID)

    return parser


_COMMANDS = {
    "walk": cmd_walk,
    "ensemble": cmd_ensemble,
    "sweep": cmd_sweep,
    "fit": cmd_fit,
    "table-means": cmd_table_means,
    "table-classes": cmd_table_classes,
    "static-sweep": cmd_static_sweep,
}

# Fallbacks applied after flag and config-file resolution.
_HARD_DEFAULTS = {"seed": DEFAULT_SEED, "n": DEFAULT_N, "workers": 1, "out": "jumpwalk"}

_CONFIG_INT_KEYS = {"seed", "n", "workers", "T"}


def _apply_config(args) -> None:
    config = read_config(args.config) if args.config else {}
    for key, raw in config.items():
        if not hasattr(args, key):
            raise SpecError(f"config key {key!r} does not match any flag")
        if getattr(args, key) is None:
            value = int(raw) if key in _CONFIG_INT_KEYS else raw
            setattr(args, key, value)
    for key, value in _HARD_DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        if getattr(args, "n", None) is not None and args.n < 1:
            raise ValueError(f"need at least one realization, got n={args.n}")
        if args.workers < 1:
            raise ValueError(f"need at least one worker, got {args.workers}")
        return _COMMANDS[args.command](args)
    except SpecError as exc:
        print(f"jumpwalk: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"jumpwalk: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
