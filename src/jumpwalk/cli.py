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

Each subcommand is one row of ``COMMANDS``: the flags it accepts (and no
others), their defaults, its jump laws (the ``--dist`` law or a fixed
list), how one law is evaluated, whether it is fitted, its stdout line
and the CSVs it writes.  ``main`` runs every row through one pipeline:
resolve settings, evaluate and fit each law, print, write.

A setting comes from its flag, else from the ``--config`` file (flat
``key = value`` lines named like the subcommand's flags, e.g.
``paper_poisson1 = true``; a ``#`` that starts a line or follows
whitespace starts a comment, so ``out = run#3`` keeps its ``#``), else
from the row's default.

Every run is a pure function of its flags, config file, and master seed:
re-running writes byte-identical CSVs.  Exit codes: 0 success, 2 usage
error, 3 numerical or domain error.
"""

from __future__ import annotations

import argparse
import csv
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

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
from .scaling import ScalingFit, classify_exponent, exponent, fit_line, loglog_points, std_dev
from .walk import hadamard, position_distribution, run_dynamic

__all__ = ["main", "parse_dist_spec", "parse_grid"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3

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
    types = {**PARAM_KEYS[family], "tol": float, "rmax": int}
    params: dict = {}
    tol = None
    r_max = None
    for token in rest.split(","):
        key, eq, value = token.partition("=")
        key = key.strip()
        value = value.strip()
        if not eq or not key or not value:
            raise SpecError(f"malformed parameter token {token!r} in {text!r}")
        if key not in types:
            raise SpecError(f"parameter {key!r} does not belong to family {family!r}")
        try:
            parsed = types[key](value)
        except ValueError:
            raise SpecError(f"parameter {key!r} has non-numeric value {value!r}") from None
        if key == "tol":
            tol = parsed
        elif key == "rmax":
            r_max = parsed
        else:
            params[key] = parsed
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
    """Read a flat ``key = value`` file.

    A '#' at the start of a line or after whitespace starts a comment that
    runs to the end of the line; a '#' inside a value, as in
    ``out = run#3``, is part of the value.
    """
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise SpecError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _meta_line(command: str, args) -> str:
    fields = [
        f"jumpwalk {__version__}",
        f"cmd={command}",
        f"seed={args.seed}",
        f"rng={RNG_IDENTITY}",
    ]
    fields += [f"{key}={getattr(args, key)}" for key in ("dist", "grid", "n", "mode")
               if getattr(args, key, None)]
    if "T" in args:
        fields.append(f"T={args.T}")
    if "input" in args:
        fields.append(f"src={args.input}")
    return "# " + " ".join(fields)


def _write_csv(path: Path, meta: str, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(meta + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


_POINT_HEADER = ["T", "mean_sigma", "stderr", "n", "master_seed", "mode", "dist_spec"]


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


def _warn_small_n(n: int) -> None:
    if n < 30:
        print(
            f"warning: n={n} realizations; stderr estimates are unreliable below n=30",
            file=sys.stderr,
        )


@dataclass
class _Law:
    """One jump law of a run and everything evaluating it produced."""

    label: str = ""
    spec: DistributionSpec | None = None
    dist: str = ""
    mode: str = ""
    points: list[EnsemblePoint] = field(default_factory=list)
    norm_rows: list[list] = field(default_factory=list)
    pmf_rows: list[list] = field(default_factory=list)
    sigma: float = 0.0
    fit: ScalingFit | None = None


# --- evaluation: fill one law's results ------------------------------------


def _ensemble(args, law: _Law, grid: list[int] | None) -> None:
    """Quenched averages over the grid (or at --T); static runs also log norm deviations."""
    # Table rows have no mode setting: they sweep dynamic disorder.
    law.mode = vars(args).get("mode", "dynamic")
    for T in grid or [args.T]:
        if law.mode == "static":
            point, mean_dev, max_dev = static_quenched_average(
                law.spec, T, args.n, args.seed, args.workers
            )
            law.norm_rows.append([T, repr(mean_dev), repr(max_dev), args.n])
        else:
            point = quenched_average(law.spec, T, args.n, args.seed, law.mode, args.workers)
        law.points.append(point)


def _walk(args, law: _Law, grid: None) -> None:
    """One disorder realization at T, optionally beside the ordered walk."""
    seed = derive_seed(args.seed, 0)
    realization = sample_dynamic_realization(truncate(law.spec), args.T, seed)
    columns = [position_distribution(run_dynamic(args.T, realization.jumps, hadamard()))]
    if args.overlay_ordered:
        columns.append(position_distribution(run_dynamic(args.T, [1] * args.T, hadamard())))
    law.sigma = std_dev(columns[0])
    law.pmf_rows = [
        [site, *(repr(column.get(site, 0.0)) for column in columns)]
        for site in sorted(set().union(*columns))
    ]


def _read(args, law: _Law, grid: None) -> None:
    """The points, mode, law and master seed recorded in an ensemble-point CSV."""
    law.points, law.mode, law.dist = read_points_csv(args.input)
    seeds = {p.master_seed for p in law.points}
    if len(seeds) != 1:
        raise SpecError(f"{args.input} mixes master seeds {sorted(seeds)}")
    args.dist = law.dist
    args.seed = seeds.pop()


# --- stdout lines, one per law ---------------------------------------------


def _sigma_line(args, law: _Law) -> str:
    return f"T={args.T} dist={args.dist} sigma={law.sigma:.6f}"


def _point_line(args, law: _Law) -> str:
    (p,) = law.points
    return f"T={p.T} mean_sigma={p.mean_sigma:.6f} stderr={p.stderr:.6f} n={p.n}"


def _alpha_line(args, law: _Law) -> str:
    alpha = exponent(law.fit)
    return (
        f"alpha={alpha:.4f} ({classify_exponent(alpha)}) "
        f"intercept={law.fit.intercept:.4f} r2={law.fit.r_squared:.6f}"
    )


def _refit_line(args, law: _Law) -> str:
    return f"alpha={exponent(law.fit):.4f} ({classify_exponent(exponent(law.fit))})"


def _exponent_line(args, law: _Law) -> str:
    return f"{law.dist}: exponent={law.fit.slope:.4f}"


def _saturation_line(args, law: _Law) -> str:
    tail = [p.mean_sigma for p in law.points if p.T >= 10]
    if not tail:
        return "grid has no T >= 10 points; no saturation summary"
    return (
        f"saturation window T>=10: mean_sigma in "
        f"[{min(tail):.4f}, {max(tail):.4f}] over {len(tail)} points"
    )


# --- CSV writers: (header, rows) over all laws -----------------------------


def _pmf_csv(args, laws: list[_Law]):
    header = ["site", "probability"] + (["ordered_probability"] if args.overlay_ordered else [])
    return header, [row for law in laws for row in law.pmf_rows]


def _points_csv(args, laws: list[_Law]):
    return _POINT_HEADER, [
        [p.T, repr(p.mean_sigma), repr(p.stderr), p.n, p.master_seed, law.mode, law.dist]
        for law in laws
        for p in law.points
    ]


def _fit_csv(args, laws: list[_Law]):
    return ["dist_spec", "mode", "alpha", "intercept", "r_squared", "n_points"], [
        [law.dist, law.mode, repr(exponent(law.fit)), repr(law.fit.intercept),
         repr(law.fit.r_squared), len(law.fit.points)]
        for law in laws
    ]


def _loglog_csv(args, laws: list[_Law]):
    return ["ln_T", "ln_inv_sigma"], [
        [repr(x), repr(y)] for law in laws for x, y in law.fit.points
    ]


def _normdev_csv(args, laws: list[_Law]):
    return ["T", "mean_norm_deviation", "max_norm_deviation", "n"], [
        row for law in laws for row in law.norm_rows
    ]


def _table_csv(args, laws: list[_Law]):
    rows = []
    for law in laws:
        mean, variance = family_mean_variance(law.spec)
        rows.append([law.label, law.dist, repr(mean), repr(variance),
                     repr(law.fit.slope), repr(law.fit.r_squared)])
    return ["class", "dist_spec", "mean", "variance", "exponent", "r_squared"], rows


# --- the command table ------------------------------------------------------


class _Flag(NamedTuple):
    option: str
    type: type
    help: str | None
    default: object = None  # None: required unless the row sets a default
    choices: tuple[str, ...] | None = None


_FLAGS = {
    "T": _Flag("--T", int, "iteration count"),
    "overlay_ordered": _Flag(
        "--overlay-ordered", bool, "add the no-disorder distribution as a column", False
    ),
    "input": _Flag("--in", str, "ensemble-point CSV"),
    "dist": _Flag("--dist", str, "distribution spec string", "poisson:lambda=1.0"),
    "paper_poisson1": _Flag(
        "--paper-poisson1", bool,
        "pin the effective maximal jump to 5 (unit-mean Poisson preset)", False,
    ),
    "grid": _Flag("--grid", str, "T grid, start:stop:x2 or start:stop:+k", "4:24:+2"),
    "n": _Flag("--n", int, "disorder realizations per point", 4000),
    "mode": _Flag("--mode", str, None, "dynamic", ("dynamic", "static")),
    "workers": _Flag("--workers", int, "parallel worker processes", 1),
    "seed": _Flag("--seed", int, "64-bit master seed", 42),
    "out": _Flag("--out", str, "output path prefix", "jumpwalk"),
    "config": _Flag("--config", str, "flat key=value config file", ""),
}

_COMMON = ("seed", "out", "config")
_ENSEMBLE = ("n", "workers", *_COMMON)


@dataclass(frozen=True)
class Command:
    """One subcommand as data; see the module docstring."""

    help: str
    flags: tuple[str, ...]
    evaluate: Callable[[argparse.Namespace, _Law, list[int] | None], None]
    report: Callable[[argparse.Namespace, _Law], str]
    writers: tuple[tuple[str, Callable], ...]
    fit: bool = False
    defaults: Mapping[str, object] = field(default_factory=dict)
    laws: tuple[tuple[str, DistributionSpec], ...] = ()


MEANS_LAWS = tuple(
    ("poisson", DistributionSpec("poisson", {"lambda": mean})) for mean in (0.5, 1.0, 1.5, 2.0)
)
CLASS_LAWS = (
    ("sub-poissonian", DistributionSpec("binomial", {"n": 2, "p": 0.5})),
    ("sub-poissonian", DistributionSpec("binomial", {"n": 9, "p": 1 / 9})),
    ("sub-poissonian", DistributionSpec("hypergeom", {"N": 4, "K": 2, "n": 2})),
    ("super-poissonian", DistributionSpec("negbinom", {"r": 1, "p": 0.5})),
    ("super-poissonian", DistributionSpec("negbinom", {"r": 9, "p": 0.1})),
    ("super-poissonian", DistributionSpec("geometric", {"p": 0.5})),
)

_POINTS = ("points", _points_csv)
_FIT = (("fit", _fit_csv), ("loglog", _loglog_csv))

COMMANDS = {
    "walk": Command(
        "single-realization position distribution",
        ("T", "overlay_ordered", "dist", "paper_poisson1", *_COMMON),
        _walk, _sigma_line, (("pmf", _pmf_csv),), defaults={"T": 160},
    ),
    "ensemble": Command(
        "quenched average at a single T",
        ("T", "dist", "paper_poisson1", "mode", *_ENSEMBLE),
        _ensemble, _point_line, (_POINTS,),
    ),
    "sweep": Command(
        "T sweep plus scaling fit",
        ("dist", "paper_poisson1", "grid", "mode", *_ENSEMBLE),
        _ensemble, _alpha_line, (_POINTS, *_FIT), fit=True,
    ),
    "fit": Command(
        "fit an existing ensemble-point CSV",
        ("input", "out", "config"),
        _read, _refit_line, _FIT, fit=True,
    ),
    "table-means": Command(
        "Poisson means 0.5/1.0/1.5/2.0 table",
        ("grid", *_ENSEMBLE),
        _ensemble, _exponent_line, (("table_means", _table_csv),), fit=True, laws=MEANS_LAWS,
    ),
    "table-classes": Command(
        "six unit-mean class configurations",
        ("grid", *_ENSEMBLE),
        _ensemble, _exponent_line, (("table_classes", _table_csv),), fit=True, laws=CLASS_LAWS,
    ),
    "static-sweep": Command(
        "per-site disorder sweep",
        ("dist", "paper_poisson1", "grid", *_ENSEMBLE),
        _ensemble, _saturation_line, (_POINTS, ("normdev", _normdev_csv)),
        defaults={"grid": "2:40:+2", "mode": "static"},
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumpwalk",
        description="Quantum walks on a line with quenched random jump lengths.",
    )
    parser.add_argument("--version", action="version", version=f"jumpwalk {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        for key in command.flags:
            flag = _FLAGS[key]
            kind = ({"action": "store_true"} if flag.type is bool
                    else {"type": flag.type, "choices": flag.choices})
            # Every default is None so that a config value can tell an
            # unset flag from one set to the default.
            sub.add_argument(flag.option, dest=key, default=None, help=flag.help, **kind)
    return parser


def _config_value(key: str, raw: str):
    """A config-file value converted like its flag's argument."""
    flag = _FLAGS[key]
    if flag.type is bool:
        value = {"true": True, "false": False}.get(raw.lower())
    else:
        try:
            value = flag.type(raw)
        except ValueError:
            value = None
    if value is None or (flag.choices and value not in flag.choices):
        raise SpecError(f"config key {key!r} has invalid value {raw!r}")
    return value


def _resolve_settings(command: Command, args) -> None:
    """Fill every unset flag from the config file, then from the defaults."""
    config = read_config(args.config) if args.config else {}
    for key, raw in config.items():
        if key not in command.flags or key == "config":
            raise SpecError(f"config key {key!r} does not match any flag of this command")
        if getattr(args, key) is None:
            setattr(args, key, _config_value(key, raw))
    defaults = {key: _FLAGS[key].default for key in command.flags}
    for key, value in {**defaults, **command.defaults}.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)
    missing = [_FLAGS[key].option for key in command.flags if getattr(args, key) is None]
    if missing:
        raise SpecError(f"missing required setting(s) {', '.join(missing)}")
    if "n" in args and args.n < 1:
        raise ValueError(f"need at least one realization, got n={args.n}")
    if "workers" in args and args.workers < 1:
        raise ValueError(f"need at least one worker, got {args.workers}")


def _run(name: str, args) -> int:
    """The one pipeline: settings -> laws -> evaluate, fit, print -> CSVs."""
    command = COMMANDS[name]
    _resolve_settings(command, args)
    if command.laws:
        laws = [_Law(label, spec, spec.spec_string()) for label, spec in command.laws]
    elif "dist" in args:
        spec = parse_dist_spec(args.dist)
        if args.paper_poisson1:
            spec = spec.with_r_max(5)
            args.dist = spec.spec_string()
        laws = [_Law(spec=spec, dist=args.dist)]
    else:
        laws = [_Law()]
    grid = parse_grid(args.grid) if "grid" in args else None
    if "n" in args:
        _warn_small_n(args.n)
    for law in laws:
        command.evaluate(args, law, grid)
        if command.fit:
            law.fit = fit_line(loglog_points(law.points))
        print(command.report(args, law))
    meta = _meta_line(name, args)
    for kind, rows in command.writers:
        _write_csv(Path(f"{args.out}_{kind}.csv"), meta, *rows(args, laws))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args.command, args)
    except SpecError as exc:
        print(f"jumpwalk: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"jumpwalk: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
