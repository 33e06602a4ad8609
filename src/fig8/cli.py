"""Command-line front end.

Subcommands: scan, solve, continue, analyze, reproduce. Every output file
is written through `fig8.artifacts` with the run configuration and the
package version, so a run can be reproduced from its own artifacts.
Exit codes: 0 success, 2 no-convergence, 3 integrator failure, 4 I/O
error, 5 bad config.
"""

import argparse
import math
import sys
from pathlib import Path

from . import __version__
from .artifacts import (comment_lines, json_text, read_record, stamp,
                        write_json)
from .config import ConfigError, RunConfig, load_config, parse_potential
from .dynamics import ShootingParams
from .integrate import IntegrationError
from .shooting import (NewtonDivergence, SolverError, energy_in_published_range,
                       find_seeds, newton_solve, scan_grid,
                       solution_record_from_json, solution_record_json)
from .analysis import (collision_count, collision_report, orbit_from_record,
                       orbit_summary)
from .continuation import (SPECIAL_KINDS, ContinuationSeries,
                           SpecialPointNotFound, continue_family, locate_special)

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 2
EXIT_INTEGRATOR = 3
EXIT_IO = 4
EXIT_CONFIG = 5


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = {}
    if getattr(args, "potential", None):
        overrides["potential"] = parse_potential(args.potential)
    if getattr(args, "jobs", None) is not None:
        overrides["jobs"] = args.jobs
    if getattr(args, "out", None):
        overrides["out_dir"] = args.out
    return cfg.override(**overrides)


def _given(flag, default):
    """A flag's value when it was given (0 included), else the default."""
    return default if flag is None else flag


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_record(args):
    """The solution record of args.record (a record JSON or an orbit CSV) and
    the run config with the record's potential. A file without a record, or
    a --potential or --config naming another potential, is a ConfigError."""
    try:
        record = solution_record_from_json(read_record(args.record))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{args.record} is not a solution record: {exc!r}") from exc
    cfg = _resolve_config(args)
    if (args.potential or args.config) and cfg.potential != record.potential:
        raise ConfigError(f"the record was solved under {record.potential.to_json_dict()}"
                          f", not {cfg.potential.to_json_dict()}")
    return record, cfg.override(potential=record.potential)


def cmd_scan(args) -> int:
    cfg = _resolve_config(args)
    n_y0 = _given(args.ny, cfg.scan_n_y0)
    n_v = _given(args.nv, cfg.scan_n_v)
    y0_range = (_given(args.y0_min, cfg.scan_y0_range[0]),
                _given(args.y0_max, cfg.scan_y0_range[1]))
    v_range = (_given(args.v_min, cfg.scan_v_range[0]),
               _given(args.v_max, cfg.scan_v_range[1]))
    grid = scan_grid(args.x0, y0_range, v_range, n_y0, n_v,
                     cfg.potential, cfg.integrator, jobs=cfg.jobs)
    seeds = find_seeds(grid)
    out = _out_dir(cfg)
    tag = f"x0_{args.x0:g}"
    grid.to_csv(out / f"grid_{tag}.csv", header_lines=comment_lines(stamp(cfg)))
    write_json(out / f"grid_{tag}.json", stamp(cfg) | grid.to_json_dict())
    write_json(out / f"seeds_{tag}.json", stamp(cfg) | {
        "x0": args.x0,
        "seeds": [{"x0": s.x0, "y0": s.y0, "v": s.v} for s in seeds],
    })
    n_fail = sum(1 for row in grid.samples for s in row if not s.ok)
    print(f"scan x0={args.x0}: {n_y0}x{n_v} cells, {n_fail} failed, "
          f"{len(seeds)} seed(s) -> {out}/seeds_{tag}.json")
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = _resolve_config(args)
    seed = ShootingParams(args.x0, args.y0, args.v)
    record = newton_solve(seed, cfg.potential, cfg.integrator,
                          tol=_given(args.tol, cfg.newton_tol),
                          max_iter=cfg.newton_max_iter)
    if args.label:
        record = record.with_label(args.label)
    orbit = orbit_from_record(record, cfg.integrator, n_samples=cfg.orbit_samples)
    if record.potential.r_min is not None:
        record = record.with_n0(collision_report(orbit, record.potential).n0)
    out = _out_dir(cfg)
    tag = f"x0_{record.params.x0:g}_y0_{record.params.y0:.6f}"
    rec_path = out / f"solution_{tag}.json"
    write_json(rec_path, stamp(cfg) | solution_record_json(record, cfg.integrator))
    orbit.to_csv(out / f"orbit_{tag}.csv", header_lines=comment_lines(
        stamp(cfg) | {"record": solution_record_json(record)}))
    print(f"converged: x0={record.params.x0:.9g} y0={record.params.y0:.9g} "
          f"v={record.params.v:.9g}")
    print(f"T={record.T:.6f} E={record.E:.8g} residual={record.residual_norm:.2e} "
          f"n0={record.n0}")
    if (record.potential.kind == "lj" and record.potential.b == 12.0
            and record.potential.a == 6.0
            and not energy_in_published_range(record.E)):
        print("note: energy outside the known solution range "
              "[-0.5078, 0.2955]; flagging, not rejecting")
    print(f"wrote {rec_path}")
    return EXIT_OK


def cmd_continue(args) -> int:
    record, cfg = _load_record(args)
    label = args.label or record.series_label or "series"
    if args.steps == 0:
        series = ContinuationSeries(label=label, points=[record.with_label(label)])
    else:
        series = continue_family(
            record, record.potential, cfg.integrator,
            step=_given(args.step, cfg.continuation_step),
            n_steps=_given(args.steps, cfg.continuation_steps),
            direction=args.direction,
            tol=_given(args.tol, cfg.newton_tol),
            x0_limits=(_given(args.x0_min, -math.inf),
                       _given(args.x0_max, math.inf)),
            label=label,
        )
        if args.n0:
            series.points = [p.with_n0(collision_count(p, cfg.integrator,
                                                       n_samples=cfg.orbit_samples))
                             for p in series.points]
    out = _out_dir(cfg)
    path = out / f"series_{label}.csv"
    series.to_csv(path, header_lines=comment_lines(stamp(cfg)))
    if args.steps == 0:
        print(f"steps=0: echoed input record to {path}")
        return EXIT_OK
    specials = {}
    for kind in SPECIAL_KINDS:
        try:
            rec = locate_special(series, kind, cfg.integrator)
            specials[kind] = solution_record_json(rec)
        except (SpecialPointNotFound, SolverError, IntegrationError):
            continue
    write_json(out / f"series_{label}_special.json",
               stamp(cfg) | {"label": label, "special_points": specials})
    xs = series.x0_values()
    print(f"series {label}: {len(series.points)} points, "
          f"x0 in [{xs.min():.6g}, {xs.max():.6g}], "
          f"{len(series.fold_points)} fold(s), "
          f"{len(specials)} special point(s)")
    if series.truncation_reason:
        print(f"truncated: {series.truncation_reason}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    record, cfg = _load_record(args)
    orbit = orbit_from_record(record, cfg.integrator, n_samples=cfg.orbit_samples)
    summary = orbit_summary(orbit, record.potential)
    summary["params"] = {"x0": record.params.x0, "y0": record.params.y0,
                         "v": record.params.v}
    summary["residual_norm"] = record.residual_norm
    out = _out_dir(cfg)
    opath = out / f"analysis_{Path(args.record).stem}.json"
    write_json(opath, stamp(cfg) | summary)
    print(json_text(summary))
    print(f"wrote {opath}")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    from .reproduce import run_criteria

    cfg = _resolve_config(args)
    if args.potential or cfg != RunConfig(jobs=cfg.jobs, out_dir=cfg.out_dir):
        raise ConfigError("reproduce checks the published LJ(12,6) results at the "
                          "default settings; it takes no --potential and no "
                          "--config field but jobs and out_dir")
    results = run_criteria(quick=args.quick, jobs=cfg.jobs)
    write_json(_out_dir(cfg) / "reproduce_report.json", stamp(cfg) | {
        "quick": args.quick,
        "results": [r.to_json_dict() for r in results],
    })
    return EXIT_OK if all(r.passed for r in results) else EXIT_NO_CONVERGENCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fig8",
        description="Figure-eight choreographies of the equal-mass planar "
                    "three-body problem: shooting solver, family "
                    "continuation, and orbit diagnostics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--potential", help="lj | lj:b,a | homogeneous:a")
        p.add_argument("-o", "--out", help="output directory")

    p = sub.add_parser("scan", help="residual grid over a (y0, v) rectangle")
    common(p)
    p.add_argument("--jobs", type=int, help="parallel workers")
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--y0-min", type=float)
    p.add_argument("--y0-max", type=float)
    p.add_argument("--v-min", type=float)
    p.add_argument("--v-max", type=float)
    p.add_argument("--ny", type=int)
    p.add_argument("--nv", type=int)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("solve", help="converge a seed to a solution")
    common(p)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--y0", type=float, required=True)
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--tol", type=float)
    p.add_argument("--label")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("continue", help="trace the family through a solution")
    common(p)
    p.add_argument("record", help="solution record JSON")
    p.add_argument("--direction", type=int, choices=(-1, 1), default=-1)
    p.add_argument("--steps", type=int, default=None,
                   help="series length bound (default from config)")
    p.add_argument("--step", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--x0-min", type=float)
    p.add_argument("--x0-max", type=float)
    p.add_argument("--label")
    p.add_argument("--n0", action=argparse.BooleanOptionalAction, default=True,
                   help="annotate collision counts per point")
    p.set_defaults(func=cmd_continue)

    p = sub.add_parser("analyze", help="diagnostics for a solution record or orbit CSV")
    common(p)
    p.add_argument("record")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("reproduce", help="run the published-value checks")
    common(p)
    p.add_argument("--jobs", type=int, help="parallel workers")
    p.add_argument("--quick", action="store_true",
                   help="fast subset (seconds)")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NewtonDivergence as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except IntegrationError as exc:
        print(f"integrator failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"bad arguments: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
