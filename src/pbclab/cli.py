"""Command-line surface: run scenarios from config files and presets.

Subcommands

* ``equilibrium`` - solve and print the operating point for the configured
  model and target voltage.
* ``simulate``    - run the scenario (all variants), write trajectory CSV,
  a metrics summary, the resolved config, and SVG line plots.
* ``compare``     - run the plant once in state feedback with every
  configured observer riding along, and print one table row per observer.
* ``sweep``       - rerun the scenario over a list of values for one
  scalar config entry and print a metrics matrix.  Each value's document
  is validated and its scenario built once (``config.scenario_of``), and
  ``pbclab.sim.SharedPass.groups`` keys each scenario once and groups
  them: values whose scenarios differ only in estimators' names, or in
  the gamma or mu of those that do not close the loop, share one pass,
  which runs once as one scenario with every exactly stepped gain of the
  group.  Its values are assembled from that run, in value order, in one
  process.  Two or more distinct passes fan out over a process pool of
  min(passes, CPUs) workers.
* ``presets list`` - list the shipped figure presets.

Configuration comes from ``--config FILE`` or ``--preset NAME`` (else the
built-in defaults), then ``--set path=value`` overrides.  ``--out DIR``
picks the artifact directory (default: config ``output.dir``, then the
``PBCLAB_OUT`` environment variable, then ``./pbclab-out``).  ``main``
maps each failure class to one exit code and one stderr line: 2
configuration error (``ConfigError``, ``ScenarioError``), 3 infeasible
operating point (``InfeasibleEquilibrium``), 4 numerical failure
(``NonFiniteState``, ``OracleMismatch``); 0 is success.  Validation refuses
first whatever would raise a ``CukError`` or a ``ModelError``.
"""

from __future__ import annotations

import argparse
import copy
import math
import os
import sys
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    _parse_value,
    apply_overrides,
    canonical_dump,
    default_config,
    expand_variants,
    get_path,
    load_config,
    loads_config,
    scenario_from_config,
    scenario_of,
    set_path,
    validate_config,
)
from .cuk import InfeasibleEquilibrium, OracleMismatch, build_cuk, quadratic_coefficients, solve_equilibrium
from .phmodel import equilibrium_residual
from .sim import (
    NonFiniteState,
    ScenarioError,
    SharedPass,
    compute_metrics,
    run_scenario,
)
from .svgplot import write_plot

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERIC = 4


def _presets_dir():
    from importlib import resources

    return resources.files("pbclab").joinpath("presets")


def _preset_names():
    return sorted(p.name[: -len(".yaml")] for p in _presets_dir().iterdir()
                  if p.name.endswith(".yaml"))


def _load_cfg(args) -> dict:
    if getattr(args, "config", None) and getattr(args, "preset", None):
        raise ConfigError("give either --config or --preset, not both")
    if getattr(args, "preset", None):
        names = _preset_names()
        if args.preset not in names:
            raise ConfigError(f"unknown preset {args.preset!r}; available: {', '.join(names)}")
        cfg = loads_config(_presets_dir().joinpath(args.preset + ".yaml").read_text())
    elif getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        cfg = load_config(path)
    else:
        cfg = validate_config(default_config())
    # a loaded document is checked once: again only after an assignment
    assignments = getattr(args, "set", None)
    return apply_overrides(cfg, assignments) if assignments else cfg


def _out_dir(args, cfg) -> Path:
    out = getattr(args, "out", None) or cfg["output"].get("dir") or os.environ.get(
        "PBCLAB_OUT"
    ) or "pbclab-out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _base_name(args) -> str:
    if getattr(args, "preset", None):
        return args.preset
    if getattr(args, "config", None):
        return Path(args.config).stem
    return "run"


def _fmt_val(v) -> str:
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        return f"{v:.10g}"
    return str(v)


def _write_metrics(path: Path, metrics: dict):
    lines = [f"{key}={_fmt_val(metrics[key])}" for key in sorted(metrics)]
    path.write_text("\n".join(lines) + "\n")


def _run_and_measure(cfg: dict, scn, shared=None):
    """Run the scenario `scn` of one concrete config, on the closed-loop
    pass `shared` if given; return the trajectory, the checkpoints that lie
    within the horizon and the metrics taken at them."""
    traj = run_scenario(scn, shared=shared)
    cps = tuple(c for c in cfg["output"]["checkpoints"] if c <= cfg["scenario"]["horizon"])
    return traj, cps, compute_metrics(traj, band_frac=cfg["output"]["band_frac"], checkpoints=cps)


def _print_table(args, cfg, table, suffix):
    """Print the rows of `table` in aligned columns and, when an output
    directory is given, write them to ``<base>-<suffix>.csv``."""
    widths = [max(len(row[j]) for row in table) for j in range(len(table[0]))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    if getattr(args, "out", None) or cfg["output"].get("dir"):
        out = _out_dir(args, cfg)
        (out / f"{_base_name(args)}-{suffix}.csv").write_text(
            "\n".join(",".join(row) for row in table) + "\n"
        )
        print(f"artifacts in {out}")


# -- equilibrium ---------------------------------------------------------------


def cmd_equilibrium(args) -> int:
    cfg = _load_cfg(args)
    scn = scenario_from_config(cfg)
    params = scn.params
    x4_star = scn.controller.x4_star
    policy = scn.controller.root_policy
    a2, a1, a0 = quadratic_coefficients(params, x4_star)
    disc = a1 * a1 - 4.0 * a2 * a0
    print(f"target output voltage: {x4_star:g} V")
    print(f"duty quadratic: a2={a2:.17g} a1={a1:.17g} a0={a0:.17g}")
    print(f"discriminant: {disc:.17g}")
    try:
        pair, roots = solve_equilibrium(params, x4_star, root_policy=policy)
    except InfeasibleEquilibrium as exc:
        print(f"verdict: infeasible ({exc})")
        return EXIT_INFEASIBLE
    model = build_cuk(params)
    u = float(pair.u_star[0])
    z = model.Q @ pair.x_star  # physical signals
    res = float(np.linalg.norm(equilibrium_residual(model, pair.x_star, pair.u_star)))
    print("candidates in (0,1):", ", ".join(f"{r:.17g}" for r in roots))
    print(f"selected ({policy}): u* = {u:.17g}")
    print(
        f"operating point: i1* = {z[0]:.12g} A, v2* = {z[1]:.12g} V, "
        f"i3* = {z[2]:.12g} A, v4* = {z[3]:.12g} V"
    )
    print(f"residual norm: {res:.3e}")
    print("verdict: feasible")
    record = {
        "u_star": u, "i1_star": z[0], "v2_star": z[1], "i3_star": z[2],
        "v4_star": z[3], "discriminant": disc, "residual": res,
    }
    print("record: " + " ".join(f"{k}={record[k]:.17g}" for k in record))
    return EXIT_OK


# -- simulate -------------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = _load_cfg(args)
    # every run's document is checked, and its scenario built, before the first run
    runs = [(label, sub, scenario_of(sub)) for label, sub in expand_variants(cfg)]
    out = _out_dir(args, cfg)
    opts = cfg["output"]
    base = _base_name(args)
    results = []
    for label, sub, scn in runs:
        try:
            traj, _, metrics = _run_and_measure(sub, scn)
        except NonFiniteState as exc:
            partial = getattr(exc, "partial", None)
            if partial is not None and opts["csv"] and len(partial.t):
                path = out / f"{base}-{label}-partial.csv"
                partial.to_csv(path)
                print(f"{label}: diverged ({exc}); partial samples in {path}",
                      file=sys.stderr)
            raise
        results.append((label, traj, metrics))
        if opts["csv"]:
            traj.to_csv(out / f"{base}-{label}.csv")
        if opts["metrics"]:
            _write_metrics(out / f"{base}-{label}-metrics.txt", metrics)
        bits = [f"settle={_fmt_val(metrics['settle_time'])}",
                f"v4_end={metrics['final_v_out']:.4f}"]
        bits += [f"{k}={_fmt_val(metrics[k])}" for k in sorted(metrics) if k.startswith("tc_")]
        print(f"{label}: " + " ".join(bits))
    if opts["metrics"]:
        (out / f"{base}-config.yaml").write_text(canonical_dump(cfg))
    if opts["svg"]:
        _simulate_plots(out, base, results)
    print(f"artifacts in {out}")
    return EXIT_OK


def _simulate_plots(out: Path, base: str, results):
    multi = len(results) > 1

    def tag(label, extra=""):
        if multi and extra:
            return f"{label} {extra}"
        return extra if not multi else label

    v4 = [(tag(lbl, "v4"), tr.t, tr.signals[:, -1]) for lbl, tr, _ in results]
    v4.append(("reference", results[0][1].t, results[0][1].ref))
    write_plot(out / f"{base}-v4.svg", v4, title="output voltage",
               xlabel="t [s]", ylabel="v4 [V]")
    uu = [(tag(lbl, "u"), tr.t, tr.u[:, 0]) for lbl, tr, _ in results]
    write_plot(out / f"{base}-u.svg", uu, title="duty ratio",
               xlabel="t [s]", ylabel="u")
    err, om = [], []
    for lbl, tr, _ in results:
        for name, rec in tr.observers.items():
            err.append((tag(lbl, name), tr.t, rec["err_norm"]))
            if np.isfinite(rec["omega"]).all():
                om.append((tag(lbl, name), tr.t, rec["omega"]))
    if err:
        write_plot(out / f"{base}-err.svg", err, title="state estimation error",
                   xlabel="t [s]", ylabel="|xhat - x|", ylog=True)
    if om:
        write_plot(out / f"{base}-omega.svg", om, title="excitation monitor",
                   xlabel="t [s]", ylabel="omega")


# -- compare --------------------------------------------------------------------


def cmd_compare(args) -> int:
    cfg = _load_cfg(args)
    if len(cfg["observers"]) < 2:
        raise ConfigError("comparison needs at least two observers")
    # no estimator closes the loop, so each one logs what it logs alone
    cfg["controller"]["feedback"] = "state"
    traj, cps, metrics = _run_and_measure(cfg, scenario_from_config(cfg))
    table = [["observer"] + [f"err@{c:g}" for c in cps] + ["err_final", "t_c"]]
    for name in traj.observers:
        cells = [name]
        cells += [f"{metrics[f'err_at_{c:g}_{name}']:.6e}" for c in cps]
        cells += [f"{metrics[f'err_final_{name}']:.6e}"]
        tc = metrics.get(f"tc_{name}", math.nan)
        cells += ["-" if math.isnan(tc) else f"{tc:.6g}"]
        table.append(cells)
    _print_table(args, cfg, table, "compare")
    return EXIT_OK


# -- sweep ----------------------------------------------------------------------


def _fan_out(worker, jobs):
    if len(jobs) <= 1:
        return [worker(j) for j in jobs]
    from concurrent.futures import ProcessPoolExecutor  # only a pooled sweep pays this import

    workers = min(len(jobs), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, jobs))


def _sweep_worker(job) -> list:
    """The metrics of the rows of one closed-loop pass, in order; `job` is
    the pass and the rows' documents."""
    shared, cfgs = job
    return [_run_and_measure(cfg, scn, shared)[2] for cfg, scn in zip(cfgs, shared.scenarios)]


def cmd_sweep(args) -> int:
    cfg = _load_cfg(args)
    current = get_path(cfg, args.param)  # raises ConfigError on a bad path
    if isinstance(current, (dict, list)):
        raise ConfigError(f"sweep path {args.param!r} must address a scalar")
    values = [v for v in (args.values or "").split(",") if v.strip()]
    print(f"sweep {args.param}: {len(values)} value(s)")
    if not values:
        return EXIT_OK
    subs, scns = [], []  # per value: the validated document and its scenario
    for text in values:
        sub = copy.deepcopy(cfg)
        sub.pop("variants", None)
        set_path(sub, args.param, _parse_value(text.strip()))
        scns.append(scenario_of(sub))
        subs.append(sub)
    cfg_of = dict(zip(map(id, scns), subs))
    passes = SharedPass.groups(scns)
    jobs = [(shared, [cfg_of[id(scn)] for scn in shared.scenarios]) for shared in passes]
    done = {}  # id(scenario) -> its row's metrics
    for shared, metrics in zip(passes, _fan_out(_sweep_worker, jobs)):
        done.update(zip(map(id, shared.scenarios), metrics))
    rows = [done[id(scn)] for scn in scns]
    keys = sorted(set().union(*(r.keys() for r in rows)))
    table = [[args.param] + keys]
    for text, row in zip(values, rows):
        table.append([text.strip()] + [_fmt_val(row.get(k, math.nan)) for k in keys])
    _print_table(args, cfg, table, "sweep")
    return EXIT_OK


# -- presets --------------------------------------------------------------------


def cmd_presets(args) -> int:
    if args.action != "list":
        raise ConfigError(f"unknown presets action {args.action!r}")
    import yaml

    for name in _preset_names():
        raw = yaml.safe_load(_presets_dir().joinpath(name + ".yaml").read_text()) or {}
        desc = raw.get("description", "")
        print(f"{name}: {desc}" if desc else name)
    return EXIT_OK


# -- entry point ------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, with_out=True):
    p.add_argument("--config", help="YAML configuration file")
    p.add_argument("--preset", help="name of a shipped preset (see `presets list`)")
    p.add_argument("--set", action="append", metavar="PATH=VALUE", default=[],
                   help="override a config entry (repeatable), e.g. controller.ki=8")
    if with_out:
        p.add_argument("--out", help="artifact directory (default: PBCLAB_OUT or ./pbclab-out)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pbclab",
        description="switched-converter energy-shaping control and finite-time observation lab",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("equilibrium", help="solve the operating point")
    _add_common(p, with_out=False)
    p.set_defaults(func=cmd_equilibrium)

    p = sub.add_parser("simulate", help="run a scenario and write artifacts")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="run every observer on one plant run and tabulate")
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="rerun over a list of values for one entry")
    _add_common(p)
    p.add_argument("--param", required=True, help="dotted config path, e.g. observers.0.gamma")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("presets", help="manage shipped presets")
    p.add_argument("action", choices=["list"])
    p.set_defaults(func=cmd_presets)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ScenarioError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleEquilibrium as exc:
        print(f"infeasible operating point: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (NonFiniteState, OracleMismatch) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
