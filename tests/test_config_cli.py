"""Configuration schema and command-line behaviour.

Oracles
 * round-trip identity: parse(canonical_dump(cfg)) == cfg, and the canonical
   dump itself is a fixed point (byte-identical on a second pass);
 * exit codes are part of the contract: 0 ok, 2 config error, 3 infeasible
   operating point, 4 numerical failure;
 * artifact inventory on disk after `simulate` (CSV parses back into the
   same sampled arrays).
"""

import copy
import importlib
import math
import os
import pickle
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pbclab
from pbclab import cli, cuk, phmodel, sim, svgplot
from pbclab.config import (
    ConfigError,
    apply_overrides,
    canonical_dump,
    default_config,
    expand_variants,
    get_path,
    loads_config,
    scenario_from_config,
    set_path,
    validate_config,
)
from pbclab.sim import Trajectory, compute_metrics, run_scenario

PRESET_DIR = Path(__file__).resolve().parents[1] / "src" / "pbclab" / "presets"
FAST = [
    "--set", "scenario.horizon=0.0005",
    "--set", "scenario.h=5.0e-7",
    "--set", "scenario.stride=20",
]


# -- schema ---------------------------------------------------------------------


def test_default_config_is_valid_and_complete():
    cfg = default_config()
    validate_config(cfg)
    for section in ("model", "controller", "scenario", "observers", "output"):
        assert section in cfg
    assert cfg["model"]["E"] == 12.0
    assert cfg["controller"]["kp"] == 10.0
    assert cfg["scenario"]["h"] == 5e-7


def test_unknown_keys_rejected_everywhere():
    bad_docs = [
        "flux_capacitor: 1",
        "model: {L1: 1e-2, L9: 4}",
        "controller: {kpp: 3}",
        "observers: [{name: a, kind: fct-gpebo, turbo: true}]",
        "scenario: {events: [{time: 0.1, kind: load, value: 30, ramp: 2}]}",
        "output: {folder: /tmp}",
        "variants: [{label: a, set: {controller.kp: 1}, extra: 1}]",
    ]
    for doc in bad_docs:
        with pytest.raises(ConfigError):
            loads_config(doc)


def test_type_and_value_errors_rejected():
    for doc in [
        "controller: {kp: big}",
        "scenario: {x0: [1.0, 2.0]}",
        "observers: {name: a}",
        "observers: [{name: a, kind: sliding-mode}]",
        "scenario: {events: [{time: 0.1, kind: tilt, value: 1}]}",
        "variants: []",
        "variants: [{label: a, set: {}}, {label: a, set: {}}]",
        # value rules of the scenario itself apply when a document is loaded
        "scenario: {events: [{time: 0.1, kind: load, value: 30.0}]}",  # past the horizon
        "controller: {feedback: observer}",  # no observer to feed back
        "observers: [{kind: gradient, gamma: -1.0}]",
        "scenario: {h: .nan}",
        "scenario: {stride: 2.5}",  # an int
        "controller: {type: 3}",  # a str
        "controller: {kp: [1",  # not YAML
        "output: {dir: 3}",
        "output: {csv: 1}",
        "output: {checkpoints: 0.01}",
        "variants: [{label: '', set: {}}]",
        "description: 3",
    ]:
        with pytest.raises(ConfigError):
            loads_config(doc)


def test_canonical_round_trip_is_identity():
    # every shipped preset survives parse -> dump -> parse unchanged, and the
    # dump is a fixed point byte for byte
    for path in sorted(PRESET_DIR.glob("*.yaml")):
        cfg = loads_config(path.read_text())
        dumped = canonical_dump(cfg)
        again = loads_config(dumped)
        assert again == cfg, path.name
        assert canonical_dump(again) == dumped, path.name


def test_overrides_reach_nested_and_list_paths():
    cfg = loads_config("observers: [{name: fct, kind: fct-gpebo}]")
    cfg = apply_overrides(cfg, [
        "controller.ki=8",
        "observers.0.gamma=1e11",
        "scenario.x0.3=-12.0",
        "scenario.events.0={time: 0.0002, kind: load, value: 25.0}",
    ])
    assert cfg["controller"]["ki"] == 8.0
    assert cfg["observers"][0]["gamma"] == 1e11
    assert cfg["scenario"]["x0"][3] == -12.0
    assert cfg["scenario"]["events"][0]["value"] == 25.0


def test_overrides_reject_unknown_and_bad_paths():
    cfg = default_config()
    for bad in ["controller.nope=3", "observers.5.gamma=1", "model=oops",
                "controller.kp", "=3",
                "controller.kp=[1",  # a value that is not YAML
                "output.dir.sub=x",  # through a null node
                "observers.first.gamma=1", "observers.first=1",  # a list index that is not one
                "observers.7={kind: kbf}",  # more than one past the end
                "controller.kp.gain=1"]:  # into a scalar
        with pytest.raises(ConfigError):
            apply_overrides(copy.deepcopy(cfg), [bad])


def test_get_set_path():
    cfg = default_config()
    assert get_path(cfg, "model.r") == 20.0
    set_path(cfg, "model.r", 30.0)
    assert cfg["model"]["r"] == 30.0
    with pytest.raises(ConfigError):
        get_path(cfg, "model.r.deeper")


def test_variants_expand_to_concrete_configs():
    cfg = loads_config((PRESET_DIR / "fig-classical-pi.yaml").read_text())
    runs = expand_variants(cfg)
    labels = [label for label, _ in runs]
    assert labels == ["pi-pbc", "classical-ki4", "classical-ki6", "classical-ki8"]
    for label, sub in runs:
        assert "variants" not in sub
        assert sub["scenario"]["label"] == label
        validate_config(sub)
    assert runs[1][1]["controller"]["type"] == "classical-pi"
    assert runs[1][1]["observers"] == []
    # base config is untouched
    assert "variants" in cfg


def test_variantless_config_expands_to_itself():
    cfg = default_config()
    runs = expand_variants(cfg)
    assert len(runs) == 1
    assert runs[0][0] == cfg["scenario"]["label"]


def test_scenario_from_config_builds_specs():
    cfg = loads_config(
        "observers: [{name: fct, kind: fct-gpebo, lambda: 7.0, gamma: 2.0e+11}]\n"
        "scenario: {events: [{time: 0.01, kind: reference, value: -5.0}]}"
    )
    scn = scenario_from_config(cfg)
    assert scn.observers[0].lam == 7.0
    assert scn.observers[0].gamma == 2e11
    assert scn.events[0].kind == "reference"
    assert scn.params.E == 12.0


# -- command line -----------------------------------------------------------------


def test_presets_list(capsys):
    assert cli.main(["presets", "list"]) == 0
    text = capsys.readouterr().out
    for name in ["fig-observer-gains", "fig-step", "fig-load-step",
                 "fig-classical-pi", "fig-observer-compare", "fig-initial-conditions"]:
        assert name in text


def test_equilibrium_feasible(capsys):
    assert cli.main(["equilibrium"]) == 0
    text = capsys.readouterr().out
    assert "0.6216566898787329" in text
    assert "verdict: feasible" in text
    assert "u_star=" in text


def test_equilibrium_infeasible_exit3(capsys):
    rc = cli.main(["equilibrium", "--set", "controller.x4_star=-20"])
    assert rc == 3
    text = capsys.readouterr().out
    assert "discriminant: -1424" in text
    assert "infeasible" in text


def test_config_and_preset_both_is_an_error(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("controller: {ki: 5}\n")
    assert cli.main(["equilibrium", "--config", str(path), "--preset", "fig-step"]) == 2
    assert cli.main(["equilibrium", "--config", str(tmp_path / "missing.yaml")]) == 2
    assert cli.main(["equilibrium", "--preset", "fig-nothing"]) == 2


def test_simulate_writes_artifacts(tmp_path, capsys):
    rc = cli.main(["simulate", "--out", str(tmp_path), *FAST,
                   "--set", "observers=[{name: fct, kind: fct-gpebo}]"])
    assert rc == 0
    csvs = list(tmp_path.glob("*-run.csv"))
    assert len(csvs) == 1
    back = Trajectory.from_csv(csvs[0])
    assert back.t.shape == (51,)
    assert "fct" in back.observers
    assert list(tmp_path.glob("*-metrics.txt"))
    assert list(tmp_path.glob("*-v4.svg")) and list(tmp_path.glob("*-err.svg"))
    assert list(tmp_path.glob("*-config.yaml"))
    metrics = dict(
        line.split("=", 1)
        for line in next(tmp_path.glob("*-metrics.txt")).read_text().splitlines()
    )
    assert "final_v_out" in metrics and "err_final_fct" in metrics


def test_simulate_bad_config_file_exit2(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("model: {L9: 1}\n")
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    # out-of-range estimator settings, PI-PBC gains outside the passivity
    # argument (kp >= 0, ki > 0), a non-finite step, horizon or circuit
    # value, an event without a value and an event off the step grid are
    # configuration errors too
    for override, named in [
        ("observers.0.mu=0", "mu"),
        ("observers.0.lambda=-1", "lambda"),
        ("observers=[{kind: gradient, mode: extended, lambda: -5.0}]", "lambda"),
        ("model.L1=nan", "L1"),
        ("model.E=.inf", "E must be"),
        ("model.r1=nan", "r1"),
        ("controller.ki=0", "ki"),
        ("controller.kp=-1", "kp"),
        ("scenario.h=nan", "h must be"),
        ("scenario.horizon=.inf", "horizon must be"),
        ("observers=[{name: g, kind: gradient, gamma: -1.0e+8}]", "gamma"),
        ("scenario.events.0={time: 0.0001, kind: load}", "value"),
        ("scenario.events.0={time: 0.00010025, kind: load, value: 25.0}", "multiple of the step"),
    ]:
        rc = cli.main(["simulate", "--preset", "fig-observer-gains", *FAST,
                       "--set", override, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2, override
        assert err.startswith("config error:") and named in err, (override, err)
    assert cli.main(["equilibrium", "--set", "model.L1=nan"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "L1" in err


def test_simulate_numeric_failure_exit4_with_partial(tmp_path, capsys):
    rc = cli.main([
        "simulate", "--out", str(tmp_path), *FAST,
        "--set", "observers=[{name: kbf, kind: kbf, s: 1.0e+18, h0: 1.0e+18}]",
    ])
    assert rc == 4
    partials = list(tmp_path.glob("*-partial.csv"))
    assert len(partials) == 1
    assert Trajectory.from_csv(partials[0]).t.shape[0] >= 1


def test_an_overflowing_run_prints_no_numpy_warning(tmp_path):
    # in a fresh process, where numpy's RuntimeWarnings print once each: a
    # run whose storage W and state norms overflow, and a failing run
    # whose partial's sampled Delta overflows, print on stderr what the
    # command reports and nothing else
    env = {**os.environ, "PYTHONPATH": str(Path(pbclab.__file__).resolve().parents[1]), "PYTHONWARNINGS": "default"}

    def simulate(*overrides):
        argv = [sys.executable, "-m", "pbclab.cli", "simulate", "--out", str(tmp_path)]
        return subprocess.run([*argv, *(arg for o in overrides for arg in ("--set", o))], env=env,
                              capture_output=True, text=True)

    done = simulate("scenario.x0=[1.0e+160, 0.0, 0.0, 0.0]", "scenario.horizon=0.0005")
    assert (done.returncode, done.stderr) == (0, "")
    done = simulate("scenario.h=0.004", "scenario.horizon=4.0", "scenario.stride=3",
                    "observers=[{name: fct, kind: fct-gpebo, gamma: 1.0e+12}]")
    lines = done.stderr.splitlines()
    assert done.returncode == 4 and len(lines) == 2, done.stderr
    message = lines[1].removeprefix("numerical failure: ")
    assert message.startswith("non-finite estimator state after the step to t=")
    assert lines[0] == f"run: diverged ({message}); partial samples in {tmp_path / 'run-run-partial.csv'}"


def test_out_env_var_is_honored(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PBCLAB_OUT", str(tmp_path / "envout"))
    rc = cli.main(["simulate", *FAST])
    assert rc == 0
    assert list((tmp_path / "envout").glob("*.csv"))


def test_compare_needs_two_observers(capsys):
    assert cli.main(["compare", *FAST]) == 2
    err = capsys.readouterr().err
    assert "two observers" in err


def test_compare_table_and_determinism(capsys):
    # unnamed estimators are named as in simulate: kind, then kind-2, ...
    for observers, names in [
        ("[{name: twin-a, kind: fct-gpebo}, {name: twin-b, kind: fct-gpebo}]",
         ["twin-a", "twin-b"]),
        ("[{kind: fct-gpebo}, {kind: fct-gpebo}]", ["fct-gpebo", "fct-gpebo-2"]),
    ]:
        rc = cli.main(["compare", *FAST, "--set", "output.checkpoints=[0.0005]",
                       "--set", f"observers={observers}"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["observer", "err@0.0005", "err_final", "t_c"]
        row_a = lines[1].split()
        row_b = lines[2].split()
        assert [row_a[0], row_b[0]] == names
        # identical estimator settings -> identical rows (determinism)
        assert row_a[1:] == row_b[1:]


def _solo_compare_cells(cfg: dict, index: int) -> list:
    """The table cells of observer `index` run alone on the state loop: the
    recipe `compare` used when it gave every observer its own run."""
    sub = copy.deepcopy(cfg)
    sub["observers"] = [cfg["observers"][index]]
    sub["controller"]["feedback"] = "state"
    traj = run_scenario(scenario_from_config(sub))
    horizon = sub["scenario"]["horizon"]
    cps = tuple(c for c in sub["output"]["checkpoints"] if c <= horizon)
    metrics = compute_metrics(traj, band_frac=sub["output"]["band_frac"], checkpoints=cps)
    (name,) = traj.observers
    tc = metrics.get(f"tc_{name}", math.nan)
    return ([name] + [f"{metrics[f'err_at_{c:g}_{name}']:.6e}" for c in cps]
            + [f"{metrics[f'err_final_{name}']:.6e}", "-" if math.isnan(tc) else f"{tc:.6g}"])


def test_compare_rides_every_observer_on_one_run(monkeypatch, tmp_path, capsys):
    # the loop is closed on observer 0 in the document; compare runs the
    # state loop, so no estimator feeds back and each one rides along
    overrides = [
        "scenario.horizon=0.0015", "scenario.stride=50", "controller.feedback=observer",
        "output.checkpoints=[0.0005, 0.0015, 0.01]",
        "observers=[{name: fct, kind: fct-gpebo, gamma: 1.0e+20}, {kind: gpebo, gamma: 1.0e+17},"
        " {kind: emulator}, {kind: kbf}, {kind: gradient}]",
    ]
    cfg = apply_overrides(default_config(), overrides)
    expected = [_solo_compare_cells(cfg, i) for i in range(len(cfg["observers"]))]
    calls = []

    def counting(scn, **kwargs):
        calls.append(scn)
        return run_scenario(scn, **kwargs)

    monkeypatch.setattr(cli, "run_scenario", counting)
    argv = ["compare", "--out", str(tmp_path)]
    for text in overrides:
        argv += ["--set", text]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(calls) == 1
    header = ["observer", "err@0.0005", "err@0.0015", "err_final", "t_c"]
    assert lines[0].split() == header
    assert [line.split() for line in lines[1:6]] == expected
    assert expected[0][-1] != "-"  # the finite-time estimator crosses in the run
    csv_rows = (tmp_path / "run-compare.csv").read_text().splitlines()
    assert [row.split(",") for row in csv_rows] == [header] + expected


def test_sweep_matrix_and_empty(capsys):
    rc = cli.main([
        "sweep", *FAST,
        "--set", "controller.type=classical-pi", "--set", "controller.kp=0.008",
        "--param", "controller.ki", "--values", "4,8",
    ])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("sweep controller.ki: 2")
    assert out[1].split()[0] == "controller.ki"
    assert out[2].split()[0] == "4" and out[3].split()[0] == "8"

    assert cli.main(["sweep", "--param", "controller.ki", "--values", ""]) == 0
    assert "0 value(s)" in capsys.readouterr().out


def _sweep_stdout(capsys, out_dir, extra):
    rc = cli.main(["sweep", *extra, "--out", str(out_dir)])
    text = capsys.readouterr().out
    assert rc == 0
    return text.replace(str(out_dir), "<out>")


def _counting_pools(monkeypatch) -> list:
    """Count the process pools a sweep starts, with their arguments."""
    import concurrent.futures

    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return pools


def test_pooled_sweep_equals_the_serial_sweep(monkeypatch, tmp_path, capsys):
    """Two values are two passes, which fan out over the process pool; each
    row of the table and the CSV is that of the value's one-value sweep,
    which runs in this process, byte for byte."""
    pools = _counting_pools(monkeypatch)
    base = [*FAST, "--param", "controller.ki", "--values"]
    pooled = _sweep_stdout(capsys, tmp_path / "pooled", [*base, "4,8"]).splitlines()
    assert len(pools) == 1
    csv_rows = (tmp_path / "pooled" / "run-sweep.csv").read_bytes().splitlines()
    assert len(csv_rows) == 3
    for i, value in enumerate(["4", "8"], start=1):
        alone = _sweep_stdout(capsys, tmp_path / value, [*base, value]).splitlines()
        assert [row.split() for row in alone[1:3]] == [pooled[1].split(), pooled[i + 1].split()]
        assert (tmp_path / value / "run-sweep.csv").read_bytes().splitlines() == [csv_rows[0], csv_rows[i]]
    assert len(pools) == 1


def test_pooled_sweep_reports_an_infeasible_point_as_the_serial_sweep(monkeypatch, capsys):
    """The pooled sweep's stderr is that of the infeasible value's one-value
    sweep, which runs in this process."""
    pools = _counting_pools(monkeypatch)
    argv = ["sweep", "--set", "scenario.horizon=0.0001", "--param", "controller.x4_star"]
    assert cli.main([*argv, "--values=-15,-1000"]) == 3
    pooled = capsys.readouterr().err
    assert len(pools) == 1
    assert cli.main([*argv, "--values=-1000"]) == 3
    alone = capsys.readouterr().err
    assert alone.startswith("infeasible operating point: ")
    assert pooled == alone
    assert len(pools) == 1


def test_gain_sweep_shares_one_pass_without_a_pool(monkeypatch, tmp_path, capsys):
    """Values of a riding estimator's gain share one closed-loop pass in
    this process; each row is the one-value sweep's, byte for byte."""
    import pbclab.sim as simmod

    pools, steps = _counting_pools(monkeypatch), []
    step = simmod._rk4_split_step

    def counting_step(*args):
        steps.append(1)
        return step(*args)

    monkeypatch.setattr(simmod, "_rk4_split_step", counting_step)
    values = ["1e10", "1e11", "1e12"]
    base = ["--preset", "fig-observer-gains", *FAST, "--param", "observers.0.gamma"]
    swept = _sweep_stdout(capsys, tmp_path / "all", [*base, "--values", ",".join(values)])
    assert pools == []
    assert len(steps) == round(0.0005 / 5.0e-7)  # one pass for three rows
    table = swept.splitlines()[1:5]
    csv_rows = (tmp_path / "all" / "fig-observer-gains-sweep.csv").read_bytes().splitlines()
    assert len(csv_rows) == 4
    for i, value in enumerate(values, start=1):
        alone = _sweep_stdout(capsys, tmp_path / value, [*base, "--values", value]).splitlines()
        alone_csv = (tmp_path / value / "fig-observer-gains-sweep.csv").read_bytes().splitlines()
        assert alone_csv == [csv_rows[0], csv_rows[i]]
        assert [row.split() for row in alone[1:3]] == [table[0].split(), table[i].split()]
    assert pools == []


def test_a_gain_sweep_takes_its_filters_delta_once(monkeypatch, capsys):
    """16 values of a riding gain share one pass and its one filter: the
    sampled Delta is taken by one adjugate call for all 48 estimators of
    the rows, and each one's Delta column is still the determinant of its
    own sampled Omega, read-only since the rows share it."""
    from pbclab.observers import _adj_det

    calls, trajs, run = [], [], cli.run_scenario

    def counting_adj_det(a):
        calls.append(a.shape)
        return _adj_det(a)

    def keeping_run(*args, **kwargs):
        trajs.append(run(*args, **kwargs))
        return trajs[-1]

    monkeypatch.setattr(sim, "_adj_det", counting_adj_det)
    monkeypatch.setattr(cli, "run_scenario", keeping_run)
    values = ",".join(f"{k}e11" for k in range(1, 17))
    argv = ["sweep", "--preset", "fig-observer-gains", *FAST, "--param", "observers.0.gamma", "--values", values]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(trajs) == 16 and calls == [(4, 4, round(0.0005 / 5.0e-7 / 20) + 1)]
    for traj in trajs:
        assert len(traj.observers) == 3
        for rec in traj.observers.values():
            assert rec["Delta"].tobytes() == _adj_det(np.moveaxis(rec["Omega"], 0, -1))[1].tobytes()
            with pytest.raises(ValueError):
                rec["Delta"][0] = 0.0


def test_a_sweep_whose_later_row_diverges_fails_as_that_row_alone(monkeypatch, tmp_path, capsys):
    """The third value's rider turns non-finite from step k of a run on:
    the sweep exits 4 with the stderr of that value's one-value sweep, and
    neither writes a table."""
    import pbclab.observers as obs
    import pbclab.sim as simmod

    k_nan, gamma_nan = 150, 1e13
    calls, run = [], cli.run_scenario  # calls: the steps of the row

    def nan_scalar(omega, theta_hat, scriptY, Delta, gamma, h):
        # the riders' tape runs, in step order: omega after step k_nan on is NaN
        obs.scalar_steps(omega, theta_hat, scriptY, Delta, gamma, h)
        hit = np.ravel(gamma) == gamma_nan  # a stack steps each row once
        if hit.any():
            omega[1 + min(max(k_nan - len(calls), 0), len(Delta)):, hit] = math.nan
            calls.extend([1] * len(Delta))

    def counting_run(*args, **kwargs):
        calls.clear()
        return run(*args, **kwargs)

    monkeypatch.setattr(simmod, "scalar_steps", nan_scalar)
    monkeypatch.setattr(cli, "run_scenario", counting_run)
    base = ["sweep", "--preset", "fig-observer-gains", *FAST, "--param", "observers.0.gamma"]
    errs = []
    for values in ("1e10,3e12,1e13", "1e13"):
        assert cli.main([*base, "--out", str(tmp_path / values), "--values", values]) == 4
        errs.append(capsys.readouterr().err)
        assert not (tmp_path / values / "fig-observer-gains-sweep.csv").exists()
    message = f"non-finite estimator state after the step to t={(k_nan + 1) * 5e-7:g} s"
    assert errs == [f"numerical failure: {message}\n"] * 2


def test_a_shared_pass_counts_its_union_against_the_sample_cap(monkeypatch, capsys):
    """2 000 values of a riding gain at stride 1: each row alone is within
    the sample cap, but their one pass steps a row per gain, so the sweep is
    refused before any step."""
    import pbclab.sim as simmod

    steps = []
    monkeypatch.setattr(simmod, "_rk4_split_step", lambda *args: steps.append(1))
    preset = (PRESET_DIR / "fig-observer-gains.yaml").read_text()
    apply_overrides(loads_config(preset), ["scenario.stride=1", "observers.0.gamma=2.0e+12"])  # one row: valid
    values = ",".join(f"{i}e9" for i in range(1, 2001))
    argv = ["sweep", "--preset", "fig-observer-gains", "--set", "scenario.stride=1",
            "--param", "observers.0.gamma", "--values", values]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    found = re.fullmatch(r"config error: .* ask for (\S+) bytes of samples, more than the cap of (\d+) bytes\n", err)
    assert found, err
    assert float(found[1]) > 8e9 and int(found[2]) == sim.MAX_STORE_BYTES
    assert steps == []


def test_a_sweep_builds_and_keys_each_row_once(monkeypatch, capsys):
    """Each validated document's scenario is built once (the preset, the
    overrides and one per row) and each row's pass key is taken once."""
    import pbclab.config as configmod
    import pbclab.sim as simmod

    built, keyed = [], []
    build, key = configmod.scenario_from_config, simmod._pass_key

    def counting_build(cfg):
        built.append(1)
        return build(cfg)

    def counting_key(scn):
        keyed.append(1)
        return key(scn)

    monkeypatch.setattr(configmod, "scenario_from_config", counting_build)
    monkeypatch.setattr(simmod, "_pass_key", counting_key)
    argv = ["sweep", "--preset", "fig-observer-gains", *FAST, "--param", "observers.0.gamma",
            "--values", "1e10,3e11,1e12"]
    assert cli.main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5
    assert len(keyed) == 3
    assert len(built) == 3 + 2


def _counting_builds_and_runs(monkeypatch):
    """Count the scenarios built and record the x0 of each run."""
    import pbclab.config as configmod

    built, runs = [], []
    build, run = configmod.scenario_from_config, cli.run_scenario

    def counting_build(cfg):
        built.append(1)
        return build(cfg)

    def recording_run(scn, **kwargs):
        runs.append(scn.x0)
        return run(scn, **kwargs)

    monkeypatch.setattr(configmod, "scenario_from_config", counting_build)
    monkeypatch.setattr(cli, "scenario_from_config", counting_build)
    monkeypatch.setattr(cli, "run_scenario", recording_run)
    return built, runs


def test_simulate_builds_each_variants_scenario_once(monkeypatch, tmp_path, capsys):
    """fig-initial-conditions: the preset, the overrides and each of the
    three variants are built once, and each run is its variant's."""
    built, runs = _counting_builds_and_runs(monkeypatch)
    argv = ["simulate", "--preset", "fig-initial-conditions", *FAST, "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert len(built) == 2 + 3
    assert runs == [(0.75, 15.0, -1.5, -18.0), (0.5, 10.0, -1.0, -12.0), (0.25, 5.0, -0.5, -6.0)]
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
        f"fig-initial-conditions-ic-{c}.csv" for c in "abc"
    ]


@pytest.mark.parametrize("sets, checks, builds", [([], 1, 2), (FAST, 2, 3)])
def test_a_loaded_document_is_checked_again_only_after_an_assignment(monkeypatch, tmp_path, sets, checks, builds):
    """fig-observer-compare: loading checks the preset and builds its
    scenario once; without --set it is not checked again, so its one run
    adds only simulate's own build.  The run itself is cut short."""
    import dataclasses

    import pbclab.config as configmod

    built, _ = _counting_builds_and_runs(monkeypatch)
    checked, check, run = [], configmod.validate_config, cli.run_scenario

    def counting_check(cfg):
        checked.append(1)
        return check(cfg)

    def short_run(scn, **kwargs):
        return run(dataclasses.replace(scn, horizon=5e-5, stride=20), **kwargs)

    monkeypatch.setattr(configmod, "validate_config", counting_check)
    monkeypatch.setattr(cli, "validate_config", counting_check)
    monkeypatch.setattr(cli, "run_scenario", short_run)
    argv = ["simulate", "--preset", "fig-observer-compare", *sets, "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert (len(checked), len(built)) == (checks, builds)


def test_a_bad_variant_stops_simulate_before_the_first_run(monkeypatch, tmp_path, capsys):
    path = tmp_path / "variants.yaml"
    path.write_text(
        "scenario: {horizon: 0.0005, stride: 20}\n"
        "variants:\n"
        "  - {label: good, set: {controller.ki: 5.0}}\n"
        "  - {label: bad, set: {controller.ki: -1.0}}\n"
    )
    _, runs = _counting_builds_and_runs(monkeypatch)
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert runs == []
    assert "ki > 0" in capsys.readouterr().err


@pytest.mark.parametrize("override, key", [("observers.2.gamma=-1", "gamma"), ("observers.3.mu=2", "mu")],
                         ids=["emulator-gamma", "kbf-mu"])
def test_each_estimator_setting_has_one_rule_whatever_the_kind(capsys, override, key):
    # gamma, mu and lambda are checked on every estimator, also on a kind
    # that never reads them (observer 2 is the emulator, 3 the KBF)
    rc = cli.main(["simulate", "--preset", "fig-observer-compare", "--set", "scenario.horizon=0.00005",
                   "--set", override])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f": {key} must" in err, err


@pytest.mark.parametrize("override, key", [
    ("observers.0.gamma=.inf", "gamma"),
    ("scenario.x0=[.nan, 15.0, -1.5, -18.0]", "x0"),
    ("controller.xc0=.inf", "xc0"),
    ("controller.x4_star=.nan", "x4_star"),
    ("output.band_frac=.nan", "band_frac"),
    ("output.band_frac=1.0", "band_frac"),
    *((f"observers.3={{kind: kbf, {key}: {bad}}}", f"'kbf': {key}")
      for key in ("s", "h0") for bad in (".nan", ".inf", "-.inf")),
])
def test_a_value_a_run_cannot_use_is_a_config_error(capsys, override, key):
    rc = cli.main(["simulate", "--preset", "fig-observer-gains",
                   "--set", "scenario.horizon=0.00005", "--set", override])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    if key == "band_frac":  # the one rule, which compute_metrics applies too
        traj = run_scenario(sim.Scenario(horizon=5e-5))
        for bad in (math.nan, 0.0, 1.0):
            with pytest.raises(ValueError, match="band_frac"):
                compute_metrics(traj, band_frac=bad)


_COMMANDS = {
    "simulate": ["simulate", "--set", "output.svg=false"],
    "equilibrium": ["equilibrium"],
    "compare": ["compare"],
    "sweep": ["sweep", "--param", "observers.1.gamma", "--values", "1e16,1e17"],
}


@pytest.mark.parametrize("command, override, code, prefix, named", [
    # a ki too small to invert: the rule of control.integrator_reference
    *((cmd, "controller.ki=1e-301", 2, "config error: ", "ki >= 1e-300") for cmd in ("simulate", "compare", "sweep")),
    # a value the model divides by, whose reciprocal overflows
    *((cmd, "model.C2=5e-324", 2, "config error: ", "C2 must have a finite reciprocal")
      for cmd in ("simulate", "equilibrium", "compare", "sweep")),
    # a state at the duty root that overflows the model equations
    *((cmd, "model.C1=1e308", 3, "infeasible operating point: ", "equilibrium residual nan")
      for cmd in ("simulate", "compare", "sweep")),
    ("equilibrium", "model.C1=1e308", 3, "verdict: infeasible (", "equilibrium residual nan"),
    # a dissipation entry near the float range: R is checked at its own scale
    *((cmd, "model.r2=1e308", 3, "infeasible operating point: ", "quadratic roots [nan, nan] all fall outside (0, 1)")
      for cmd in ("simulate", "compare", "sweep")),
    # a source whose discriminant overflows: one root is infinite, and its Newton polish NaN; the
    # other, 1.6e-199, lies below the uniform scan grid, and the state at it overflows
    *((cmd, "model.E=1e200", 3, "infeasible operating point: ", "equilibrium residual inf exceeds")
      for cmd in ("simulate", "compare", "sweep")),
    ("equilibrium", "model.E=1e200", 3, "verdict: infeasible (", "equilibrium residual inf exceeds"),
])
def test_an_input_that_once_ended_in_a_traceback_exits_with_its_code(tmp_path, capsys, command, override, code,
                                                                    prefix, named):
    argv = [*_COMMANDS[command], "--preset", "fig-observer-compare", "--set", "scenario.horizon=2e-5",
            "--set", override]
    assert cli.main([*argv, "--out", str(tmp_path)] if command == "simulate" else argv) == code
    out, err = capsys.readouterr()
    if command == "equilibrium" and code == 3:  # the verdict is the last line of the report
        assert err == "" and out.splitlines()[-1].startswith(prefix) and named in out.splitlines()[-1]
    else:
        assert err.startswith(prefix) and named in err and err.count("\n") == 1, err
    assert "np.float64" not in out + err


@pytest.mark.parametrize("x4_star, roots", [
    ("-1e-30", "9.0416666666666679e-32"),  # 1e27 times below the uniform grid's first point
    ("-1e-12", "9.041666666665849e-14, 0.99999999999999301"),  # and one 7e-15 below 1, beyond its last
])
def test_a_duty_root_near_either_end_is_confirmed_by_the_scan(capsys, x4_star, roots):
    # the closed-form roots lie beyond the scan's uniform grid, toward 0 and
    # toward 1; its graded points bracket them, so the operating point is
    # feasible where it once was a numerical failure (exit 4)
    assert cli.main(["equilibrium", "--set", f"controller.x4_star={x4_star}"]) == 0
    out = capsys.readouterr().out
    assert f"candidates in (0,1): {roots}\n" in out and "verdict: feasible\n" in out


def _no_scan_root(monkeypatch):
    monkeypatch.setattr(cuk, "steady_state_oracle", lambda *args, **kwargs: [])


@pytest.mark.parametrize("argv, setup, code, prefix", [
    (["simulate", "--set", "controller.kp=-1"], None, 2, "config error: "),
    (["simulate", "--set", "controller.x4_star=-20"], None, 3, "infeasible operating point: no equilibrium at t=0 s: "),
    (["simulate", "--set", "observers=[{name: kbf, kind: kbf, s: 1.0e+18, h0: 1.0e+18}]"], None, 4,
     "numerical failure: non-finite state after step ending at t="),
    (["simulate"], _no_scan_root, 4, "numerical failure: closed-form root "),
    (["equilibrium"], _no_scan_root, 4, "numerical failure: closed-form root "),
], ids=["config", "infeasible", "non-finite", "oracle-simulate", "oracle-equilibrium"])
def test_main_maps_each_failure_class_to_its_exit_code(monkeypatch, tmp_path, capsys, argv, setup, code, prefix):
    # one clause of main per exit code; a closed-form root that the scan
    # does not confirm is a numerical failure for every command
    if setup is not None:
        setup(monkeypatch)
    rc = cli.main([*argv, *FAST, "--set", "output.csv=false", "--out", str(tmp_path)] if argv[0] == "simulate" else argv)
    err = capsys.readouterr().err
    assert rc == code
    assert err.startswith(prefix) and err.count("\n") == 1, err
    if code == 4 and setup is not None:
        assert err.endswith("not confirmed by scan roots []\n")


@pytest.mark.parametrize("override", ["scenario.h=1e-300", "scenario.horizon=1e300", "scenario.h=5e-324"])
def test_a_step_count_over_the_cap_is_refused_before_anything_runs(monkeypatch, tmp_path, capsys, override):
    # horizon / h is checked against the step cap before it is rounded, so
    # a huge or an infinite ratio (0.05 / 5e-324) is a configuration error
    # that names h, horizon and stride, and no run starts
    def no_run(*args, **kwargs):
        raise AssertionError("a refused scenario must not run")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    out = tmp_path / "out"
    rc = cli.main(["simulate", "--preset", "fig-step", "--set", override, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: ") and all(key in err for key in ("h=", "horizon=", "stride="))
    assert not out.exists()
    # the cap itself is a step count a scenario may ask for
    assert sim.validate_scenario(sim.Scenario(h=1e-9, horizon=0.1)) == sim.MAX_STEPS


def test_a_sample_store_over_the_cap_is_refused_before_anything_is_allocated(monkeypatch, tmp_path, capsys):
    # 2e7 steps are under the step cap, but sampling each of them would
    # take 1.44e9 bytes (72 per sample without an estimator), more than
    # MAX_STORE_BYTES: a configuration error that names h, horizon and
    # stride, raised before any run starts or any sample is allocated
    import tracemalloc

    def no_run(*args, **kwargs):
        raise AssertionError("a refused scenario must not run")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        rc = cli.main(["simulate", "--set", "scenario.horizon=10", "--set", "scenario.stride=1", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: ") and all(key in err for key in ("h=", "horizon=", "stride="))
    assert peak < 2**20 and not out.exists()
    # one sample fewer than the cap's worth is a store a scenario may ask for
    steps = sim.MAX_STORE_BYTES // 72 - 1
    assert sim.validate_scenario(sim.Scenario(horizon=steps * 5e-7, stride=1)) == steps


# every exception class pbclab defines, with constructor arguments
_EXCEPTION_SAMPLES = {
    ConfigError: ("unknown key 'x'",),
    cuk.CukError: ("bad parameters",),
    cuk.InfeasibleEquilibrium: ("no equilibrium at t=0.001 s: no equilibrium at x4_star=-1000 V "
                                "(discriminant -1.47502e+08 < 0)", -1.47502e8, 1e-3),
    cuk.OracleMismatch: ("roots disagree",),
    phmodel.ModelError: ("bad model",),
    sim.NonFiniteState: ("non-finite state at t=1e-05 s",),
    sim.ScenarioError: ("stride must be an integer >= 1",),
}


def _defined_exception_classes():
    found = set()
    for info in pkgutil.iter_modules(pbclab.__path__):
        mod = importlib.import_module(f"pbclab.{info.name}")
        for obj in vars(mod).values():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == mod.__name__):
                found.add(obj)
    return found


def test_every_exception_survives_a_pickle_round_trip():
    """A pool worker's exception reaches the parent through pickle."""
    assert _defined_exception_classes() == set(_EXCEPTION_SAMPLES)
    for cls, args in _EXCEPTION_SAMPLES.items():
        exc = cls(*args)
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc)
        assert vars(back) == vars(exc)


def test_importing_the_cli_leaves_the_pool_and_xml_stacks_unloaded():
    code = (
        "import sys, numpy, yaml\n"
        "before = set(sys.modules)\n"
        "import pbclab.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    src = str(Path(pbclab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    added = done.stdout.split()
    assert "pbclab.cli" in added
    heavy = ("concurrent.futures", "multiprocessing", "xml", "urllib", "http", "ssl",
             "email", "socket", "subprocess")
    loaded = [m for m in added for h in heavy if m == h or m.startswith(h + ".")]
    assert loaded == []


def test_svg_text_nodes_are_escaped_as_saxutils_escapes_them():
    from xml.sax.saxutils import escape

    nasty = "a<b & c>d \"q\" 'r'"
    t = np.linspace(0.0, 1.0, 5)
    svg = svgplot.line_plot([(nasty + " v4", t, t**2)], title=nasty + " title",
                            xlabel=nasty + " x", ylabel=nasty + " y")
    texts = re.findall(r"<text [^>]*>(.*?)</text>", svg)
    for label in (" title", " x", " y", " v4"):
        assert escape(nasty + label) in texts
    assert escape(nasty) == "a&lt;b &amp; c&gt;d \"q\" 'r'"


def test_svg_curves_are_projected_as_each_point_alone(monkeypatch):
    """A curve is projected as one array; every point must be sx and sy on
    that point alone, as numpy scalars, which the same plot computes when
    its thinned curves hold their points as objects.  Seeded series with
    NaNs, long enough to be thinned, on a linear and a log axis."""
    rng = np.random.default_rng(7)
    series = []
    for k in range(3):
        x = np.sort(rng.uniform(0.0, 0.05, 2500 + 700 * k))
        y = np.exp(rng.normal(0.0, 3.0, x.size)) * 10.0**-k
        y[rng.choice(x.size, 40, replace=False)] = np.nan
        y[:5] = -1.0  # nonpositive: off the log axis
        series.append((f"s{k}", x, y))
    thin = svgplot._thin
    for ylog in (False, True):
        svg = svgplot.line_plot(series, ylog=ylog)
        monkeypatch.setattr(svgplot, "_thin", lambda x, y: tuple(v.astype(object) for v in thin(x, y)))
        per_point = svgplot.line_plot(series, ylog=ylog)
        monkeypatch.undo()
        curves = re.findall(r'<polyline points="([^"]*)"', svg)
        assert [len(c.split()) for c in curves] == [svgplot._MAX_POINTS] * 3
        assert svg == per_point


def test_sweep_bad_or_nonscalar_path_exit2(capsys):
    assert cli.main(["sweep", "--param", "controller.nope", "--values", "1"]) == 2
    assert cli.main(["sweep", "--param", "controller", "--values", "1"]) == 2


def test_event_outside_horizon_is_config_error(capsys):
    rc = cli.main(["simulate", *FAST, "--preset", "fig-step"])
    assert rc == 2
    assert "horizon" in capsys.readouterr().err
