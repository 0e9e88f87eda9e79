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
from pbclab import cli, control, cuk, phmodel, sim, svgplot
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
                "controller.kp", "=3"]:
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

    def counting(scn):
        calls.append(scn)
        return run_scenario(scn)

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


def test_sweep_matrix_and_empty(monkeypatch, capsys):
    monkeypatch.setenv("PBCLAB_SERIAL", "1")
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


def test_pooled_sweep_equals_the_serial_sweep(monkeypatch, tmp_path, capsys):
    """Two values fan out over the process pool; the table and the CSV are
    the serial run's, byte for byte."""
    import concurrent.futures

    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    extra = [*FAST, "--param", "controller.ki", "--values", "4,8"]
    monkeypatch.delenv("PBCLAB_SERIAL", raising=False)
    pooled = _sweep_stdout(capsys, tmp_path / "pooled", extra)
    assert len(pools) == 1
    monkeypatch.setenv("PBCLAB_SERIAL", "1")
    serial = _sweep_stdout(capsys, tmp_path / "serial", extra)
    assert len(pools) == 1
    assert pooled == serial
    assert (tmp_path / "pooled" / "run-sweep.csv").read_bytes() == (
        tmp_path / "serial" / "run-sweep.csv"
    ).read_bytes()


def test_pooled_sweep_reports_an_infeasible_point_as_the_serial_sweep(monkeypatch, capsys):
    argv = ["sweep", "--set", "scenario.horizon=0.0001",
            "--param", "controller.x4_star", "--values=-15,-1000"]
    monkeypatch.delenv("PBCLAB_SERIAL", raising=False)
    assert cli.main(argv) == 3
    pooled = capsys.readouterr().err
    monkeypatch.setenv("PBCLAB_SERIAL", "1")
    assert cli.main(argv) == 3
    serial = capsys.readouterr().err
    assert serial.startswith("infeasible operating point: ")
    assert pooled == serial


def test_gain_sweep_shares_one_pass_without_a_pool(monkeypatch, tmp_path, capsys):
    """Values of a riding estimator's gain share one closed-loop pass in
    this process; each row is the one-value sweep's, byte for byte."""
    import concurrent.futures

    import pbclab.sim as simmod

    pools, steps = [], []
    step = simmod._rk4_split_step

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    def counting_step(*args):
        steps.append(1)
        return step(*args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(simmod, "_rk4_split_step", counting_step)
    monkeypatch.delenv("PBCLAB_SERIAL", raising=False)
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


@pytest.mark.parametrize("override, key", [
    ("observers.0.gamma=.inf", "gamma"),
    ("scenario.x0=[.nan, 15.0, -1.5, -18.0]", "x0"),
    ("controller.xc0=.inf", "xc0"),
    ("controller.x4_star=.nan", "x4_star"),
    ("output.band_frac=.nan", "band_frac"),
    ("output.band_frac=1.0", "band_frac"),
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


# every exception class pbclab defines, with constructor arguments
_EXCEPTION_SAMPLES = {
    ConfigError: ("unknown key 'x'",),
    control.SingularKIError: ("Ki is singular",),
    cuk.CukError: ("bad parameters",),
    cuk.InfeasibleEquilibrium: (-1000.0, -1.47502e8),
    cuk.NoRootInUnitInterval: ([1.25, -0.5],),
    cuk.OracleMismatch: ("roots disagree",),
    phmodel.ModelError: ("bad model",),
    phmodel.NonSkewError: (2,),
    phmodel.NonSymmetricRError: (),
    phmodel.NonPsdRError: (-0.125,),
    phmodel.NonPositiveQError: (),
    phmodel.RankDeficientCError: (1, 2),
    sim.NonFiniteState: ("non-finite state at t=1e-05 s",),
    sim.InfeasibleEquilibrium: (1e-3, cuk.InfeasibleEquilibrium(-1000.0, -1.47502e8)),
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


def test_sweep_bad_or_nonscalar_path_exit2(capsys):
    assert cli.main(["sweep", "--param", "controller.nope", "--values", "1"]) == 2
    assert cli.main(["sweep", "--param", "controller", "--values", "1"]) == 2


def test_event_outside_horizon_is_config_error(capsys):
    rc = cli.main(["simulate", *FAST, "--preset", "fig-step"])
    assert rc == 2
    assert "horizon" in capsys.readouterr().err
