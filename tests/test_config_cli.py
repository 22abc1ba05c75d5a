"""Config parsing and validation, plus the command-line entry point."""

import inspect
import json
import math
import re
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from seqevl import experiments
from seqevl.cli import build_parser
from seqevl.config import (
    KINDS,
    ConfigError,
    ExperimentConfig,
    ExponentSpec,
    MeshSpec,
    ObservableSpec,
    RecurrenceSpec,
    ScheduleSpec,
    _flat,
    config_from_dict,
    default_config,
    kind_reads,
    load_config,
    parse_toml,
    validate_config,
)
from seqevl.maps import ParameterSchedule
from seqevl.mesh import graded_mesh
from seqevl.montecarlo import build_blocks
from seqevl.recurrence import RecurrenceParams
from seqevl.thresholds import Observable


# -------------------------------------------------------------------- TOML

def test_parse_toml_full_document():
    text = """
# top comment
kind = "evl"          # trailing comment
tau = 1.5
n = 1000
n_ladder = [250, 500, 1000]
deep = -3.5e-2
flag = true
label = "a \\"quoted\\" name\\nsecond line"

[schedule]
mode = "iid"
lo = 0.01
hi = 0.14

[nested.inner]
x = 1
"""
    data = parse_toml(text)
    assert data["kind"] == "evl"
    assert data["tau"] == 1.5
    assert data["n"] == 1000 and isinstance(data["n"], int)
    assert data["n_ladder"] == [250, 500, 1000]
    assert data["deep"] == pytest.approx(-0.035)
    assert data["flag"] is True
    assert data["label"] == 'a "quoted" name\nsecond line'
    assert data["schedule"]["mode"] == "iid"
    assert data["nested"]["inner"]["x"] == 1


@pytest.mark.parametrize("text,fragment", [
    ("kind =\n", "line 1"),
    ("= 3\n", "line 1"),
    ("a b = 3\n", "line 1"),
    ("[bad\n", "line 1"),
    ('x = "unterminated\n', "line 1"),
    ('x = "bad \\q escape"\n', "line 1"),
    ('x = "done" trailing\n', "line 1"),
    # arrays may span lines, so a missing ] is only found at the end
    ("x = [1, 2\n", "end of document"),
    ("x = what?\n", "line 1"),
    ("ok = 1\nok = 2\n", "line 2"),
    ("[a]\nk = 1\n[a.k]\nz = 2\n", "line 3"),
])
def test_parse_toml_rejects_with_line_numbers(text, fragment):
    with pytest.raises(ConfigError) as exc:
        parse_toml(text)
    assert fragment in str(exc.value)


def test_toml_round_trip_preserves_config():
    cfg = default_config(
        "dprime", tau=1.5, n_ladder=(250, 500),
        schedule=ScheduleSpec(mode="periodic", cycle=(0.05, 0.1)),
        observable=ObservableSpec(zeta=0.3),
    )
    back = config_from_dict(parse_toml(cfg.to_toml()))
    assert back == cfg


def test_toml_round_trip_escapes_strings():
    # TOML forbids literal control characters but tab in a basic string
    cfg = default_config(out_dir='runs\tx\n\x7f"q\\ é\x00\x1f')
    assert config_from_dict(parse_toml(cfg.to_toml())) == cfg


def test_load_config(tmp_path):
    cfg = default_config("evl", seed=5)
    path = tmp_path / "c.toml"
    path.write_text(cfg.to_toml())
    loaded = load_config(path)
    assert loaded == cfg


# forms that only standard TOML allows: each loads as its plain form, or
# fails with the key named
@pytest.mark.parametrize("text,plain,bad_key", [
    ('schedule = {mode = "iid"}\n', '[schedule]\nmode = "iid"\n', None),
    ("schedule.cycle = [0.12]\n", "[schedule]\ncycle = [0.12]\n", None),
    ("n_ladder = [\n  250,\n  500,  # comment\n]\n", "n_ladder = [250, 500]\n", None),
    ("out_dir = 'other'\n", 'out_dir = "other"\n', None),
    ("n = 1_500\n", "n = 1500\n", None),
    ("seed = 2016-01-01\n", None, "seed"),
    ("n_ladder = [[250], [500]]\n", None, "n_ladder"),
])
def test_standard_toml_forms_load_or_fail_by_key(tmp_path, text, plain, bad_key):
    path = tmp_path / "c.toml"
    path.write_text(text)
    if bad_key is None:
        loaded = load_config(path)
        assert loaded == config_from_dict(parse_toml(plain))
        assert loaded != ExperimentConfig()
    else:
        with pytest.raises(ConfigError, match=bad_key):
            load_config(path)


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_dict({"bogus": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"schedule": {"mode": "iid", "bogus": 2}})
    with pytest.raises(ConfigError):
        config_from_dict({"schedule": "not-a-table"})
    with pytest.raises(ConfigError, match="unknown top-level key 'route'"):
        config_from_dict({"route": "exact"})
    # a constant schedule is a one-exponent cycle, with no key of its own
    with pytest.raises(ConfigError, match="unknown key 'alpha' in \\[schedule\\]"):
        config_from_dict({"schedule": {"alpha": 0.1}})
    # xi and eta enter only the fixed exponent budgets
    for key in ("xi", "eta"):
        with pytest.raises(ConfigError, match=f"unknown key '{key}' in \\[exponents\\]"):
            config_from_dict({"exponents": {key: 0.5}})
    # every mesh is graded, so [mesh] has no kind
    for kind in ("graded", "uniform"):
        with pytest.raises(ConfigError, match="unknown key 'kind' in \\[mesh\\]"):
            config_from_dict({"mesh": {"kind": kind}})
    # [observable] holds zeta alone
    for key, value in (("form", "log"), ("power", 2.0), ("cap", 1.0)):
        with pytest.raises(ConfigError, match=f"unknown key '{key}' in \\[observable\\]"):
            config_from_dict({"observable": {key: value}})
    # values of the wrong type are rejected with the key named
    for data, key in [
        ({"tau": "abc"}, "tau"),
        ({"n_ladder": [250, "x"]}, "n_ladder"),
        ({"n_ladder": 250}, "n_ladder"),
        ({"seed": 1.5}, "seed"),
        ({"n": True}, "n"),
        ({"kind": 3}, "kind"),
        ({"schedule": {"lo": False}}, "lo"),
        ({"schedule": {"cycle": [0.05, "x"]}}, "cycle"),
        ({"mesh": {"cells": 1024.0}}, "cells"),
        ({"tau": math.nan}, "tau must be finite"),
        ({"tau": math.inf}, "tau must be finite"),
        ({"tau": 10 ** 400}, "tau must be finite"),
        ({"n": 10 ** 30}, "n must be a 64-bit integer"),
        ({"observable": {"zeta": math.inf}}, "zeta must be finite"),
        ({"schedule": {"cycle": [0.05, -math.inf]}}, "cycle must be finite"),
    ]:
        with pytest.raises(ConfigError, match=key):
            config_from_dict(data)
    # an int is a valid float value
    cfg = config_from_dict({"tau": 1, "schedule": {"cycle": [1, 0.5]}})
    assert cfg.tau == 1.0 and isinstance(cfg.tau, float)
    assert cfg.schedule.cycle == (1.0, 0.5)


def test_readme_config_block_is_the_default_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```toml\n(.*?)```", readme, flags=re.S)
    data = parse_toml(block)
    assert config_from_dict(data) == ExperimentConfig()
    defaults = asdict(ExperimentConfig())
    assert data.keys() == defaults.keys()
    for name, value in defaults.items():
        if isinstance(value, dict):
            assert data[name].keys() == value.keys(), name


def test_readme_kind_table_is_reads():
    # each row: the keys its kind reads, then its horizon rule
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` +\| (.*?) +\| (.*?) *\|$", readme, flags=re.M)

    def rule(row):
        parts = [f"n >= {row.min_n}" * (row.min_n > 1),
                 f"{row.min_rungs} rungs or more" * (row.min_rungs > 1),
                 ("ladder " + ", ".join(map(str, row.ladder))) * bool(row.ladder)]
        return "; ".join(part for part in parts if part)

    assert {kind: (tuple(re.findall(r"`([\w.]+)`", keys)), horizons)
            for kind, keys, horizons in rows} == {kind: (row.reads, rule(row))
                                                  for kind, row in KINDS.items()}


def test_one_list_of_kinds():
    (command,) = [action for action in build_parser()._actions if action.dest == "command"]
    assert list(KINDS) == list(experiments._RUNNERS) == [
        c for c in command.choices if c != "validate"]
    assert {a.dest: a.help for a in command._choices_actions if a.dest != "validate"} == {
        kind: row.help for kind, row in KINDS.items()}


def test_readme_commands_are_the_parsers():
    # README's list: each KINDS row's command and help line, then validate's
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Commands:\n\n", 1)[1].split("\n\n", 1)[0]
    (command,) = [action for action in build_parser()._actions if action.dest == "command"]
    (validate,) = [a.help for a in command._choices_actions if a.dest == "validate"]
    assert block.replace("`", "").splitlines() == [
        *(f"- {kind} : {row.help}" for kind, row in KINDS.items()), f"- validate : {validate}"]


def test_spec_defaults_are_the_builders_defaults():
    assert ObservableSpec().build() == Observable()
    assert RecurrenceSpec().build(ScheduleSpec().alpha_star) == RecurrenceParams()
    assert ScheduleSpec().build() == ParameterSchedule()
    assert np.array_equal(MeshSpec().build().boundaries, graded_mesh().boundaries)
    blocks = inspect.signature(build_blocks).parameters
    assert ExponentSpec().beta == blocks["beta"].default
    assert ExponentSpec().kappa == blocks["kappa"].default


def test_each_kind_steps_to_its_one_horizon_source():
    def ns(kind, **overrides):
        return KINDS[kind].ns(default_config(kind, n=7, **overrides))

    for kind in ("evl", "dprime"):
        assert (ns(kind), ns(kind, n_ladder=(2, 4))) == ((7,), (2, 4))
    assert (ns("decay"), ns("decay", n_ladder=(2, 4))) == (KINDS["decay"].ladder, (2, 4))
    assert KINDS["decay"].ladder == (64, 128, 256, 512, 1024, 2048, 4096)
    for kind in ("calibrate", "d0", "orbit"):
        assert ns(kind) == ns(kind, n_ladder=(2, 4)) == ns(kind, n_ladder=(500,)) == (7,)
    assert ns("recurrence") == ns("recurrence", n_ladder=(2, 4)) == (1, 5, 20)


# --------------------------------------------------------------- validation

def test_default_config_has_no_diagnostics():
    assert validate_config(default_config("evl")) == []
    assert validate_config(default_config("recurrence")) == []


def test_schedule_exponent_above_cap_is_an_error():
    cfg = default_config("evl", schedule=ScheduleSpec(cycle=(0.2,)))
    diags = validate_config(cfg)
    assert [d.severity for d in diags] == ["error"]
    assert (diags[0].code, diags[0].key) == ("bad-schedule", "schedule")
    assert "alpha_star" in diags[0].message


def test_kappa_above_beta_is_a_warning_not_an_error():
    cfg = default_config("dprime", exponents=ExponentSpec(beta=0.5, kappa=0.85))
    diags = validate_config(cfg)
    assert all(d.severity == "warning" for d in diags)
    assert "budget-block-gap-ordering" in {d.code for d in diags}  # 0.85*1.05 > 0.5


def test_dyadic_zeta_warns():
    cfg = default_config("evl", observable=ObservableSpec(zeta=0.75))
    diags = validate_config(cfg)
    assert [d.code for d in diags] == ["zeta-dyadic"]
    assert diags[0].severity == "warning"
    # decay reads no zeta, so its zeta is only unread
    cfg = default_config("decay", observable=ObservableSpec(zeta=0.75))
    assert [(d.severity, d.code, d.key) for d in validate_config(cfg)] == [
        ("warning", "unused-key", "observable.zeta")]


def test_budget_warnings_at_large_sup_alpha():
    cfg = default_config(
        "dprime", schedule=ScheduleSpec(cycle=(1.0 / 7.0,)))
    codes = {d.code for d in validate_config(cfg)}
    assert "budget-mixing-gap-budget" in codes
    assert "budget-pair-sum-budget" in codes


HARD_ERRORS = [
    (dict(kind="nope"), "bad-kind"),
    (dict(tau=-0.5), "bad-tau"),
    (dict(n=0), "bad-n"),
    (dict(n_samples=0), "bad-samples"),
    (dict(kind="decay", mesh=MeshSpec(cells=1)), "bad-mesh"),
    (dict(kind="dprime", exponents=ExponentSpec(beta=1.0)), "bad-exponents"),
    (dict(mesh=MeshSpec(cells=1)), "bad-mesh"),
    (dict(observable=ObservableSpec(zeta=0.0)), "bad-zeta"),
    (dict(observable=ObservableSpec(zeta=1.0)), "bad-zeta"),
    (dict(schedule=ScheduleSpec(mode="iid", lo=0.1, hi=0.05)), "bad-schedule"),
    (dict(kind="orbit", x0=1.5), "bad-x0"),
    (dict(schedule=ScheduleSpec(mode="warp")), "bad-schedule"),
    (dict(schedule=ScheduleSpec(mode="periodic", cycle=())), "bad-schedule"),
    (dict(schedule=ScheduleSpec(cycle=(-0.1,))), "bad-schedule"),
    (dict(n_ladder=(250, 500, 250)), "bad-n"),
    (dict(kind="decay", n_ladder=(64, 64, 128)), "bad-n"),
    (dict(kind="decay", n_ladder=(1, 64, 128)), "bad-n"),
    (dict(kind="orbit", x0=-0.1), "bad-x0"),
    (dict(mesh=MeshSpec(ratio=1.5)), "bad-mesh"),
    (dict(schedule=ScheduleSpec(alpha_star=2.0)), "bad-schedule"),
    (dict(tau=5000.0), "bad-tau"),
    (dict(n_ladder=(1, 1000), tau=2.0), "bad-tau"),
    (dict(kind="calibrate", n=-250), "bad-n"),
    (dict(kind="d0", n=3), "bad-n"),
    (dict(kind="orbit", n=-50), "bad-n"),
    (dict(kind="orbit", n=0), "bad-n"),
    # the builder catches each: an unknown mode (`explicit` is none), iid
    # lo == hi and a negative iid lo
    (dict(schedule=ScheduleSpec(mode="explicit")), "bad-schedule"),
    (dict(schedule=ScheduleSpec(mode="iid", lo=0.1, hi=0.1)), "bad-schedule"),
    (dict(schedule=ScheduleSpec(mode="iid", lo=-0.1)), "bad-schedule"),
    # Mesh itself refuses fewer than 2 cells
    *[(dict(mesh=MeshSpec(cells=cells)), "bad-mesh") for cells in (0, -1, -5)],
    (dict(kind="recurrence", observable=ObservableSpec(zeta=0.0)), "bad-zeta"),
    # the gap needs an event step and a later window, so two steps at least
    (dict(kind="d0", n=1), "bad-n"),
    (dict(kind="d0", n=-1), "bad-n"),
    # a recurrence run's own spec faults are errors, reported beside the others:
    # an infeasible beta, and local union horizons above the ceiling (about
    # 9.2e18 steps at gamma = 60; at gamma = 300 the scale 32^300 overflows)
    (dict(kind="recurrence", recurrence=RecurrenceSpec(beta=2.0)), "bad-recurrence"),
    (dict(kind="recurrence", recurrence=RecurrenceSpec(gamma=60.0)), "bad-recurrence"),
    (dict(kind="recurrence", recurrence=RecurrenceSpec(gamma=300.0)), "bad-recurrence"),
    # the decay slope fit needs two rungs, and below n = 5 both d0
    # separations clamp to one gap
    (dict(kind="decay", n_ladder=(64,)), "bad-n"),
    (dict(kind="d0", n=4), "bad-n"),
    # the estimators read the rungs in order, so a ladder must ascend
    (dict(n_ladder=(2000, 250)), "bad-n"),
    # a constant schedule is a one-exponent cycle
    (dict(schedule=ScheduleSpec(mode="constant")), "bad-schedule"),
]


def _row_id(overrides, code) -> str:
    """code:key=value/... over the keys a row sets, a spec's keys as
    section.key; a tuple prints as 1,2,3"""
    def text(value):
        return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)

    parts = []
    for key, value in overrides.items():
        if hasattr(value, "__dataclass_fields__"):
            parts += [f"{key}.{f.name}={text(getattr(value, f.name))}" for f in fields(value)
                      if getattr(value, f.name) != f.default]
        else:
            parts.append(f"{key}={text(value)}")
    return f"{code}:" + "/".join(parts)


# the first FIRST_NAMED_ROW places keep the positional ids pytest gave them
# before rows were named ("overrides<i>-<code>", i a row's place among the
# test's rows); RETIRED holds the places and codes of rows deleted since (the
# five [mesh] kind rows: hexagonal, and the uniform mesh of 1, 0, -1 and -5
# cells), so no row after them is renamed. Every later row is named by its
# code and the keys it sets, so a row added at the end renames no other test
FIRST_NAMED_ROW = 40
RETIRED = {7: "bad-mesh", 29: "bad-mesh", 34: "bad-mesh", 35: "bad-mesh", 36: "bad-mesh"}


def _hard_error_params(skip=None) -> dict:
    """parametrize's argvalues and ids: the HARD_ERRORS rows but those of code skip"""
    rows = iter(HARD_ERRORS)
    argvalues, ids, i = [], [], 0
    for place in range(len(HARD_ERRORS) + len(RETIRED)):
        row = None if place in RETIRED else next(rows)
        code = RETIRED[place] if row is None else row[1]
        if code == skip:
            continue
        if row is not None:
            argvalues.append(row)
            ids.append(f"overrides{i}-{code}" if place < FIRST_NAMED_ROW else _row_id(*row))
        i += 1
    return dict(argvalues=argvalues, ids=ids)


def _config_with(overrides, **more) -> ExperimentConfig:
    settings = {**overrides, **more}
    return replace(ExperimentConfig(kind=settings.pop("kind", "evl")), **settings)


def test_hard_error_ids_are_distinct():
    for skip in (None, "bad-tau"):
        ids = _hard_error_params(skip)["ids"]
        assert len(set(ids)) == len(ids)
    assert len(_hard_error_params()["ids"]) == len(HARD_ERRORS)


@pytest.mark.parametrize("overrides,code", **_hard_error_params())
def test_hard_errors(overrides, code):
    cfg = _config_with(overrides)
    diags = validate_config(cfg)
    assert any(d.severity == "error" and d.code == code for d in diags), diags
    if cfg.mesh.cells < 2:  # Mesh's own rule, whichever builder made the mesh
        assert ("bad-mesh", "mesh needs at least 2 cells") in {
            (d.code, d.message) for d in diags}, diags


# second faults, each in one key: a row gets the first whose key its kind
# reads and the row leaves alone
SECOND_FAULTS = [
    ("tau", dict(tau=-0.5), "bad-tau"),
    ("x0", dict(x0=2.0), "bad-x0"),
    ("mesh", dict(mesh=MeshSpec(cells=1)), "bad-mesh"),
    ("observable.zeta", dict(observable=ObservableSpec(zeta=0.0)), "bad-zeta"),
    ("schedule", dict(schedule=ScheduleSpec(mode="warp")), "bad-schedule"),
]


@pytest.mark.parametrize("overrides,code", **_hard_error_params(skip="bad-tau"))
def test_hard_errors_are_reported_beside_another_error(overrides, code):
    # a second fault elsewhere in the config must not hide the first, whether
    # validate_config checks it itself or a spec builder does
    config = _config_with(overrides)
    fault, second = next((fault, second) for key, fault, second in SECOND_FAULTS
                         if kind_reads(config, key) and not fault.keys() & overrides.keys())
    codes = {d.code for d in validate_config(_config_with(overrides, **fault))
             if d.severity == "error"}
    assert {code, second} <= codes, codes


# keys the kind does not read, each row named by the fault it plants there
# (unused-key where it plants none): no fault is reported, only one
# unused-key warning for each key set away from its default
UNREAD_FAULTS = [
    (dict(workers=0), "unused-key"),
    (dict(workers=2), "unused-key"),
    (dict(kind="recurrence", n_ladder=(100,)), "unused-key"),
    (dict(kind="decay", n=0), "unused-key"),
    (dict(kind="orbit", tau=-1.0), "bad-tau"),
    (dict(kind="orbit", mesh=MeshSpec(cells=1)), "bad-mesh"),
    (dict(x0=2.0), "bad-x0"),
    (dict(exponents=ExponentSpec(beta=1.0)), "bad-exponents"),
    # a periodic schedule reads its cycle alone
    (dict(schedule=ScheduleSpec(lo=0.02, seed=3)), "unused-key"),
    # calibrate, d0 and orbit step to n alone, whatever n_ladder holds
    (dict(kind="calibrate", n_ladder=(1000, 250)), "unused-key"),
    (dict(kind="d0", n_ladder=(250, 500)), "unused-key"),
    (dict(kind="orbit", n_ladder=(100, 50)), "unused-key"),
    (dict(kind="d0", n_ladder=(1,)), "unused-key"),
]


@pytest.mark.parametrize("overrides", [o for o, _ in UNREAD_FAULTS],
                         ids=[_row_id(o, c) for o, c in UNREAD_FAULTS])
def test_unread_key_faults_are_warnings(overrides, tmp_path):
    # the run goes ahead, in the directory of the run without the fault,
    # with the same verdicts and tables
    kind = overrides.get("kind", "evl")
    small = dict(n=50, n_samples=2000, mesh=MeshSpec(cells=64))
    clean = default_config(kind, **small)
    faulty = _config_with(overrides, **{k: v for k, v in small.items() if k not in overrides})
    diags = validate_config(faulty)
    assert {(d.severity, d.code) for d in diags} == {("warning", "unused-key")}, diags
    # each key the row sets away from the clean run gets one unused-key warning
    unused = [d.key for d in diags if d.code == "unused-key"]
    clean_values = _flat(clean)
    assert {k for k, v in _flat(faulty).items() if v != clean_values[k]} <= set(unused), diags
    assert len(unused) == len(set(unused)), diags
    runs = [experiments.run_experiment(replace(cfg, out_dir=str(tmp_path / tag)))
            for tag, cfg in (("clean", clean), ("faulty", faulty))]
    assert runs[0].experiment_id == runs[1].experiment_id
    assert runs[0].passed == runs[1].passed
    clean_tables, faulty_tables = ({path.name: path.read_bytes()
                                    for path in sorted(Path(run.out_dir).glob("*.csv"))}
                                   for run in runs)
    assert clean_tables and clean_tables == faulty_tables


def _reported_where_read(config, diagnostic) -> bool:
    """Whether a diagnostic keeps the one-report rule: an error on a key the
    kind reads, unused-key on a key it does not read, or a budget or
    dyadic-zeta warning for a kind that reads exponents or zeta."""
    if diagnostic.severity == "error":
        return kind_reads(config, diagnostic.key)
    if diagnostic.code == "unused-key":
        return not kind_reads(config, diagnostic.key)
    if diagnostic.code.startswith("budget-"):
        return kind_reads(config, "exponents")
    return diagnostic.code == "zeta-dyadic" and kind_reads(config, "observable.zeta")


def test_every_fault_is_reported_only_where_it_is_read():
    # each row as it stands and under every kind: orbit with tau = -1, say,
    # gets unused-key on tau and no bad-tau; and an error lies in a section
    # the row sets, so a fault planted in one key is not reported in another
    for overrides, _ in HARD_ERRORS + UNREAD_FAULTS:
        for kind in (overrides.get("kind", "evl"), *KINDS):
            config = _config_with(overrides, kind=kind)
            for diagnostic in validate_config(config):
                assert _reported_where_read(config, diagnostic), (kind, overrides, diagnostic)
                if diagnostic.severity == "error":
                    assert diagnostic.key.split(".")[0] in overrides, (kind, overrides, diagnostic)


def test_recurrence_is_checked_at_the_built_schedules_cap():
    # a refused cap is reported once, in [schedule]; [recurrence] is then
    # checked at the lab's cap, so its own faults still show
    cases = [
        (dict(schedule=ScheduleSpec(alpha_star=2.0)),
         [("error", "bad-schedule", "schedule", "alpha_star must lie in (0, 1)")]),
        (dict(schedule=ScheduleSpec(alpha_star=2.0), recurrence=RecurrenceSpec(beta=2.0)),
         [("error", "bad-schedule", "schedule", "alpha_star must lie in (0, 1)"),
          ("error", "bad-recurrence", "recurrence", "beta must lie in (0, 1)")]),
        (dict(schedule=ScheduleSpec(alpha_star=0.5)),
         [("error", "bad-recurrence", "recurrence",
           "local bound needs gamma*(varsigma-beta) > 1")]),
    ]
    for overrides, expected in cases:
        diags = validate_config(default_config("recurrence", **overrides))
        assert [(d.severity, d.code, d.key, d.message) for d in diags] == expected


def test_bad_tau_follows_the_calibrated_horizons():
    # calibrating kinds are refused for tau/n > 1 at any horizon they run,
    # the same configs and reason as the threshold build itself
    for kind in ("evl", "calibrate", "dprime", "d0"):
        diags = validate_config(default_config(kind, tau=5000.0))
        assert [(d.code, d.message) for d in diags if d.severity == "error"] == [
            ("bad-tau", "tau/n exceeds total mass 1 at n = 1000; no calibration exists")]
    # no calibration for decay
    cfg = default_config("decay", tau=5000.0)
    assert not [d for d in validate_config(cfg) if d.severity == "error"]
    assert "bad-tau" not in {d.code for d in validate_config(default_config("evl", tau=1000.0))}


# one fault in the horizons a kind reads, as its row resolves them: one
# diagnostic; a horizon key the kind does not read is only flagged unread
ONE_HORIZON_FAULT = [
    ("evl", dict(n=0), "bad-n", "evl horizons must be at least 1"),
    ("d0", dict(n=0), "bad-n",
     "d0 horizons must be at least 5: below n = 5 both separations clamp to one gap"),
    ("calibrate", dict(n=0), "bad-n", "calibrate horizons must be at least 1"),
    ("decay", dict(n_ladder=(0, 64)), "bad-n",
     "decay horizons must be at least 2: the slope fit reads log log n at two horizons"),
    ("recurrence", dict(n=0), "unused-key",
     "recurrence runs do not read n; its value changes nothing"),
    ("evl", dict(n=0, n_ladder=(250, 500)), "unused-key",
     "evl runs do not read n; its value changes nothing"),
]


@pytest.mark.parametrize("kind,overrides,code,message", ONE_HORIZON_FAULT,
                         ids=[_row_id(dict(kind=k, **o), c) for k, o, c, _ in ONE_HORIZON_FAULT])
def test_one_horizon_fault_gets_one_diagnostic(kind, overrides, code, message):
    assert [(d.code, d.message) for d in validate_config(default_config(kind, **overrides))] == [
        (code, message)]


def test_distinct_ladders_pass_the_n_checks():
    for cfg in (default_config("decay", n_ladder=(2, 4, 8)),
                default_config("evl", n_ladder=(1, 2))):
        assert "bad-n" not in {d.code for d in validate_config(cfg)}


def test_errors_suppress_budget_warnings():
    cfg = default_config(
        "evl", tau=-1.0, schedule=ScheduleSpec(cycle=(1.0 / 7.0,)))
    diags = validate_config(cfg)
    assert all(d.severity == "error" for d in diags)


@pytest.mark.parametrize("gamma,steps", [(3.0, 8), (10.0, 1448), (15.0, 55108), (20.0, None)])
def test_recurrence_horizon_ceiling(gamma, steps):
    # the local union set at j = 32 reads 32^(0.21 gamma) steps; 2^21 at
    # gamma = 20 is above the ceiling of 2^20
    params = RecurrenceParams(gamma=gamma)
    cfg = default_config("recurrence", recurrence=RecurrenceSpec(gamma=gamma))
    diags = [(d.severity, d.code) for d in validate_config(cfg)]
    if steps is None:
        assert diags == [("error", "bad-recurrence")]
        with pytest.raises(ValueError, match="above the ceiling of 1048576"):
            params.horizon(32.0 ** gamma)
    else:
        assert diags == []
        assert params.horizon(32, gamma) == params.horizon(32.0 ** gamma) == steps


def test_infeasible_recurrence_spec_severity_depends_on_kind():
    bad = RecurrenceSpec(beta=0.3, kappa=0.29)  # kappa(1+xi) >= beta
    as_recurrence = validate_config(default_config("recurrence", recurrence=bad))
    assert [d.severity for d in as_recurrence] == ["error"]
    assert as_recurrence[0].code == "bad-recurrence"
    as_evl = validate_config(default_config("evl", recurrence=bad))
    assert [(d.severity, d.code, d.key) for d in as_evl] == [
        ("warning", "unused-key", "recurrence.kappa")]


def mesh_too_large(calls):
    """A graded_mesh that records its call and cannot allocate."""
    def graded_mesh(*args):
        calls.append(args)
        raise MemoryError("Unable to allocate 7.28 TiB for an array")
    return graded_mesh


def test_validate_builds_no_section_the_run_does_not_read(monkeypatch):
    calls = []
    monkeypatch.setattr("seqevl.config.graded_mesh", mesh_too_large(calls))
    diagnostics = validate_config(default_config("orbit", mesh=MeshSpec(cells=64)))
    assert [(d.severity, d.code, d.key) for d in diagnostics] == [
        ("warning", "unused-key", "mesh.cells")]
    assert calls == []


def test_validate_reports_a_section_too_large_to_build_as_its_fault(monkeypatch):
    calls = []
    monkeypatch.setattr("seqevl.config.graded_mesh", mesh_too_large(calls))
    diagnostics = validate_config(default_config("evl"))
    assert [(d.severity, d.code, d.key, d.message) for d in diagnostics] == [
        ("error", "bad-mesh", "mesh", "Unable to allocate 7.28 TiB for an array")]
    assert len(calls) == 1


# --------------------------------------------------------------------- CLI

def test_cli_validate_default_config(run_cli):
    # only dprime reads [exponents], so only it reports the exponent budgets
    code, out, err = run_cli("validate", config=default_config("dprime"))
    assert code == 0
    assert "configuration valid" in out
    assert out.count("[LEDGER]") == 4
    assert "[WARNING]" not in out
    assert err == ""
    assert run_cli("validate") == (0, "configuration valid\n", "")


def test_cli_validate_names_each_budget_once(run_cli):
    # a violated budget is printed as its warning alone, a budget that
    # holds as its ledger line
    code, out, _ = run_cli("validate", config=default_config(
        "dprime", schedule=ScheduleSpec(cycle=(0.14,)),
        exponents=ExponentSpec(beta=0.5, kappa=0.45)))
    lines = out.splitlines()
    assert code == 0
    assert sum(line.startswith("[WARNING] budget-") for line in lines) == 3
    assert [line for line in lines if line.startswith("[LEDGER]")] == [
        "[LEDGER] block-gap-ordering: ok (lhs=0.4725, rhs=0.5)"]
    for name in ("mixing-gap-budget", "pair-sum-budget", "recurrence-budget",
                 "block-gap-ordering"):
        assert sum(name in line for line in lines) == 1, (name, out)


def test_a_run_prints_its_warnings_as_validate_does(run_cli, tmp_path):
    cfg = default_config("orbit", tau=2.0)
    _, validated, _ = run_cli("validate", config=cfg)
    code, ran, _ = run_cli("orbit", "--out", str(tmp_path), config=cfg)
    warning, = [line for line in validated.splitlines() if line.startswith("[WARNING]")]
    assert warning.startswith("[WARNING] unused-key: ")
    assert code == 0 and warning in ran.splitlines()


def test_cli_validate_rejects_bad_exponent(run_cli):
    code, out, _ = run_cli("validate",
                           config=default_config("evl", schedule=ScheduleSpec(cycle=(0.2,))))
    assert code == 1
    assert "[ERROR] bad-schedule: exponent 0.2 outside (0, alpha_star=" in out


def test_cli_missing_config_is_an_error(run_cli, tmp_path):
    code, _, err = run_cli("evl", "--config", str(tmp_path / "missing.toml"))
    assert code == 1
    assert "error:" in err


def test_cli_malformed_toml_is_an_error(run_cli, tmp_path):
    path = tmp_path / "broken.toml"
    path.write_text("kind =\n")
    code, _, err = run_cli("validate", "--config", str(path))
    assert code == 1
    assert "line 1" in err


def test_cli_mistyped_value_is_an_error(run_cli, tmp_path):
    # a value of the wrong type, and a key that no section has
    path = tmp_path / "typo.toml"
    for command, text, message in (
            ("validate", 'tau = "abc"\n', "tau must be a number, got 'abc'"),
            ("evl", '[mesh]\nkind = "uniform"\n', "unknown key 'kind' in [mesh]")):
        path.write_text(text)
        code, out, err = run_cli(command, "--config", str(path))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]


def test_cli_non_finite_value_is_an_error(run_cli, tmp_path):
    path = tmp_path / "huge.toml"
    path.write_text("[observable]\nzeta = 1e999\n")
    code, out, err = run_cli("validate", "--config", str(path))
    assert code == 1
    assert out == ""
    (line,) = [l for l in err.splitlines() if l.startswith("error:")]
    assert "[observable] zeta" in line


def test_cli_run_that_cannot_allocate_is_an_error(run_cli, tmp_path, monkeypatch):
    def sequential_orbit(*args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(experiments, "sequential_orbit", sequential_orbit)
    code, out, err = run_cli("orbit", "--out", str(tmp_path))
    assert code == 1
    assert err.splitlines() == ["error: Unable to allocate 7.28 TiB for an array"]


def test_cli_orbit_writes_artifacts(run_cli, tmp_path):
    cfg = default_config("orbit", n=12, seed=3, out_dir=str(tmp_path / "runs"),
                         mesh=MeshSpec(cells=64))
    code, out, _ = run_cli("orbit", config=cfg)
    assert code == 0
    assert "[PASS] orbit-in-domain" in out
    (run_dir,) = list((tmp_path / "runs").glob("orbit-*"))
    assert f"artifacts: {run_dir}" in out
    assert (run_dir / "orbit.csv").exists()
    assert (run_dir / "config.toml").exists()
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["kind"] == "orbit"
    # 12 steps plus the starting point
    lines = (run_dir / "orbit.csv").read_bytes().split(b"\r\n")
    assert len([l for l in lines if l]) == 14


def test_cli_mesh_override_sets_cells_and_changes_the_hash(run_cli, tmp_path):
    cfg, runs = default_config("calibrate", n=25, n_samples=2000), str(tmp_path / "runs")
    plain = run_cli("calibrate", "--out", runs, config=cfg)
    meshed = run_cli("calibrate", "--out", runs, config=replace(cfg, mesh=MeshSpec(cells=64)))
    assert plain.code == meshed.code == 0
    plain, meshed = plain.run_dir, meshed.run_dir
    assert meshed != plain and meshed.parent == plain.parent
    assert load_config(meshed / "config.toml").mesh.cells == 64
    assert load_config(plain / "config.toml").mesh.cells == MeshSpec().cells


def test_cli_flags_of_unread_keys_keep_the_id(run_cli, tmp_path):
    # orbit reads no mesh, and --out only says where the run is written
    names = set()
    for out, cfg in ((tmp_path / "a", None),
                     (tmp_path / "a", default_config("orbit", mesh=MeshSpec(cells=64))),
                     (tmp_path / "b", None)):
        ran = run_cli("orbit", "--out", str(out), config=cfg)
        assert ran.code == 0
        names.add(ran.run_dir.name)
    assert names == {experiments.experiment_id(default_config("orbit"))}


def test_experiment_id_hashes_only_the_read_keys():
    orbit = experiments.experiment_id(default_config("orbit"))
    for overrides in (dict(n_samples=5, tau=3.0), dict(mesh=MeshSpec(cells=64)),
                      dict(out_dir="elsewhere"), dict(workers=2), dict(n_ladder=(500,))):
        assert experiments.experiment_id(default_config("orbit", **overrides)) == orbit
    evl = experiments.experiment_id(default_config("evl"))
    assert experiments.experiment_id(default_config("evl", n_samples=5)) != evl
    # a set n_ladder leaves n unread
    ladder = experiments.experiment_id(default_config("evl", n_ladder=(250, 500)))
    assert experiments.experiment_id(default_config("evl", n=777, n_ladder=(250, 500))) == ladder


def test_cli_quantitative_failure_exits_two(run_cli, tmp_path):
    # tau = 2 at n = 2 forces per-step window mass 1, so survival is 0
    # while the limit target is exp(-2): an honest quantitative failure
    cfg = default_config("evl", tau=2.0, n=2, n_samples=20_000,
                         out_dir=str(tmp_path / "runs"), mesh=MeshSpec(cells=512))
    code, out, _ = run_cli("evl", config=cfg)
    assert code == 2
    assert "[FAIL] evl-n2" in out


def test_cli_recurrence_smoke(run_cli, tmp_path):
    cfg = default_config("recurrence", out_dir=str(tmp_path / "runs"),
                         mesh=MeshSpec(cells=512))
    code, out, _ = run_cli("recurrence", config=cfg)
    assert code == 0
    (run_dir,) = list((tmp_path / "runs").glob("recurrence-*"))
    for table in ("return_sets", "union_sets", "local"):
        assert (run_dir / f"{table}.csv").exists()
    # the local bound's onset index is unknown, so it is reported, not checked
    for j in (8, 16, 32):
        assert f"[INFO] local-bound-j{j}: " in out


def test_cli_decay_smoke(run_cli, tmp_path):
    cfg = default_config("decay", n_ladder=(4, 8, 16),
                         out_dir=str(tmp_path / "runs"), mesh=MeshSpec(cells=512))
    code, out, _ = run_cli("decay", config=cfg)
    assert code == 0
    assert "[PASS] decay-monotone" in out
    assert "[PASS] decay-slope" in out


def test_cli_outputs_reproducible_across_reruns(run_cli, tmp_path):
    cfg = default_config("calibrate", tau=1.0, n=25, n_samples=49_259,
                         out_dir=str(tmp_path / "runs"), mesh=MeshSpec(cells=512))

    ran = run_cli("calibrate", config=cfg)
    assert ran.code == 0
    run_dir = ran.run_dir
    first = {f.name: f.read_bytes() for f in run_dir.glob("*.csv")}
    assert set(first) == {"calibration.csv", "thresholds.csv"}

    # runs keep no state between them: no cache, and a rerun agrees byte for byte
    assert not (tmp_path / "runs" / "cache").exists()
    rerun = run_cli("calibrate", config=cfg)
    assert rerun.code == 0 and rerun.run_dir == run_dir
    for name, blob in first.items():
        assert (rerun.run_dir / name).read_bytes() == blob

    # a different seed must actually change the Monte Carlo table
    other = run_cli("calibrate", config=replace(cfg, seed=99))
    assert other.code == 0
    assert (other.run_dir / "calibration.csv").read_bytes() != first["calibration.csv"]
    # thresholds are operator-side and deterministic, so those agree
    assert (other.run_dir / "thresholds.csv").read_bytes() == first["thresholds.csv"]

    # the written config.toml holds every key the run reads, and of the
    # schedule only the fields its mode reads, so it reruns into the same
    # directory and bytes, under either mode
    written = run_dir / "config.toml"
    assert "\nlo = " not in written.read_text()
    ran = run_cli("calibrate", "--config", str(written), "--out", str(tmp_path / "runs"))
    assert ran.code == 0 and ran.run_dir == run_dir
    for name, blob in first.items():
        assert (run_dir / name).read_bytes() == blob
    ran = run_cli("calibrate",
                  config=replace(cfg, n_samples=2000, schedule=ScheduleSpec(mode="iid")))
    assert ran.code == 0
    iid_dir = ran.run_dir
    iid_tables = {f.name: f.read_bytes() for f in iid_dir.glob("*.csv")}
    assert "\ncycle = " not in (iid_dir / "config.toml").read_text()
    ran = run_cli("calibrate", "--config", str(iid_dir / "config.toml"),
                  "--out", str(tmp_path / "runs"))
    assert ran.code == 0 and ran.run_dir == iid_dir
    assert {f.name: f.read_bytes() for f in iid_dir.glob("*.csv")} == iid_tables


@pytest.mark.parametrize("argv", [["evl", "--workers", "2"], ["evl", "--bogus"]])
def test_cli_usage_error_exits_one(argv, run_cli):
    # 2 is a failed check, so a script passing a retired flag must not read as one
    code, out, err = run_cli(*argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage: seqevl ")
    assert err.endswith(f"seqevl: error: unrecognized arguments: {' '.join(argv[1:])}\n")


def test_cli_help_exits_zero(run_cli):
    code, out, err = run_cli("evl", "--help")
    assert code == 0
    assert out.startswith("usage: seqevl evl")
    # a run's values live in its TOML; the flags say only where it is read and written
    assert set(re.findall(r"(?<![\w-])--[\w-]+", out)) == {"--help", "--config", "--out"}
    assert err == ""


def test_cli_dprime_plateau_trend_is_info(run_cli, tmp_path):
    # k_n = round(n ** 0.1) is 2 at both rungs, and inside a k_n plateau the
    # pair sum may rise on a correct program: reported, never a failure
    cfg = default_config("dprime", n_ladder=(250, 500), n_samples=20_000,
                         out_dir=str(tmp_path / "runs"), mesh=MeshSpec(cells=512))
    ran = run_cli("dprime", config=cfg)
    assert ran.code == 0
    (line,) = [l for l in ran.out.splitlines() if "dprime-trend-250-500" in l]
    assert line.startswith("[INFO] dprime-trend-250-500: ")
    summary = json.loads((ran.run_dir / "summary.json").read_text())
    (check,) = summary["checks"]
    assert check["info"] is True and check["passed"] is True
