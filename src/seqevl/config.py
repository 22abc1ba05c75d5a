"""Declarative experiment configuration: TOML parsing, typed specs,
defaults that reproduce the acceptance experiments, and structured
validation diagnostics.

Config files are standard TOML, read by the standard library's `tomllib`.
`_build` is the schema gate: unknown keys, values of the wrong type and
non-finite numbers raise ConfigError naming the key.
"""

from __future__ import annotations

import math
import tomllib
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .maps import ALPHA_STAR, ParameterSchedule, _named_exponents
from .mesh import (DEFAULT_CELLS, DEFAULT_MIN_WIDTH, DEFAULT_RATIO, Mesh,
                   graded_mesh, uniform_mesh)
from .montecarlo import DEFAULT_BETA, DEFAULT_KAPPA
from .recurrence import RecurrenceParams
from .thresholds import Observable

# the keys each kind's runner reads: top-level keys, whole sections and
# `section.field` entries.  A run's id and its config.toml hold the kind and
# these keys alone, and a fault in a key is an error only for a kind that
# reads it; a test records each runner's reads against this table
_CALIBRATED = ("tau", "n", "n_ladder", "n_samples", "seed", "schedule", "observable", "mesh")
READS = {
    "evl": _CALIBRATED,
    "calibrate": _CALIBRATED,
    "dprime": (*_CALIBRATED, "exponents.beta", "exponents.kappa"),
    "d0": _CALIBRATED,
    "decay": ("n_ladder", "schedule", "mesh"),
    "recurrence": ("schedule", "observable.zeta", "recurrence"),
    "orbit": ("n", "n_ladder", "x0", "schedule"),
}

# keys every run reads outside its runner, so no id hashes them and none is
# flagged unread: where the run is written, and the exponents only the
# advisory ledger reads
_OUTSIDE_RUNNER = ("out_dir", "exponents.xi", "exponents.eta")

DEFAULT_SEED = 1729

# the fixed ladders of the decay and recurrence runs; a decay config's
# n_ladder replaces DECAY_LADDER
DECAY_LADDER = (64, 128, 256, 512, 1024, 2048, 4096)
EN_EPS_LADDER = tuple(2.0 ** -k for k in range(4, 15))
EN_STEP_COUNTS = (1, 5, 20)
EJ_LADDER = tuple(2 ** k for k in range(5, 13))
LOCAL_JS = (8, 16, 32)


class ConfigError(ValueError):
    """A config file or config value is outside the accepted schema."""


# ---------------------------------------------------------------------------
# TOML parsing


def parse_toml(text: str) -> dict:
    """The TOML document as nested dicts; a syntax error is a ConfigError
    whose message gives the line and column (or "end of document")."""
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# typed specs


@dataclass(frozen=True)
class ScheduleSpec:
    mode: str = "constant"
    alpha: float = 0.1
    cycle: tuple[float, ...] = ()
    lo: float = 0.01
    hi: float = 0.14
    seed: int = 7
    alpha_star: float = ALPHA_STAR

    def build(self) -> ParameterSchedule:
        if self.mode == "constant":
            return ParameterSchedule.constant(self.alpha, self.alpha_star)
        if self.mode == "periodic":
            return ParameterSchedule.periodic(self.cycle, self.alpha_star)
        if self.mode == "explicit":
            return ParameterSchedule.explicit(self.cycle, self.alpha_star)
        if self.mode == "iid":
            return ParameterSchedule.iid_uniform(self.lo, self.hi, self.seed,
                                                 self.alpha_star)
        raise ConfigError(f"unknown schedule mode {self.mode!r}")


@dataclass(frozen=True)
class ObservableSpec:
    zeta: float = Observable.zeta

    def build(self) -> Observable:
        return Observable(zeta=self.zeta)


@dataclass(frozen=True)
class MeshSpec:
    kind: str = "graded"
    cells: int = DEFAULT_CELLS
    ratio: float = DEFAULT_RATIO
    min_width: float = DEFAULT_MIN_WIDTH

    def build(self) -> Mesh:
        if self.kind == "graded":
            return graded_mesh(self.cells, self.ratio, self.min_width)
        if self.kind == "uniform":
            return uniform_mesh(self.cells)
        raise ConfigError(f"unknown mesh kind {self.kind!r}")


@dataclass(frozen=True)
class ExponentSpec:
    """Blocking exponents for the extreme-value estimators."""

    beta: float = DEFAULT_BETA
    kappa: float = DEFAULT_KAPPA
    xi: float = 0.05
    eta: float = 1.8


@dataclass(frozen=True)
class RecurrenceSpec:
    beta: float = RecurrenceParams.beta
    kappa: float = RecurrenceParams.kappa
    xi: float = RecurrenceParams.xi
    gamma: float = RecurrenceParams.gamma

    def build(self, alpha_star: float = ALPHA_STAR) -> RecurrenceParams:
        return RecurrenceParams(alpha_star=alpha_star, beta=self.beta,
                                kappa=self.kappa, xi=self.xi, gamma=self.gamma)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str = "evl"
    tau: float = 1.0
    n: int = 1000
    n_ladder: tuple[int, ...] = ()
    n_samples: int = 100_000
    seed: int = DEFAULT_SEED
    workers: int = 1  # no kind reads it: the Monte Carlo sweep runs on one thread
    out_dir: str = "runs"
    x0: float = 0.3
    schedule: ScheduleSpec = field(default_factory=ScheduleSpec)
    observable: ObservableSpec = field(default_factory=ObservableSpec)
    mesh: MeshSpec = field(default_factory=MeshSpec)
    exponents: ExponentSpec = field(default_factory=ExponentSpec)
    recurrence: RecurrenceSpec = field(default_factory=RecurrenceSpec)

    def ns(self) -> tuple:
        return tuple(self.n_ladder) if self.n_ladder else (self.n,)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_toml(self, read_only: bool = False) -> str:
        """The config as TOML; read_only keeps the kind and the keys its
        runner reads, the text a run hashes into its id and writes."""
        lines, sections = [], {}
        for key, value in _flat(self).items():
            if read_only and not kind_reads(self.kind, key):
                continue
            section, _, name = key.rpartition(".")
            line = f"{name} = {_format_toml_value(value)}"
            if section:
                sections.setdefault(section, []).append(line)
            else:
                lines.append(line)
        for section, table in sections.items():
            lines += ["", f"[{section}]", *table]
        return "\n".join(lines) + "\n"


def _flat(config: ExperimentConfig) -> dict:
    """The config's values keyed as `key` or `section.field`, in field order."""
    flat = {}
    for name, value in config.to_dict().items():
        if isinstance(value, dict):
            flat.update({f"{name}.{field}": v for field, v in value.items()})
        else:
            flat[name] = value
    return flat


def kind_reads(kind: str, key: str) -> bool:
    """Whether a run of kind reads key (top-level, a section or
    `section.field`): `kind` always, and every key for a kind that READS
    does not name, which validate refuses."""
    row = READS.get(kind)
    return row is None or key == "kind" or key in row or key.split(".")[0] in row


def _format_toml_value(value) -> str:
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format_toml_value(v) for v in value) + "]"
    if isinstance(value, float):
        return repr(value)
    return str(value)


_SECTION_TYPES = {cls.__name__: cls for cls in
                  (ScheduleSpec, ObservableSpec, MeshSpec, ExponentSpec, RecurrenceSpec)}

# field annotation -> (accepted value types, conversion, name in messages)
_SCALARS = {"int": (int, int, "an integer"),
            "float": ((int, float), float, "a number"),
            "str": (str, str, "a string")}


def _scalar(kind: str, value, key: str):
    """value as the field type `kind`; a bool is neither an int nor a number,
    and a number must be finite."""
    types, convert, name = _SCALARS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{key} must be {name}, got {value!r}")
    try:
        value = convert(value)
    except OverflowError:  # an integer literal beyond the float range
        raise ConfigError(f"{key} must be finite, got an integer beyond "
                          "the float range") from None
    if kind == "float" and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return value


def _build(cls, data: dict, section: str = ""):
    """cls(**data), rejecting unknown keys and values of the wrong type.

    Field annotations are strings here (postponed evaluation), so they name
    the type each value must have: a section class, int, float, str, or a
    tuple[int, ...] / tuple[float, ...] array.
    """
    known = {f.name: f.type for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        where = f"[{section}] {key}" if section else key
        kind = known.get(key)
        if kind is None:
            raise ConfigError(f"unknown key {key!r} in [{section}]" if section
                              else f"unknown top-level key {key!r}")
        if kind in _SECTION_TYPES:
            if not isinstance(value, dict):
                raise ConfigError(f"[{key}] must be a table")
            value = _build(_SECTION_TYPES[kind], value, key)
        elif kind.startswith("tuple["):
            item = kind[len("tuple["):kind.index(",")]
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{where} must be an array, got {value!r}")
            value = tuple(_scalar(item, v, f"each entry of {where}") for v in value)
        else:
            value = _scalar(kind, value, where)
        kwargs[key] = value
    return cls(**kwargs)


def config_from_dict(data: dict) -> ExperimentConfig:
    return _build(ExperimentConfig, data)


def load_config(path) -> ExperimentConfig:
    return config_from_dict(parse_toml(Path(path).read_text(encoding="utf-8")))


def default_config(kind: str = "evl", **overrides) -> ExperimentConfig:
    return replace(ExperimentConfig(kind=kind), **overrides)


# ---------------------------------------------------------------------------
# exponent budget checks


@dataclass(frozen=True)
class LedgerCheck:
    name: str
    satisfied: bool
    lhs: float
    rhs: float
    detail: str


def exponent_ledger(alpha_star: float, beta: float = ExponentSpec.beta,
                    kappa: float = ExponentSpec.kappa, xi: float = ExponentSpec.xi,
                    eta: float = ExponentSpec.eta) -> list[LedgerCheck]:
    """Evaluate the asymptotic exponent budgets for the blocking argument.

    All four must hold for the error terms to vanish in the limit; at desk
    scale they are reported, never enforced.  Their joint feasible region
    caps alpha_star at 1/7 as kappa, beta -> 1.
    """
    checks = []
    lhs = (-1.0 / alpha_star + 1.0) * kappa + 2.0 + 2.0 * eta
    checks.append(LedgerCheck(
        "mixing-gap-budget", lhs < 0.0, lhs, 0.0,
        "(1 - 1/alpha*) kappa + 2 + 2 eta < 0 keeps the summed gap bound vanishing"))
    rhs = kappa / (2.0 + 4.0 * beta + kappa)
    checks.append(LedgerCheck(
        "pair-sum-budget", alpha_star < rhs, alpha_star, rhs,
        "alpha* < kappa / (2 + 4 beta + kappa) keeps the block pair sum vanishing"))
    rhs2 = beta + kappa * (1.0 + xi) - 1.0
    checks.append(LedgerCheck(
        "recurrence-budget", alpha_star < rhs2, alpha_star, rhs2,
        "alpha* < beta + kappa (1 + xi) - 1 keeps the short-return term vanishing"))
    lhs3 = kappa * (1.0 + xi)
    checks.append(LedgerCheck(
        "block-gap-ordering", lhs3 < beta, lhs3, beta,
        "kappa (1 + xi) < beta keeps gap lengths below block lengths"))
    return checks


def ledger_report(config: ExperimentConfig) -> list[LedgerCheck]:
    """The exponent budgets at the sup exponent of the config's schedule;
    none when beta, kappa or xi lies outside (0, 1), where they mean nothing."""
    exps = config.exponents
    if not all(0.0 < value < 1.0 for value in (exps.beta, exps.kappa, exps.xi)):
        return []
    return exponent_ledger(max(_named_exponents(config.schedule)), exps.beta,
                           exps.kappa, exps.xi, exps.eta)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" or "warning"
    code: str
    message: str
    key: str  # the key it concerns: top-level, a section or `section.field`


def _exponents_read(config: ExperimentConfig, union_horizons: tuple) -> int:
    """How many map exponents a run of the config reads from its schedule:
    n - 1 for a calibrated horizon n, n for an orbit of n steps, the longest
    rung for decay, and the longest step count or union horizon for recurrence."""
    if config.kind == "decay":
        return max(config.n_ladder or DECAY_LADDER)
    if config.kind == "recurrence":
        return max(*EN_STEP_COUNTS, *union_horizons)
    return max(config.ns()) - (config.kind != "orbit")


def _is_dyadic(zeta: float, max_level: int = 40) -> bool:
    scaled = zeta * 2.0 ** max_level
    return scaled == math.floor(scaled)


def validate_config(config: ExperimentConfig) -> list[Diagnostic]:
    """Structured diagnostics: the errors, which block a run, or when there
    are none the warnings, which do not.

    Each diagnostic names the key it concerns, and a fault is an error only
    when the kind reads that key (`kind_reads`); in any other key it is a
    warning, and so is each such key set away from its default
    (`unused-key`).  Asymptotic exponent budgets are evaluated at the
    schedule's sup exponent and reported as warnings; no configuration is
    rejected for its budget, matching the advisory role these inequalities
    play at finite n.
    """
    diagnostics: list[Diagnostic] = []

    def fault(key, code, message):
        severity = "error" if kind_reads(config.kind, key) else "warning"
        diagnostics.append(Diagnostic(severity, code, message, key))

    def warning(key, code, message):
        diagnostics.append(Diagnostic("warning", code, message, key))

    if config.kind not in READS:
        fault("kind", "bad-kind", f"unknown experiment kind {config.kind!r}")
    if config.tau < 0.0:
        fault("tau", "bad-tau", "tau must be nonnegative")
    horizon = "n_ladder" if config.n_ladder else "n"
    if any(n < 1 for n in config.ns()):
        fault(horizon, "bad-n", "time horizons must be at least 1")
    if len(set(config.n_ladder)) < len(config.n_ladder):
        fault("n_ladder", "bad-n", "n_ladder entries must be distinct")
    if config.kind == "decay" and any(n < 2 for n in config.n_ladder):
        fault("n_ladder", "bad-n", "decay ladder entries must be at least 2 for the slope fit")
    if config.kind in ("calibrate", "d0", "orbit") and len(config.n_ladder) > 1:
        fault("n_ladder", "bad-n",
              f"{config.kind} runs one horizon; n_ladder may hold one entry at most")
    if config.kind == "d0" and config.ns()[-1] == 1:
        fault(horizon, "bad-n", "d0 needs n >= 2: an event step and a later window")
    # build_threshold_schedule refuses the same tau / n
    n = min(config.ns())
    if n >= 1 and config.tau / n > 1.0 + 1e-12:
        fault("tau", "bad-tau", f"tau/n exceeds total mass 1 at n = {n}; no calibration exists")
    if config.n_samples < 1:
        fault("n_samples", "bad-samples", "sample count must be positive")
    if not 0.0 <= config.x0 <= 1.0:
        fault("x0", "bad-x0", "orbit start must lie in [0, 1]")

    sched = config.schedule
    try:
        alphas = _named_exponents(sched)
    except ValueError as exc:
        fault("schedule", "bad-schedule", str(exc))
    else:
        if alphas and min(alphas) <= 0.0:
            fault("schedule", "bad-alpha", "map exponents must be positive")
        elif alphas and max(alphas) > sched.alpha_star:
            fault("schedule", "alpha-above-star",
                  f"schedule exponent {max(alphas)} exceeds alpha_star={sched.alpha_star}")

    exps = config.exponents
    for name in ("beta", "kappa", "xi"):
        if not 0.0 < getattr(exps, name) < 1.0:
            fault(f"exponents.{name}", "bad-exponents", f"{name} must lie in (0, 1)")
    if 0.0 < exps.beta <= exps.kappa < 1.0:
        warning("exponents.kappa", "kappa-beta-ordering",
                f"kappa={exps.kappa} should stay below beta={exps.beta}")

    # the run builds these specs, and their constructors check the rest
    # (mesh kind, cells and ratio, the observable's zeta, schedule cycle
    # and iid bounds, recurrence exponents and horizons); a spec already
    # flagged above is not built
    raised = {d.code for d in diagnostics}
    for key, code, spec, own in (
            ("schedule", "bad-schedule", sched, {"bad-alpha", "alpha-above-star", "bad-schedule"}),
            ("mesh", "bad-mesh", config.mesh, set()),
            ("observable.zeta", "bad-zeta", config.observable, set())):
        if not own & raised:
            try:
                spec.build()
            except ValueError as exc:
                fault(key, code, str(exc))
    horizons = ()
    try:
        params = config.recurrence.build(sched.alpha_star)
        horizons = (params.horizon(max(EJ_LADDER)), params.horizon(max(LOCAL_JS), params.gamma))
    except ValueError as exc:
        fault("recurrence", "bad-recurrence", str(exc))
    needed = _exponents_read(config, horizons)
    if sched.mode == "explicit" and 0 < len(sched.cycle) < needed:
        fault("schedule", "bad-schedule", f"explicit schedule has {len(sched.cycle)} exponents, "
                                          f"fewer than the {needed} that {config.kind} runs read")

    errors = [d for d in diagnostics if d.severity == "error"]
    if errors:
        return errors

    default = _flat(ExperimentConfig())
    for key, value in _flat(config).items():
        if not (value == default[key] or kind_reads(config.kind, key) or key in _OUTSIDE_RUNNER):
            warning(key, "unused-key", f"{config.kind} runs do not read {key}; "
                                       "its value changes nothing")

    for check in ledger_report(config):
        if not check.satisfied:
            warning("exponents", "budget-" + check.name,
                    f"{check.detail}: lhs={check.lhs:.6g}, rhs={check.rhs:.6g}")

    if _is_dyadic(config.observable.zeta):
        warning("observable.zeta", "zeta-dyadic",
                "zeta is a dyadic rational; reference points off the binary "
                "grid avoid orbit/threshold coincidences")

    return diagnostics
