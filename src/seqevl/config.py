"""Declarative experiment configuration: TOML parsing, typed specs,
defaults that reproduce the acceptance experiments, and structured
validation diagnostics.

Config files are standard TOML, read by the standard library's `tomllib`.
`_build` is the schema gate: unknown keys, values of the wrong type and
non-finite numbers raise ConfigError naming the key.
"""

from __future__ import annotations

import json
import math
import tomllib
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import ClassVar

from .maps import ParameterSchedule
from .montecarlo import DEFAULT_BETA, DEFAULT_KAPPA, DEFAULT_SAMPLES
from .recurrence import RecurrenceParams
from .thresholds import Observable


@dataclass(frozen=True)
class Kind:
    """One experiment kind: its command's help line, the keys its runner
    reads (top-level keys and whole sections), which alone make a run's id
    and decide each fault's severity, its horizons, and the class it builds
    at the schedule's cap."""

    help: str
    reads: tuple[str, ...]
    ladder: tuple[int, ...] = ()  # the horizons when the run reads no horizon key
    min_n: int = 1
    min_rungs: int = 1
    why: str = ""  # the reason for min_n and min_rungs
    at_cap: type | None = None  # built as at_cap(alpha_star=the schedule's cap)

    def horizon_key(self, config: ExperimentConfig) -> str | None:
        """The one horizon key a run reads: `n_ladder` when the row reads it and
        it is set, else `n` when the row reads it, else none (`ladder` stands)."""
        if "n_ladder" in self.reads and config.n_ladder:
            return "n_ladder"
        return "n" if "n" in self.reads else None

    def ns(self, config: ExperimentConfig) -> tuple:
        """The horizons a run of this kind steps to: the one rule that the
        runners and `validate_config` read."""
        key = self.horizon_key(config)
        return (config.n,) if key == "n" else tuple(config.n_ladder) if key else self.ladder


_CALIBRATED = ("tau", "n", "n_samples", "seed", "schedule", "observable")
KINDS = {
    "evl": Kind("estimate the no-exceedance probability against exp(-tau)",
                (*_CALIBRATED, "n_ladder")),
    "calibrate": Kind("build the threshold ladder and cross-check it by simulation", _CALIBRATED),
    "dprime": Kind("within-block exceedance pair sums over a horizon ladder",
                   (*_CALIBRATED, "n_ladder", "exponents")),
    "d0": Kind("mixing gap between an exceedance and a later clear window", _CALIBRATED,
               min_n=5, why="below n = 5 both separations clamp to one gap"),
    "decay": Kind("loss-of-memory distances for equal-mass inputs",
                  ("n_ladder", "schedule"), ladder=tuple(2 ** k for k in range(6, 13)),
                  min_n=2, min_rungs=2, why="the slope fit reads log log n at two horizons"),
    "recurrence": Kind("measures of fast-returning sets and their scaling",
                       ("schedule", "observable"), (1, 5, 20), at_cap=RecurrenceParams),
    "orbit": Kind("print one sequential orbit", ("n", "x0", "schedule")),
}


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
    mode: str = ParameterSchedule.mode
    cycle: tuple[float, ...] = ParameterSchedule.cycle
    lo: float = ParameterSchedule.lo
    hi: float = ParameterSchedule.hi
    seed: int = ParameterSchedule.seed
    alpha_star: float = ParameterSchedule.alpha_star
    # the mode decides which fields a run reads (`read_fields`)
    READS: ClassVar[dict] = {"periodic": ("cycle",), "iid": ("lo", "hi", "seed")}

    def build(self) -> ParameterSchedule:
        return ParameterSchedule(**{name: getattr(self, name) for name in read_fields(self)})


@dataclass(frozen=True)
class ObservableSpec:
    zeta: float = Observable.zeta

    def build(self) -> Observable:
        return Observable(zeta=self.zeta)


@dataclass(frozen=True)
class ExponentSpec:
    """Blocking exponents for the extreme-value estimators."""

    beta: float = DEFAULT_BETA
    kappa: float = DEFAULT_KAPPA


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str = "evl"
    tau: float = 1.0
    n: int = 1000
    n_ladder: tuple[int, ...] = ()
    n_samples: int = DEFAULT_SAMPLES
    seed: int = 1729
    workers: int = 1  # no kind reads it: the Monte Carlo sweep runs on one thread
    out_dir: str = "runs"
    x0: float = 0.3
    schedule: ScheduleSpec = field(default_factory=ScheduleSpec)
    observable: ObservableSpec = field(default_factory=ObservableSpec)
    exponents: ExponentSpec = field(default_factory=ExponentSpec)

    def to_toml(self, read_only: bool = False) -> str:
        """The config as TOML; read_only keeps the kind and the keys its
        runner reads, the text a run hashes into its id and writes."""
        lines, sections = [], {}
        for key, value in _flat(self).items():
            if read_only and not kind_reads(self, key):
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
    for name, value in asdict(config).items():
        if isinstance(value, dict):
            flat.update({f"{name}.{field}": v for field, v in value.items()})
        else:
            flat[name] = value
    return flat


def read_fields(spec) -> tuple[str, ...]:
    """The fields of a section spec that a run reads.  In `[schedule]`, the
    one section with a selector (its READS table, keyed by `mode`), the
    fields READS names for the mode and every field that no mode names, such
    as `mode` itself; in any other section, or under a mode READS does not
    name, which the builder refuses, every field."""
    names = tuple(f.name for f in fields(spec))
    if not hasattr(spec, "READS") or spec.mode not in spec.READS:
        return names
    chosen = spec.READS[spec.mode]
    named = {name for value in spec.READS.values() for name in value}
    return tuple(name for name in names if name in chosen or name not in named)


def kind_reads(config: ExperimentConfig, key: str) -> bool:
    """Whether a run of the config's kind reads key (top-level, a section
    or `section.field`): `kind` always, every key for a kind that KINDS
    does not name, which validate refuses, `n` as its `horizon_key`, and of
    a section its row names, the section and the fields `read_fields` gives."""
    row = KINDS.get(config.kind)
    if row is not None and key == "n":
        return row.horizon_key(config) == "n"
    if row is None or key == "kind" or key in row.reads:
        return True
    section, _, name = key.partition(".")
    return section in row.reads and (not name or name in read_fields(getattr(config, section)))


def _format_toml_value(value) -> str:
    if isinstance(value, str):
        # JSON's string escapes are TOML's basic-string escapes; TOML also
        # forbids a literal DEL
        return json.dumps(value, ensure_ascii=False).replace("\x7f", "\\u007f")
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format_toml_value(v) for v in value) + "]"
    if isinstance(value, float):
        return repr(value)
    return str(value)


_SECTION_TYPES = {cls.__name__: cls for cls in (ScheduleSpec, ObservableSpec, ExponentSpec)}

# field annotation -> (accepted value types, conversion, name in messages)
_SCALARS = {"int": (int, int, "an integer"),
            "float": ((int, float), float, "a number"),
            "str": (str, str, "a string")}


def _scalar(kind: str, value, key: str):
    """value as the field type `kind`; a bool is neither an int nor a number,
    a number must be finite and an integer must fit in 64 bits, as in TOML."""
    types, convert, name = _SCALARS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{key} must be {name}, got {value!r}")
    if kind == "int" and not -2 ** 63 <= value < 2 ** 63:
        raise ConfigError(f"{key} must be a 64-bit integer, got {value!r}")
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
                    kappa: float = ExponentSpec.kappa) -> list[LedgerCheck]:
    """Evaluate the asymptotic exponent budgets for the blocking argument.

    All four must hold for the error terms to vanish in the limit; at desk
    scale they are reported, never enforced.  Their joint feasible region
    caps alpha_star at 1/7 as kappa, beta -> 1.  No estimator reads xi or
    eta, only these budgets, so both are fixed.
    """
    xi, eta = 0.05, 1.8
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


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error", "warning" or "ledger" (an exponent budget that holds)
    code: str
    message: str
    key: str  # the key it concerns: top-level, a section or `section.field`


def _is_dyadic(zeta: float) -> bool:
    return (zeta * 2.0 ** 40).is_integer()


def validate_config(config: ExperimentConfig) -> list[Diagnostic]:
    """Every line a config gets: the errors, which block a run, or when there
    are none the warnings and ledger lines, which do not.

    Each diagnostic names the key it concerns.  A fault is an error, and is
    reported only in a key the kind reads (`kind_reads`); any other key set
    away from its default gets one `unused-key` warning.  For a kind that
    reads `exponents`, the exponent budgets are evaluated once, at the built
    schedule's sup exponent: a violated budget is a `budget-<name>` warning,
    one that holds a `ledger` line.  No configuration is rejected for its
    budget, matching the advisory role these inequalities play at finite n.
    """
    diagnostics: list[Diagnostic] = []

    def fault(key, code, message):
        if kind_reads(config, key):
            diagnostics.append(Diagnostic("error", code, message, key))

    def warning(key, code, message):
        diagnostics.append(Diagnostic("warning", code, message, key))

    row = KINDS.get(config.kind, Kind("", ("n", "n_ladder")))  # an unknown kind has horizons too
    if config.kind not in KINDS:
        fault("kind", "bad-kind", f"unknown experiment kind {config.kind!r}")
    if config.tau < 0.0:
        fault("tau", "bad-tau", "tau must be nonnegative")
    # the horizons are checked as the row resolves them, so a horizon key the
    # kind does not read is only flagged unread
    ns = row.ns(config)
    horizon = row.horizon_key(config)
    why = f": {row.why}" if row.why else ""
    if any(a >= b for a, b in zip(ns, ns[1:])):
        fault("n_ladder", "bad-n", "n_ladder entries must be strictly increasing")
    if len(ns) < row.min_rungs:
        fault("n_ladder", "bad-n", f"{config.kind} needs {row.min_rungs} rungs at least{why}")
    if min(ns) < row.min_n:
        fault(horizon, "bad-n", f"{config.kind} horizons must be at least {row.min_n}{why}")
    # calibrate_delta_ladder refuses the same tau / n
    n = min(ns)
    if n >= 1 and config.tau / n > 1.0 + 1e-12:
        fault("tau", "bad-tau", f"tau/n exceeds total mass 1 at n = {n}; no calibration exists")
    if config.n_samples < 1:
        fault("n_samples", "bad-samples", "sample count must be positive")
    if not 0.0 <= config.x0 <= 1.0:
        fault("x0", "bad-x0", "orbit start must lie in [0, 1]")

    exps = config.exponents
    for name in ("beta", "kappa"):
        if not 0.0 < getattr(exps, name) < 1.0:
            fault(f"exponents.{name}", "bad-exponents", f"{name} must lie in (0, 1)")

    def schedule():
        # the row's at_cap class is built at the built schedule's cap, so a
        # cap it refuses is the schedule's one fault
        built_schedule = config.schedule.build()
        if row.at_cap is not None:
            row.at_cap(alpha_star=built_schedule.alpha_star)
        return built_schedule

    # a run builds only the sections it reads, and their builders check the
    # rest (the schedule's mode, cycle, exponents, cap and iid bounds, the
    # observable's zeta)
    built = {}
    for key, code, build in (("schedule", "bad-schedule", schedule),
                             ("observable.zeta", "bad-zeta", config.observable.build)):
        if kind_reads(config, key):
            try:
                built[key] = build()
            except ValueError as exc:
                fault(key, code, str(exc))

    if diagnostics:
        return diagnostics

    # out_dir says only where the run is written
    default = _flat(ExperimentConfig())
    for key, value in _flat(config).items():
        if not (value == default[key] or kind_reads(config, key) or key == "out_dir"):
            warning(key, "unused-key", f"{config.kind} runs do not read {key}; "
                                       "its value changes nothing")

    if kind_reads(config, "exponents"):
        for check in exponent_ledger(built["schedule"].sup_alpha(), exps.beta, exps.kappa):
            numbers = f"lhs={check.lhs:.6g}, rhs={check.rhs:.6g}"
            if check.satisfied:
                diagnostics.append(Diagnostic("ledger", check.name, f"ok ({numbers})", "exponents"))
            else:
                warning("exponents", "budget-" + check.name, f"{check.detail}: {numbers}")

    if kind_reads(config, "observable.zeta") and _is_dyadic(config.observable.zeta):
        warning("observable.zeta", "zeta-dyadic",
                "zeta is a dyadic rational; reference points off the binary "
                "grid avoid orbit/threshold coincidences")

    return diagnostics
