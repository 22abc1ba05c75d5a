"""Declarative experiment configuration: TOML-subset parsing, typed specs,
defaults that reproduce the acceptance experiments, and structured
validation diagnostics.

The parser covers the subset this package writes and reads: [section]
headers (dotted paths allowed), `key = value` pairs with string, integer,
float, boolean, and flat-array values, and # comments.  It is strict:
anything outside the subset raises ConfigError with a line number.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .maps import ALPHA_STAR, ParameterSchedule
from .mesh import Mesh, graded_mesh, uniform_mesh
from .montecarlo import exponent_ledger
from .recurrence import RecurrenceParams
from .thresholds import DEFAULT_ZETA, OBSERVABLE_FORMS, Observable

EXPERIMENT_KINDS = ("evl", "calibrate", "dprime", "d0", "decay",
                    "recurrence", "orbit")

DEFAULT_SEED = 1729


class ConfigError(ValueError):
    """A config file or config value is outside the accepted schema."""


# ---------------------------------------------------------------------------
# TOML subset parsing

_BARE_KEY = re.compile(r"^[A-Za-z0-9_-]+$")
_INT = re.compile(r"^[+-]?\d+$")
_FLOAT = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?$")


def _parse_scalar(token: str, lineno: int):
    token = token.strip()
    if not token:
        raise ConfigError(f"line {lineno}: empty value")
    if token == "true":
        return True
    if token == "false":
        return False
    if _INT.match(token):
        return int(token)
    if _FLOAT.match(token):
        return float(token)
    raise ConfigError(f"line {lineno}: cannot parse value {token!r}")


def _parse_string(text: str, lineno: int):
    """Parse a basic quoted string starting at text[0] == '\"'.

    Returns (value, rest).  Escapes: \\\" \\\\ \\n \\t only.
    """
    out = []
    i = 1
    while i < len(text):
        ch = text[i]
        if ch == '"':
            return "".join(out), text[i + 1:]
        if ch == "\\":
            if i + 1 >= len(text):
                break
            esc = text[i + 1]
            mapped = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}.get(esc)
            if mapped is None:
                raise ConfigError(f"line {lineno}: unsupported escape \\{esc}")
            out.append(mapped)
            i += 2
            continue
        out.append(ch)
        i += 1
    raise ConfigError(f"line {lineno}: unterminated string")


def _strip_comment(text: str) -> str:
    # only called on segments known to contain no quoted strings
    pos = text.find("#")
    return text if pos < 0 else text[:pos]


def _parse_value(text: str, lineno: int):
    text = text.strip()
    if text.startswith('"'):
        value, rest = _parse_string(text, lineno)
        if _strip_comment(rest).strip():
            raise ConfigError(f"line {lineno}: trailing content after string")
        return value
    if text.startswith("["):
        closing = text.rfind("]")
        if closing < 0 or _strip_comment(text[closing + 1:]).strip():
            raise ConfigError(f"line {lineno}: malformed array")
        body = text[1:closing].strip()
        if not body:
            return []
        items = []
        for part in body.split(","):
            part = part.strip()
            if not part:
                continue  # tolerate a trailing comma
            if part.startswith('"'):
                value, rest = _parse_string(part, lineno)
                if rest.strip():
                    raise ConfigError(f"line {lineno}: malformed array element")
                items.append(value)
            else:
                items.append(_parse_scalar(part, lineno))
        return items
    return _parse_scalar(_strip_comment(text), lineno)


def parse_toml_subset(text: str) -> dict:
    root: dict = {}
    table = root
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            end = line.find("]")
            if end < 0 or _strip_comment(line[end + 1:]).strip():
                raise ConfigError(f"line {lineno}: malformed table header")
            table = root
            for part in line[1:end].split("."):
                part = part.strip()
                if not _BARE_KEY.match(part):
                    raise ConfigError(f"line {lineno}: bad table name {part!r}")
                table = table.setdefault(part, {})
                if not isinstance(table, dict):
                    raise ConfigError(f"line {lineno}: {part!r} is not a table")
            continue
        key, sep, rest = line.partition("=")
        key = key.strip()
        if not sep or not _BARE_KEY.match(key):
            raise ConfigError(f"line {lineno}: expected key = value")
        if key in table:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        table[key] = _parse_value(rest, lineno)
    return root


# ---------------------------------------------------------------------------
# typed specs


@dataclass(frozen=True)
class ScheduleSpec:
    mode: str = "constant"
    alpha: float = 0.1
    cycle: tuple = ()
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

    def sup_alpha(self) -> float:
        if self.mode == "constant":
            return self.alpha
        if self.mode in ("periodic", "explicit"):
            return max(self.cycle) if self.cycle else math.nan
        return self.hi


@dataclass(frozen=True)
class ObservableSpec:
    form: str = "log"
    zeta: float = DEFAULT_ZETA
    power: float = 2.0
    cap: float = 1.0

    def build(self) -> Observable:
        return Observable(form=self.form, zeta=self.zeta, power=self.power,
                          cap=self.cap)


@dataclass(frozen=True)
class MeshSpec:
    kind: str = "graded"
    cells: int = 1024
    ratio: float = 0.97
    min_width: float = 1e-8

    def build(self) -> Mesh:
        if self.kind == "graded":
            return graded_mesh(self.cells, self.ratio, self.min_width)
        if self.kind == "uniform":
            return uniform_mesh(self.cells)
        raise ConfigError(f"unknown mesh kind {self.kind!r}")


@dataclass(frozen=True)
class ExponentSpec:
    """Blocking exponents for the extreme-value estimators."""

    beta: float = 0.9
    kappa: float = 0.85
    xi: float = 0.05
    eta: float = 1.8


@dataclass(frozen=True)
class RecurrenceSpec:
    beta: float = 0.3
    kappa: float = 0.2
    xi: float = 0.05
    gamma: float = 3.0

    def build(self, alpha_star: float = ALPHA_STAR) -> RecurrenceParams:
        return RecurrenceParams(alpha_star=alpha_star, beta=self.beta,
                                kappa=self.kappa, xi=self.xi, gamma=self.gamma)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str = "evl"
    tau: float = 1.0
    n: int = 1000
    n_ladder: tuple = ()
    n_samples: int = 100_000
    seed: int = DEFAULT_SEED
    workers: int = 1
    route: str = "exact"
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
        def plain(value):
            if isinstance(value, tuple):
                return list(value)
            return value

        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if hasattr(value, "__dataclass_fields__"):
                out[f.name] = {g.name: plain(getattr(value, g.name))
                               for g in fields(value)}
            else:
                out[f.name] = plain(value)
        return out

    def to_toml(self) -> str:
        lines = []
        nested = []
        for name, value in self.to_dict().items():
            if isinstance(value, dict):
                nested.append((name, value))
            else:
                lines.append(f"{name} = {_format_toml_value(value)}")
        for name, table in nested:
            lines.append("")
            lines.append(f"[{name}]")
            for key, value in table.items():
                lines.append(f"{key} = {_format_toml_value(value)}")
        return "\n".join(lines) + "\n"


def _format_toml_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format_toml_value(v) for v in value) + "]"
    if isinstance(value, float):
        return repr(value)
    return str(value)


_SECTION_TYPES = {
    "schedule": ScheduleSpec,
    "observable": ObservableSpec,
    "mesh": MeshSpec,
    "exponents": ExponentSpec,
    "recurrence": RecurrenceSpec,
}


def _build_spec(cls, data: dict, section: str):
    allowed = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in [{section}]")
        if isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


def config_from_dict(data: dict) -> ExperimentConfig:
    data = dict(data)
    kwargs = {}
    for name, cls in _SECTION_TYPES.items():
        section = data.pop(name, None)
        if section is not None:
            if not isinstance(section, dict):
                raise ConfigError(f"[{name}] must be a table")
            kwargs[name] = _build_spec(cls, section, name)
    top_fields = {f.name for f in fields(ExperimentConfig)} - set(_SECTION_TYPES)
    for key, value in data.items():
        if key not in top_fields:
            raise ConfigError(f"unknown top-level key {key!r}")
        if isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    return ExperimentConfig(**kwargs)


def load_config(path, **overrides) -> ExperimentConfig:
    text = Path(path).read_text(encoding="utf-8")
    cfg = config_from_dict(parse_toml_subset(text))
    overrides = {k: v for k, v in overrides.items() if v is not None}
    return replace(cfg, **overrides) if overrides else cfg


def default_config(kind: str = "evl", **overrides) -> ExperimentConfig:
    return replace(ExperimentConfig(kind=kind), **overrides)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" or "warning"
    code: str
    message: str


def _is_dyadic(zeta: float, max_level: int = 40) -> bool:
    scaled = zeta * 2.0 ** max_level
    return scaled == math.floor(scaled)


def validate_config(config: ExperimentConfig) -> list[Diagnostic]:
    """Structured diagnostics: hard errors block a run, warnings do not.

    Asymptotic exponent budgets are evaluated at the schedule's sup exponent
    and reported as warnings; no configuration is rejected for its budget,
    matching the advisory role these inequalities play at finite n.
    """
    out: list[Diagnostic] = []

    def error(code, message):
        out.append(Diagnostic("error", code, message))

    def warning(code, message):
        out.append(Diagnostic("warning", code, message))

    if config.kind not in EXPERIMENT_KINDS:
        error("bad-kind", f"unknown experiment kind {config.kind!r}")
    if config.tau < 0.0:
        error("bad-tau", "tau must be nonnegative")
    if any(n < 1 for n in config.ns()):
        error("bad-n", "time horizons must be at least 1")
    if config.n_samples < 1:
        error("bad-samples", "sample count must be positive")
    if config.workers < 1:
        error("bad-workers", "worker count must be positive")
    if config.route not in ("exact", "ulam"):
        error("bad-route", f"unknown operator route {config.route!r}")
    elif config.kind in ("decay", "recurrence", "orbit") and config.route == "ulam":
        error("bad-route", f"{config.kind} runs by the exact route only")
    if config.mesh.cells < 2:
        error("bad-mesh", "mesh needs at least 2 cells")
    if config.mesh.kind not in ("graded", "uniform"):
        error("bad-mesh", f"unknown mesh kind {config.mesh.kind!r}")
    if config.observable.form not in OBSERVABLE_FORMS:
        error("bad-observable", f"unknown observable form {config.observable.form!r}")
    if not 0.0 < config.observable.zeta < 1.0:
        error("bad-zeta", "zeta must lie strictly inside (0, 1)")
    if not 0.0 <= config.x0 <= 1.0:
        error("bad-x0", "orbit start must lie in [0, 1]")

    sched = config.schedule
    sup = sched.sup_alpha()
    if sched.mode not in ("constant", "periodic", "explicit", "iid"):
        error("bad-schedule", f"unknown schedule mode {sched.mode!r}")
    elif sched.mode in ("periodic", "explicit") and not sched.cycle:
        error("bad-schedule", f"{sched.mode} schedule needs a nonempty cycle")
    elif sched.mode == "iid" and not 0.0 < sched.lo < sched.hi:
        error("bad-schedule", "iid schedule needs 0 < lo < hi")
    else:
        lows = (sched.alpha,) if sched.mode == "constant" else (
            (sched.lo,) if sched.mode == "iid" else sched.cycle)
        if min(lows) <= 0.0:
            error("bad-alpha", "map exponents must be positive")
        elif sup > sched.alpha_star:
            error("alpha-above-star",
                  f"schedule exponent {sup} exceeds alpha_star={sched.alpha_star}")

    exps = config.exponents
    if not 0.0 < exps.beta < 1.0 or not 0.0 < exps.kappa < 1.0:
        error("bad-exponents", "beta and kappa must lie in (0, 1)")
    elif exps.kappa >= exps.beta:
        warning("kappa-beta-ordering",
                f"kappa={exps.kappa} should stay below beta={exps.beta}")
    if not 0.0 < exps.xi < 1.0:
        error("bad-exponents", "xi must lie in (0, 1)")

    if any(d.severity == "error" for d in out):
        return out

    for check in exponent_ledger(sup, exps.beta, exps.kappa, exps.xi, exps.eta):
        if not check.satisfied:
            warning("budget-" + check.name,
                    f"{check.detail}: lhs={check.lhs:.6g}, rhs={check.rhs:.6g}")

    if _is_dyadic(config.observable.zeta):
        warning("zeta-dyadic",
                "zeta is a dyadic rational; reference points off the binary "
                "grid avoid orbit/threshold coincidences")

    rec = config.recurrence
    try:
        rec.build(sched.alpha_star)
    except ValueError as exc:
        if config.kind == "recurrence":
            error("bad-recurrence", str(exc))
        else:
            warning("bad-recurrence", str(exc))

    return out
