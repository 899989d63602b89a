"""Layered :class:`RuntimeConfig`: one config spine for the whole stack.

Every knob of the library — dataset choice, kernel ``(h, lambda)``,
solver, clustering, HSS / H-matrix compression, tuning, serving,
distributed execution and observability — resolves through **one**
explicit precedence chain::

    built-in defaults  <  repro.toml  <  REPRO_* env vars  <  CLI flags

and every resolved value remembers *where it came from* (its
``provenance``: ``"default"``, ``"file"``, ``"env"`` or ``"flag"``), so
``repro inspect config`` can print the origin of every knob.  The section
objects are plain frozen dataclasses that validate themselves in
``__post_init__`` — a section built by hand is checked by the same code as
one resolved from a file — and the ``hss`` / ``hmatrix`` / ``clustering``
sections *are* the library's option objects (:mod:`repro.config`):
``config.hss`` is what :class:`repro.krr.HSSSolver` takes,
``config.clustering`` what :func:`repro.clustering.cluster` takes.

Environment variables follow the generic naming scheme
``REPRO_<SECTION>_<FIELD>`` (e.g. ``REPRO_HSS_REL_TOL``,
``REPRO_DATASET_N_TRAIN``); the three pre-existing variables
(``REPRO_SHARDS``, ``REPRO_OBS_DISABLED``, ``REPRO_METRICS_DUMP``) are
kept as aliases of their new homes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..config import ClusteringOptions, HMatrixOptions, HSSOptions
from .toml_io import TomlError, dumps_toml, load_toml

#: provenance tags, in precedence order (later wins)
SOURCE_DEFAULT = "default"
SOURCE_FILE = "file"
SOURCE_ENV = "env"
SOURCE_FLAG = "flag"

#: the canonical config file name discovered in the working directory
CONFIG_FILENAME = "repro.toml"


# ---------------------------------------------------------------------------
# section dataclasses (defaults are the "built-in defaults" layer)
# ---------------------------------------------------------------------------

def _check_choice(key: str, value: str, choices: Tuple[str, ...]) -> None:
    if value not in choices:
        listed = ", ".join(repr(c) for c in choices[:-1])
        raise ValueError(
            f"{key} must be {listed} or {choices[-1]!r}, got {value!r}")


@dataclass(frozen=True)
class DatasetSection:
    """Which dataset to generate and at what size."""

    name: str = "gas"
    n_train: int = 2048
    n_test: int = 512
    seed: int = 0
    normalize: bool = True

    def __post_init__(self) -> None:
        if self.n_train < 2 or self.n_test < 1:
            raise ValueError("dataset.n_train must be >= 2 and n_test >= 1")


@dataclass(frozen=True)
class KernelSection:
    """Kernel family and its hyper-parameters.

    ``h`` / ``lam`` left at their defaults mean "use the dataset's paper
    values" in the CLI (the provenance map distinguishes an explicit 1.0
    from the untouched default).
    """

    name: str = "gaussian"
    h: float = 1.0
    lam: float = 1.0

    def __post_init__(self) -> None:
        if self.h <= 0:
            raise ValueError("kernel.h must be positive")
        if self.lam < 0:
            raise ValueError("kernel.lam must be non-negative")


@dataclass(frozen=True)
class SolverSection:
    """Training solver selection."""

    name: str = "hss"
    use_hmatrix_sampling: bool = True

    def __post_init__(self) -> None:
        _check_choice("solver.name", self.name, ("dense", "hss", "cg"))


@dataclass(frozen=True)
class TuningSection:
    """Hyper-parameter search configuration (``repro tune``)."""

    strategy: str = "random"
    budget: int = 32
    points_per_dim: int = 8
    h_min: float = 0.1
    h_max: float = 10.0
    lam_min: float = 0.01
    lam_max: float = 10.0
    backend: str = "dense"
    lam_sweep: int = 4
    val_fraction: float = 0.25
    cache_size: int = 1
    #: k-fold cross-validation folds; 1 = score the held-out validation
    #: split, K > 1 = K-fold CV on the training set computed as
    #: fold-removal multi-RHS solves against the shared factorization
    cv: int = 1
    #: bandit credit assignment divides success rate by observed move
    #: cost (λ-refit ≪ recompression ≪ cold) when the objective reports it
    cost_aware: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        _check_choice("tuning.strategy", self.strategy,
                      ("grid", "random", "bandit"))
        _check_choice("tuning.backend", self.backend, ("dense", "hss"))
        if not (0.0 < self.val_fraction < 1.0):
            raise ValueError("tuning.val_fraction must be in (0, 1)")
        if self.cv < 1:
            raise ValueError("tuning.cv must be >= 1")


@dataclass(frozen=True)
class ServingSection:
    """Model store location and serving engine/service knobs."""

    store: str = "models"
    model: str = "model"
    batch_size: int = 256
    cache_size: int = 1024
    max_batch: int = 256
    batch_window: float = 0.001


@dataclass(frozen=True)
class ServerSection:
    """HTTP serving daemon knobs (see :mod:`repro.server`).

    ``port = 0`` binds an ephemeral port; the daemon reports the bound
    address in its result JSON (``repro_serve.json``), so scripted
    clients never have to guess.
    """

    host: str = "127.0.0.1"
    port: int = 0
    #: maximum predict requests admitted but not yet answered; beyond it
    #: the daemon sheds load with 429 + Retry-After instead of queueing
    max_queue: int = 64
    #: seconds a graceful shutdown (SIGTERM) waits for in-flight requests
    drain_timeout: float = 10.0
    #: maximum query rows accepted in one POST /v1/predict body
    max_batch: int = 256

    def __post_init__(self) -> None:
        if not (0 <= self.port <= 65535):
            raise ValueError(
                "server.port must be in [0, 65535] (0 = ephemeral)")
        if self.max_queue < 1:
            raise ValueError("server.max_queue must be >= 1")
        if self.drain_timeout < 0:
            raise ValueError("server.drain_timeout must be >= 0")
        if self.max_batch < 1:
            raise ValueError("server.max_batch must be >= 1")
        if not self.host:
            raise ValueError("server.host must be non-empty")


@dataclass(frozen=True)
class StreamSection:
    """Streaming-update drift budget (see :class:`repro.hss.DriftBudget`).

    Governs when a streamed model (``repro update`` / ``POST
    /models/<name>/update``) is recompressed: the Woodbury correction
    stays exact but its per-query cost grows with the correction rank,
    so once the budget is breached a background cold refit folds the
    corrections back into a fresh compression.
    """

    #: correction rank (added + removed rows) that triggers recompression
    max_updates: int = 64
    #: correction rank as a fraction of the base training size
    max_fraction: float = 0.25
    #: sampled relative residual threshold (0 disables the residual check)
    residual_tol: float = 0.0
    #: rows sampled for the residual estimate
    sample_size: int = 64
    #: server-side recompression policy: auto (on breach), force or off
    recompress: str = "auto"

    def __post_init__(self) -> None:
        if self.max_updates < 1:
            raise ValueError("stream.max_updates must be >= 1")
        if not (0.0 < self.max_fraction <= 1.0):
            raise ValueError("stream.max_fraction must be in (0, 1]")
        if self.residual_tol < 0:
            raise ValueError("stream.residual_tol must be >= 0 (0 disables)")
        if self.sample_size < 1:
            raise ValueError("stream.sample_size must be >= 1")
        _check_choice("stream.recompress", self.recompress,
                      ("auto", "force", "off"))


@dataclass(frozen=True)
class DistributedSection:
    """The training path's worker processes and their coupling knobs."""

    shards: Optional[int] = None
    coupling_rel_tol: Optional[float] = None
    coupling_max_rank: Optional[int] = None
    cut_level: Optional[int] = None

    def __post_init__(self) -> None:
        if self.shards is not None and self.shards < 0:
            raise ValueError("distributed.shards must be >= 0 or none")


@dataclass(frozen=True)
class ObsSection:
    """Observability switches (see :mod:`repro.obs`)."""

    enabled: bool = True
    dump_path: str = ""


#: section name -> the dataclass that holds (and validates) its values; the
#: compression and clustering sections are the library's own option objects
_SECTION_TYPES = {
    "dataset": DatasetSection,
    "kernel": KernelSection,
    "solver": SolverSection,
    "clustering": ClusteringOptions,
    "hss": HSSOptions,
    "hmatrix": HMatrixOptions,
    "tuning": TuningSection,
    "serving": ServingSection,
    "server": ServerSection,
    "stream": StreamSection,
    "distributed": DistributedSection,
    "obs": ObsSection,
}


# ---------------------------------------------------------------------------
# knob schema: kinds, env names, parsing / coercion
# ---------------------------------------------------------------------------

_NONE_WORDS = ("", "none", "null", "auto")


def _parse_bool(text: str, key: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"{key}: cannot parse boolean from {text!r}")


def _parse_int(text: str, key: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ValueError(f"{key}: cannot parse integer from {text!r}") from None


def _parse_float(text: str, key: str) -> float:
    try:
        return float(text.strip())
    except ValueError:
        raise ValueError(f"{key}: cannot parse float from {text!r}") from None


def _parse_text(kind: str, text: str, key: str) -> Any:
    """Parse an env-var / CLI-flag string into the knob's value type."""
    if kind.startswith("opt_") and text.strip().lower() in _NONE_WORDS:
        return None
    if kind == "bool":
        return _parse_bool(text, key)
    if kind in ("int", "opt_int"):
        return _parse_int(text, key)
    if kind in ("float", "opt_float"):
        return _parse_float(text, key)
    return str(text)


def _coerce_value(kind: str, value: Any, key: str) -> Any:
    """Coerce an already-typed (file / programmatic) value."""
    if isinstance(value, str):
        return _parse_text(kind, value, key)
    if value is None and kind.startswith("opt_"):
        return None
    if kind == "bool":
        if isinstance(value, bool):
            return value
        raise ValueError(f"{key}: expected a boolean, got {value!r}")
    if kind in ("int", "opt_int"):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{key}: expected an integer, got {value!r}")
        return int(value)
    if kind in ("float", "opt_float"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{key}: expected a number, got {value!r}")
        return float(value)
    raise ValueError(f"{key}: expected a string, got {value!r}")


@dataclass(frozen=True)
class Knob:
    """One configurable value in the schema.

    Parameters
    ----------
    section, name:
        Dotted address ``section.name`` of the knob.
    kind:
        Value type tag: ``"str"``, ``"bool"``, ``"int"``, ``"float"``,
        ``"opt_int"`` or ``"opt_float"`` (the ``opt_`` kinds admit
        ``None``, spelled ``"none"`` in env vars / flags).
    env_aliases:
        Extra environment variables consulted *before* the generic
        ``REPRO_<SECTION>_<NAME>`` name, as ``(var, inverted)`` pairs —
        ``inverted`` flips a boolean value (``REPRO_OBS_DISABLED``).
    """

    section: str
    name: str
    kind: str
    env_aliases: Tuple[Tuple[str, bool], ...] = ()

    @property
    def key(self) -> str:
        """Dotted ``section.name`` address."""
        return f"{self.section}.{self.name}"

    @property
    def env_vars(self) -> Tuple[Tuple[str, bool], ...]:
        """All environment variables consulted, highest priority first."""
        generic = f"REPRO_{self.section.upper()}_{self.name.upper()}"
        return self.env_aliases + ((generic, False),)

    def default(self) -> Any:
        """The built-in default value."""
        return next(f.default for f in fields(_SECTION_TYPES[self.section])
                    if f.name == self.name)


def _build_schema() -> List[Knob]:
    kinds = {
        "dataset.name": "str", "dataset.normalize": "bool",
        "kernel.name": "str",
        "solver.name": "str", "solver.use_hmatrix_sampling": "bool",
        "clustering.method": "str",
        "hss.max_rank": "opt_int",
        "hmatrix.admissibility": "str", "hmatrix.max_rank": "opt_int",
        "tuning.strategy": "str", "tuning.backend": "str",
        "serving.store": "str", "serving.model": "str",
        "distributed.shards": "opt_int",
        "distributed.coupling_rel_tol": "opt_float",
        "distributed.coupling_max_rank": "opt_int",
        "distributed.cut_level": "opt_int",
        "obs.enabled": "bool", "obs.dump_path": "str",
    }
    aliases = {
        "distributed.shards": (("REPRO_SHARDS", False),),
        "obs.enabled": (("REPRO_OBS_DISABLED", True),),
        "obs.dump_path": (("REPRO_METRICS_DUMP", False),),
    }
    schema: List[Knob] = []
    for section, cls in _SECTION_TYPES.items():
        for f in fields(cls):
            key = f"{section}.{f.name}"
            kind = kinds.get(key)
            if kind is None:
                kind = {int: "int", float: "float", bool: "bool",
                        str: "str"}[type(f.default)]
            schema.append(Knob(section, f.name, kind,
                               aliases.get(key, ())))
    return schema


#: the full knob schema, in section order
SCHEMA: List[Knob] = _build_schema()
_KNOBS: Dict[str, Knob] = {k.key: k for k in SCHEMA}


def known_keys() -> List[str]:
    """All dotted knob addresses in schema order.

    Returns
    -------
    list of str
        ``["dataset.name", ..., "obs.dump_path"]``.
    """
    return [k.key for k in SCHEMA]


# ---------------------------------------------------------------------------
# RuntimeConfig
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RuntimeConfig:
    """The resolved, provenance-carrying configuration of one run.

    Instances are produced by :func:`resolve_runtime_config` (or the
    :meth:`resolve` classmethod); the section attributes are frozen
    dataclasses holding plain values — ``hss``, ``hmatrix`` and
    ``clustering`` are :class:`repro.config.HSSOptions`,
    :class:`repro.config.HMatrixOptions` and
    :class:`repro.config.ClusteringOptions` themselves — and
    :attr:`provenance` maps every dotted key to the layer that supplied it.

    Parameters
    ----------
    dataset, kernel, solver, clustering, hss, hmatrix, tuning, serving,
    server, stream, distributed, obs:
        The resolved section objects.
    provenance:
        ``{"section.field": "default"|"file"|"env"|"flag"}`` for every
        knob in :data:`SCHEMA`.
    config_path:
        Path of the ``repro.toml`` that supplied the file layer, or
        ``None`` when no file was read.
    """

    dataset: DatasetSection = field(default_factory=DatasetSection)
    kernel: KernelSection = field(default_factory=KernelSection)
    solver: SolverSection = field(default_factory=SolverSection)
    clustering: ClusteringOptions = field(default_factory=ClusteringOptions)
    hss: HSSOptions = field(default_factory=HSSOptions)
    hmatrix: HMatrixOptions = field(default_factory=HMatrixOptions)
    tuning: TuningSection = field(default_factory=TuningSection)
    serving: ServingSection = field(default_factory=ServingSection)
    server: ServerSection = field(default_factory=ServerSection)
    stream: StreamSection = field(default_factory=StreamSection)
    distributed: DistributedSection = field(default_factory=DistributedSection)
    obs: ObsSection = field(default_factory=ObsSection)
    provenance: Mapping[str, str] = field(default_factory=dict, compare=False)
    config_path: Optional[str] = field(default=None, compare=False)

    # ------------------------------------------------------------- accessors
    def get(self, key: str) -> Any:
        """Return the value at dotted address ``key``.

        Parameters
        ----------
        key:
            ``"section.field"``, e.g. ``"hss.rel_tol"``.

        Returns
        -------
        object
            The resolved value.
        """
        if key not in _KNOBS:
            raise KeyError(f"unknown config key {key!r}")
        section, name = key.split(".", 1)
        return getattr(getattr(self, section), name)

    def source(self, key: str) -> str:
        """Return the provenance layer that supplied ``key``.

        Parameters
        ----------
        key:
            ``"section.field"`` address.

        Returns
        -------
        str
            One of ``"default"``, ``"file"``, ``"env"``, ``"flag"``.
        """
        if key not in _KNOBS:
            raise KeyError(f"unknown config key {key!r}")
        return self.provenance.get(key, SOURCE_DEFAULT)

    def describe(self) -> List[Dict[str, Any]]:
        """Flat provenance table of every knob.

        Returns
        -------
        list of dict
            One ``{"key", "value", "source"}`` row per knob, in schema
            order — the payload behind ``repro inspect config``.
        """
        return [{"key": k.key, "value": self.get(k.key),
                 "source": self.source(k.key)} for k in SCHEMA]

    # ------------------------------------------------------------- exporters
    def section_dict(self, section: str) -> Dict[str, Any]:
        """Plain ``{field: value}`` mapping of one section.

        Parameters
        ----------
        section:
            Section name, e.g. ``"hss"``.

        Returns
        -------
        dict
            Values of the section's knobs in schema order.
        """
        obj = getattr(self, section)
        return {k.name: getattr(obj, k.name) for k in SCHEMA
                if k.section == section}

    def to_dict(self) -> Dict[str, Dict[str, Any]]:
        """Nested ``{section: {field: value}}`` mapping of all sections.

        Returns
        -------
        dict
            JSON-serializable nested mapping.
        """
        return {name: self.section_dict(name) for name in _SECTION_TYPES}

    def to_toml(self, provenance_comments: bool = False) -> str:
        """Serialize the resolved config as a ``repro.toml`` document.

        Parameters
        ----------
        provenance_comments:
            Stamp each non-default value with a trailing
            ``# source: ...`` comment.

        Returns
        -------
        str
            TOML text that round-trips through
            :func:`resolve_runtime_config` to an equal config.
        """
        comments = {}
        if provenance_comments:
            for knob in SCHEMA:
                src = self.source(knob.key)
                if src != SOURCE_DEFAULT:
                    comments[knob.key] = f"source: {src}"
        return dumps_toml(self.to_dict(), comments=comments)

    def save(self, path: str) -> str:
        """Write :meth:`to_toml` output to ``path`` atomically.

        Parameters
        ----------
        path:
            Destination file path.

        Returns
        -------
        str
            The ``path`` argument, for chaining.
        """
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(self.to_toml())
        os.replace(tmp, path)
        return path

    # ------------------------------------------------------------ resolution
    @classmethod
    def resolve(cls, path: Optional[str] = None,
                env: Optional[Mapping[str, str]] = None,
                flags: Optional[Mapping[str, Any]] = None,
                search_cwd: bool = False) -> "RuntimeConfig":
        """Resolve a config through the full precedence chain.

        Parameters
        ----------
        path:
            Explicit ``repro.toml`` path (``None`` = no file layer unless
            ``search_cwd`` finds one).
        env:
            Environment mapping (``None`` = ``os.environ``).
        flags:
            ``{"section.field": value}`` CLI-flag layer; string values
            are parsed, typed values are validated.
        search_cwd:
            Look for ``repro.toml`` in the current directory when no
            explicit ``path`` is given.

        Returns
        -------
        RuntimeConfig
            The resolved configuration.
        """
        return resolve_runtime_config(path=path, env=env, flags=flags,
                                      search_cwd=search_cwd)


def _file_layer(path: Optional[str],
                search_cwd: bool) -> Tuple[Dict[str, Any], Optional[str]]:
    if path is None and search_cwd and os.path.isfile(CONFIG_FILENAME):
        path = CONFIG_FILENAME
    if path is None:
        return {}, None
    if not os.path.isfile(path):
        raise FileNotFoundError(f"config file not found: {path}")
    data = load_toml(path)
    values: Dict[str, Any] = {}
    unknown: List[str] = []
    for section, mapping in data.items():
        if not isinstance(mapping, dict):
            unknown.append(section)
            continue
        for name, value in mapping.items():
            key = f"{section}.{name}"
            if key not in _KNOBS:
                unknown.append(key)
                continue
            values[key] = _coerce_value(_KNOBS[key].kind, value,
                                        f"{path}: {key}")
    if unknown:
        raise TomlError(
            f"{path}: unknown config key(s): {', '.join(sorted(unknown))}; "
            f"known keys are section.field with sections "
            f"{', '.join(_SECTION_TYPES)}")
    return values, os.path.abspath(path)


#: knobs whose env values must be strictly positive — the ``0`` spelling
#: ("use all cores") is reserved for explicit constructor args / flags,
#: matching :func:`repro.distributed.resolve_shards`.
_ENV_POSITIVE_KEYS = ("distributed.shards",)


def _env_layer(env: Mapping[str, str]) -> Dict[str, Any]:
    values: Dict[str, Any] = {}
    for knob in SCHEMA:
        for var, inverted in knob.env_vars:
            raw = env.get(var)
            if raw is None or not raw.strip():
                continue
            value = _parse_text(knob.kind, raw, var)
            if inverted:
                value = not bool(value)
            if (knob.key in _ENV_POSITIVE_KEYS and value is not None
                    and value <= 0):
                raise ValueError(
                    f"invalid {var}={raw.strip()!r}: must be a positive "
                    f"integer (unset it for the default, or pass the "
                    f"explicit flag/constructor argument 0 for all cores)")
            values[knob.key] = value
            break
    return values


def _flag_layer(flags: Mapping[str, Any]) -> Dict[str, Any]:
    values: Dict[str, Any] = {}
    for key, raw in flags.items():
        if key not in _KNOBS:
            raise KeyError(
                f"unknown config key {key!r}; see "
                f"repro.runtime.known_keys()")
        values[key] = _coerce_value(_KNOBS[key].kind, raw, key)
    return values


def resolve_runtime_config(path: Optional[str] = None,
                           env: Optional[Mapping[str, str]] = None,
                           flags: Optional[Mapping[str, Any]] = None,
                           search_cwd: bool = False) -> RuntimeConfig:
    """Build a :class:`RuntimeConfig` from all four layers.

    Precedence (later wins): built-in defaults < ``repro.toml`` <
    ``REPRO_*`` environment variables < CLI flags.  Every resolved value
    records its winning layer in the returned config's ``provenance``.

    Parameters
    ----------
    path:
        Optional explicit config file path.
    env:
        Environment mapping; ``None`` uses ``os.environ``.
    flags:
        Optional ``{"section.field": value}`` flag layer.
    search_cwd:
        When ``True`` and ``path`` is ``None``, ``./repro.toml`` is used
        if present.

    Returns
    -------
    RuntimeConfig
        The resolved, validated configuration.
    """
    env = os.environ if env is None else env
    file_values, config_path = _file_layer(path, search_cwd)
    env_values = _env_layer(env)
    flag_values = _flag_layer(flags or {})

    resolved: Dict[str, Any] = {}
    provenance: Dict[str, str] = {}
    for knob in SCHEMA:
        value, src = knob.default(), SOURCE_DEFAULT
        if knob.key in file_values:
            value, src = file_values[knob.key], SOURCE_FILE
        if knob.key in env_values:
            value, src = env_values[knob.key], SOURCE_ENV
        if knob.key in flag_values:
            value, src = flag_values[knob.key], SOURCE_FLAG
        resolved[knob.key] = value
        provenance[knob.key] = src

    # Each section's constructor validates its own values.
    sections = {
        name: cls(**{k.name: resolved[k.key] for k in SCHEMA
                     if k.section == name})
        for name, cls in _SECTION_TYPES.items()}
    return RuntimeConfig(provenance=provenance, config_path=config_path,
                         **sections)
