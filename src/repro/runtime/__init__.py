"""``repro.runtime`` — layered runtime configuration + host context.

The config spine behind the ``repro`` umbrella CLI: one structured
:class:`RuntimeConfig` object composing every subsystem's knobs, resolved
with explicit precedence

    built-in defaults < ``repro.toml`` < ``REPRO_*`` env vars < CLI flags

where each resolved value carries its provenance (``default`` / ``file`` /
``env`` / ``flag``) so ``repro inspect config`` can print where every knob
came from.  See :mod:`repro.runtime.config` for the schema and
:mod:`repro.runtime.host` for the shared host-context stamp.

Quick start::

    from repro.runtime import resolve_runtime_config

    cfg = resolve_runtime_config(path="repro.toml")
    clf = KernelRidgeClassifier.from_config(cfg)  # unfitted, ready to fit
    solver = HSSSolver(hss_options=cfg.hss)   # sections are the option objects
    print(cfg.source("hss.rel_tol"))          # "file"
"""

from .config import (
    CONFIG_FILENAME,
    SCHEMA,
    SOURCE_DEFAULT,
    SOURCE_ENV,
    SOURCE_FILE,
    SOURCE_FLAG,
    Knob,
    RuntimeConfig,
    known_keys,
    resolve_runtime_config,
)
from .host import git_revision, host_context, repro_env, visible_cores
from .toml_io import TomlError, dumps_toml, load_toml, loads_toml

__all__ = [
    "CONFIG_FILENAME",
    "Knob",
    "RuntimeConfig",
    "SCHEMA",
    "SOURCE_DEFAULT",
    "SOURCE_ENV",
    "SOURCE_FILE",
    "SOURCE_FLAG",
    "TomlError",
    "dumps_toml",
    "git_revision",
    "host_context",
    "known_keys",
    "load_toml",
    "loads_toml",
    "repro_env",
    "resolve_runtime_config",
    "visible_cores",
]
