"""Shared plumbing of the ``repro`` umbrella CLI.

Every subcommand resolves its :class:`repro.runtime.RuntimeConfig` through
the same layered chain (defaults < ``repro.toml`` < ``REPRO_*`` env < CLI
flags), prints a human summary to stdout and writes a machine-readable
JSON result next to it — idempotently (atomic replace), so re-running a
command is always safe.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..runtime import RuntimeConfig, resolve_runtime_config
from ..runtime.host import host_context


class CLIError(Exception):
    """An operator-facing error: printed to stderr, exit code 2."""


#: first-class flags and the config keys they set (the flag layer)
FLAG_KEYS = {
    "dataset": "dataset.name",
    "n_train": "dataset.n_train",
    "n_test": "dataset.n_test",
    "kernel": "kernel.name",
    "h": "kernel.h",
    "lam": "kernel.lam",
    "solver": "solver.name",
    "clustering": "clustering.method",
    "leaf_size": "clustering.leaf_size",
    "shards": "distributed.shards",
    "store": "serving.store",
    "model": "serving.model",
}


def add_config_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared config/override/output flags to a subparser.

    Parameters
    ----------
    parser:
        The subcommand's parser.
    """
    group = parser.add_argument_group("configuration")
    group.add_argument(
        "-c", "--config", metavar="PATH", default=None,
        help="repro.toml path (default: ./repro.toml when present)")
    group.add_argument(
        "--set", metavar="KEY=VALUE", action="append", default=[],
        dest="overrides",
        help="override any config knob, e.g. --set hss.rel_tol=0.05 "
             "(repeatable; highest precedence)")
    group.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS,
        help="seed for dataset generation and clustering")
    for flag, key in FLAG_KEYS.items():
        group.add_argument(
            f"--{flag.replace('_', '-')}", dest=flag,
            default=argparse.SUPPRESS, metavar=key.split(".", 1)[1].upper(),
            help=f"sets {key}")
    out = parser.add_argument_group("output")
    out.add_argument(
        "--json", metavar="PATH", default=None,
        help="machine-readable result path "
             "(default: repro_<command>.json in the working directory)")
    out.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress the human-readable summary")


def flag_layer(args: argparse.Namespace) -> Dict[str, Any]:
    """Collect the CLI-flag layer from parsed arguments.

    Parameters
    ----------
    args:
        The parsed namespace of a subcommand.

    Returns
    -------
    dict
        ``{"section.field": raw_value}`` for every flag the user passed.
    """
    flags: Dict[str, Any] = {}
    mapping = dict(FLAG_KEYS)
    mapping.update(getattr(args, "extra_flag_keys", None) or {})
    for flag, key in mapping.items():
        if hasattr(args, flag):
            flags[key] = getattr(args, flag)
    if hasattr(args, "seed"):
        flags["dataset.seed"] = args.seed
        flags["clustering.seed"] = args.seed
    for item in getattr(args, "overrides", []) or []:
        if "=" not in item:
            raise CLIError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        flags[key.strip()] = value.strip()
    return flags


def resolve_config(args: argparse.Namespace) -> RuntimeConfig:
    """Resolve the runtime config for one subcommand invocation.

    Applies the observability section process-wide (enable switch +
    default dump path) before returning.

    Parameters
    ----------
    args:
        The parsed namespace (must carry the shared config flags).

    Returns
    -------
    RuntimeConfig
        The resolved config.
    """
    try:
        config = resolve_runtime_config(path=args.config,
                                        flags=flag_layer(args),
                                        search_cwd=args.config is None)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        raise CLIError(str(exc)) from exc
    from .. import obs
    obs.configure(enabled=config.obs.enabled,
                  dump_path=config.obs.dump_path)
    return config


def load_bundle(config: RuntimeConfig):
    """Generate the dataset the config describes.

    Parameters
    ----------
    config:
        The resolved runtime config.

    Returns
    -------
    repro.datasets.DatasetBundle
        Standardized train/test splits plus the paper's ``(h, lam)``.
    """
    from ..datasets import load_dataset
    d = config.dataset
    return load_dataset(d.name, n_train=d.n_train, n_test=d.n_test,
                        seed=d.seed, normalize=d.normalize)


def effective_h_lam(config: RuntimeConfig, data) -> Tuple[float, float]:
    """The ``(h, lam)`` a command should train with.

    Provenance-aware defaulting: a kernel knob left at its built-in
    default falls back to the dataset's paper value; any explicit file /
    env / flag setting wins.

    Parameters
    ----------
    config:
        The resolved runtime config.
    data:
        The :class:`repro.datasets.DatasetBundle` (supplies the paper
        values).

    Returns
    -------
    tuple of float
        ``(h, lam)``.
    """
    h = data.h if config.source("kernel.h") == "default" else config.kernel.h
    lam = (data.lam if config.source("kernel.lam") == "default"
           else config.kernel.lam)
    return float(h), float(lam)


def maybe_dump_metrics(config: RuntimeConfig) -> Optional[str]:
    """Dump the telemetry registry when the config asks for it.

    Parameters
    ----------
    config:
        The resolved runtime config; a non-empty ``obs.dump_path``
        triggers the dump.

    Returns
    -------
    str or None
        The written path, or ``None`` when no dump was configured.
    """
    if not config.obs.dump_path:
        return None
    from ..obs import dump_metrics
    return dump_metrics(config.obs.dump_path)


def _json_default(value: Any):
    import numpy as np
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return repr(value)


def result_envelope(command: str, config: RuntimeConfig,
                    result: Dict[str, Any]) -> Dict[str, Any]:
    """Wrap a command's payload in the standard result envelope.

    Parameters
    ----------
    command:
        Subcommand name.
    config:
        The resolved runtime config (its path and provenance summary are
        stamped).
    result:
        The command-specific payload.

    Returns
    -------
    dict
        The JSON-serializable envelope.
    """
    non_default = {row["key"]: row["source"] for row in config.describe()
                   if row["source"] != "default"}
    return {
        "command": command,
        "status": "ok",
        "config_path": config.config_path,
        "config_overrides": non_default,
        "host": host_context(),
        "result": result,
    }


def write_result(path: str, payload: Dict[str, Any]) -> str:
    """Atomically write one JSON result document.

    Parameters
    ----------
    path:
        Destination path.
    payload:
        JSON-serializable mapping.

    Returns
    -------
    str
        The ``path`` argument.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True,
                  default=_json_default)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def emit(args: argparse.Namespace, command: str, config: RuntimeConfig,
         result: Dict[str, Any], human: Iterable[str]) -> int:
    """Write the JSON result and print the human summary.

    Parameters
    ----------
    args:
        The parsed namespace (``--json`` / ``--quiet``).
    command:
        Subcommand name (drives the default result filename).
    config:
        The resolved runtime config.
    result:
        The command payload for the JSON document.
    human:
        Human-readable summary lines for stdout.

    Returns
    -------
    int
        Process exit code (0).
    """
    path = args.json or f"repro_{command}.json"
    write_result(path, result_envelope(command, config, result))
    if not args.quiet:
        for line in human:
            print(line)
        print(f"[result] {path}")
    return 0
