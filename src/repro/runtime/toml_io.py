"""TOML reading/writing for ``repro.toml`` runtime configs.

Reading is the stdlib :mod:`tomllib` (Python 3.11+, the package's floor)
with its decode error translated to :class:`TomlError`.  Writing
(:func:`dumps_toml`) emits the subset of TOML a ``repro.toml`` uses —
``[section]`` tables of ``key = value`` pairs whose values are strings,
booleans, integers or floats, plus trailing comments — so a config written
by :meth:`repro.runtime.RuntimeConfig.to_toml` always round-trips.
"""

from __future__ import annotations

import tomllib
from typing import Any, Dict, Mapping, Optional


class TomlError(ValueError):
    """Raised when a config file cannot be parsed."""


def loads_toml(text: str) -> Dict[str, Any]:
    """Parse TOML text into a nested dict.

    Parameters
    ----------
    text:
        TOML document text.

    Returns
    -------
    dict
        Nested mapping of tables to key/value pairs.
    """
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise TomlError(str(exc)) from exc


def load_toml(path: str) -> Dict[str, Any]:
    """Read and parse a TOML file.

    Parameters
    ----------
    path:
        Filesystem path of the document.

    Returns
    -------
    dict
        Nested mapping of tables to key/value pairs.
    """
    with open(path, "r", encoding="utf-8") as fh:
        return loads_toml(fh.read())


def format_scalar(value: Any) -> str:
    """Format one scalar as TOML source text.

    Parameters
    ----------
    value:
        A string, bool, int or float.

    Returns
    -------
    str
        The TOML representation.
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    raise TomlError(f"cannot serialize {type(value).__name__} to TOML")


def dumps_toml(sections: Mapping[str, Mapping[str, Any]],
               comments: Optional[Mapping[str, str]] = None) -> str:
    """Serialize ``{section: {key: value}}`` to TOML text.

    ``None`` values are emitted as commented-out placeholders (TOML has no
    null), so a round-trip leaves them at their defaults.

    Parameters
    ----------
    sections:
        Ordered mapping of section name to key/value mapping.
    comments:
        Optional ``{"section.key": text}`` trailing comments (used to
        stamp provenance).

    Returns
    -------
    str
        The TOML document.
    """
    comments = comments or {}
    lines = []
    for section, mapping in sections.items():
        if lines:
            lines.append("")
        lines.append(f"[{section}]")
        for key, value in mapping.items():
            note = comments.get(f"{section}.{key}", "")
            suffix = f"  # {note}" if note else ""
            if value is None:
                lines.append(f"# {key} = <unset>{suffix}")
            else:
                lines.append(f"{key} = {format_scalar(value)}{suffix}")
    return "\n".join(lines) + "\n"
