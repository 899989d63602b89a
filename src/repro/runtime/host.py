"""Host-context stamping of the CLI's results.

One canonical description of the machine and process environment a run
executed on — git revision, interpreter / numpy versions, platform, core
counts and the ``REPRO_*`` environment — so ``repro env`` and every CLI
result stamp the *same* fields and stay comparable across commits and
hosts.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from typing import Dict, Optional


def git_revision(cwd: Optional[str] = None) -> str:
    """Current short git revision.

    Parameters
    ----------
    cwd:
        Directory whose repository is queried (``None`` = the process's
        working directory).

    Returns
    -------
    str
        The short hash, or ``"unknown"`` outside a work tree.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=cwd,
            capture_output=True, text=True, timeout=10)
        rev = out.stdout.strip()
        return rev if out.returncode == 0 and rev else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def visible_cores() -> int:
    """Cores visible to this process (affinity-aware).

    Returns
    -------
    int
        ``len(os.sched_getaffinity(0))`` where supported, else
        ``os.cpu_count()`` (at least 1).
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux
        return os.cpu_count() or 1


def repro_env(env: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """All ``REPRO_*`` variables set in the environment.

    Parameters
    ----------
    env:
        Environment mapping (``None`` = ``os.environ``).

    Returns
    -------
    dict
        ``{name: value}`` for every set ``REPRO_*`` variable, sorted by
        name.
    """
    source = os.environ if env is None else env
    return {key: source[key] for key in sorted(source)
            if key.startswith("REPRO_")}


def host_context(cwd: Optional[str] = None) -> Dict[str, object]:
    """The canonical host/process context stamp.

    Parameters
    ----------
    cwd:
        Directory used for the git query (``None`` = the process's
        working directory).

    Returns
    -------
    dict
        ``python``, ``numpy``, ``platform``, ``machine``, ``cpu_count``,
        ``visible_cores``, ``git_rev``, ``pid`` and the ``env`` mapping
        of set ``REPRO_*`` variables.
    """
    try:
        import numpy
        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        numpy_version = "unavailable"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "visible_cores": visible_cores(),
        "git_rev": git_revision(cwd),
        "pid": os.getpid(),
        "env": repro_env(),
    }
