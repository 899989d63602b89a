"""``repro update`` — stream rows into/out of a stored model (Woodbury).

The cheap outer loop of a live training set: removals and appended rows
are applied to the stored model as a low-rank Woodbury correction
(:meth:`repro.krr.KernelRidgeClassifier.partial_fit`) — no clustering, no
recompression, no refactorization — and the streamed artifact is saved
back under the same name.  When the drift budget from the ``[stream]``
config section is breached (or ``--recompress force``), the corrections
are then folded back into a fresh compression, which is saved in turn.

Against a running ``repro serve`` daemon, ``--url`` posts the same update
to ``POST /models/<name>/update`` instead, which hot-swaps the served
model with zero dropped requests and schedules any recompression in the
background.
"""

from __future__ import annotations

import argparse
import json as _json
from typing import List, Optional

from ._common import (CLIError, add_config_arguments, emit, load_bundle,
                      maybe_dump_metrics, resolve_config)


def add_parser(subparsers) -> argparse.ArgumentParser:
    """Register the ``update`` subcommand.

    Parameters
    ----------
    subparsers:
        The argparse subparsers action of the umbrella parser.

    Returns
    -------
    argparse.ArgumentParser
        The subcommand parser.
    """
    parser = subparsers.add_parser(
        "update",
        help="stream rows into/out of the stored model (Woodbury "
             "partial_fit, no recompression)",
        description="Apply a streaming update to the configured model: "
                    "--remove drops training rows, --add appends labeled "
                    "rows from an .npz file (arrays 'X' and 'y'), both as "
                    "an exact low-rank Woodbury correction of the stored "
                    "factorization. The drift budget from the [stream] "
                    "config section decides when the corrections are "
                    "folded back into a fresh compression. With --url the "
                    "update is posted to a running repro serve daemon "
                    "(POST /models/<name>/update) and hot-swapped live.")
    add_config_arguments(parser)
    parser.add_argument(
        "--add", metavar="PATH", default=None,
        help="path of an .npz file with arrays 'X' (rows to append) and "
             "'y' (their labels)")
    parser.add_argument(
        "--remove", metavar="I,J,...", default=None,
        help="comma-separated indices into the model's current training "
             "ordering to drop")
    parser.add_argument(
        "--recompress", choices=("auto", "force", "off"), default=None,
        help="recompression policy (default: stream.recompress from the "
             "config chain)")
    parser.add_argument(
        "--url", metavar="URL", default=None,
        help="base URL of a running repro serve daemon; posts the update "
             "to POST /models/<name>/update instead of editing the store "
             "directly")
    parser.add_argument(
        "--wait", action="store_true",
        help="with --url: block until a scheduled background "
             "recompression (and its hot-swap) completed")
    parser.add_argument(
        "--no-save", action="store_true",
        help="apply and evaluate only; do not overwrite the stored model "
             "(ignored with --url)")
    parser.add_argument(
        "--no-eval", action="store_true",
        help="skip the test-split evaluation of the updated model")
    parser.set_defaults(func=run)
    return parser


def _parse_remove(text: Optional[str]) -> Optional[List[int]]:
    if text is None:
        return None
    try:
        indices = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise CLIError(f"--remove expects comma-separated integers: {exc}")
    if not indices:
        raise CLIError("--remove got no indices")
    return indices


def _load_add(path: Optional[str]):
    if path is None:
        return None, None
    import numpy as np
    try:
        with np.load(path) as data:
            if "X" not in data or "y" not in data:
                raise CLIError(
                    f"{path}: --add expects an .npz with arrays 'X' and "
                    f"'y', found {sorted(data.files)}")
            return (np.asarray(data["X"], dtype=np.float64),
                    np.asarray(data["y"]))
    except (OSError, ValueError) as exc:
        raise CLIError(f"cannot read --add file {path}: {exc}") from exc


def _run_remote(args, config, name, X_new, y_new, remove, mode) -> int:
    """Post the update to a running daemon's /models/<name>/update."""
    import urllib.error
    import urllib.request

    body = {"wait": bool(args.wait)}
    if X_new is not None:
        body["add"] = {"X": X_new.tolist(), "y": y_new.tolist()}
    if remove is not None:
        body["remove"] = remove
    if mode is not None:
        body["recompress"] = mode
    url = f"{args.url.rstrip('/')}/models/{name}/update"
    request = urllib.request.Request(
        url, data=_json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=120.0) as response:
            payload = _json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode("utf-8", "replace")
        raise CLIError(f"POST {url} failed: {exc.code} {detail}") from exc
    except (urllib.error.URLError, OSError) as exc:
        raise CLIError(f"cannot reach {url}: {exc}") from exc

    stream = payload.get("stream", {})
    human = [
        f"updated served model {name!r}: revision "
        f"{payload.get('old_revision')} -> {payload.get('new_revision')} "
        f"(hot-swapped)",
        f"correction rank {stream.get('correction_rank')} "
        f"(budget breached: {stream.get('breached', False)})",
        f"recompress: {payload.get('recompress')}",
    ]
    return emit(args, "update", config, payload, human)


def run(args: argparse.Namespace) -> int:
    """Execute ``repro update``.

    Parameters
    ----------
    args:
        Parsed command-line namespace.

    Returns
    -------
    int
        Process exit code.
    """
    from ..serving import ArtifactError, ModelStore

    config = resolve_config(args)
    X_new, y_new = _load_add(args.add)
    remove = _parse_remove(args.remove)
    if X_new is None and remove is None:
        raise CLIError("nothing to do: pass --add and/or --remove")
    name = config.serving.model
    mode = args.recompress if args.recompress is not None \
        else config.stream.recompress

    if args.url:
        return _run_remote(args, config, name, X_new, y_new, remove, mode)

    from ..hss.streaming import DriftBudget, should_recompress
    store = ModelStore.from_config(config)
    rows = dict(X_new=X_new, y_new=y_new, remove=remove,
                budget=DriftBudget.from_config(config))
    try:
        if args.no_save:
            model = store.load(name)
            model.partial_fit(**rows)
        else:
            model, record = store.apply(name, "partial_fit", **rows,
                                        meta={"streamed": True})
        info = dict(model.stream_info_ or {})
        recompressed = should_recompress(mode, info)
        if recompressed and args.no_save:
            model.recompress()
        elif recompressed:  # re-saved once more, like the daemon's job
            model, record = store.apply(
                name, "recompress",
                meta={"streamed": None, "recompressed": True})
    except ArtifactError as exc:
        raise CLIError(f"{exc} (run `repro train` first)") from exc
    except (RuntimeError, ValueError) as exc:
        raise CLIError(str(exc)) from exc

    n_after = int(model.X_train_.shape[0])
    added = 0 if X_new is None else int(X_new.shape[0])
    removed = 0 if remove is None else len(set(remove))
    result = {
        "model": name,
        "store": store.root,
        "n_train_before": n_after - added + removed,
        "n_train_after": n_after,
        "added": added,
        "removed": removed,
        "stream": info,
        "recompress_mode": mode,
        "recompressed": recompressed,
        "saved": not args.no_save,
    }
    human = [
        f"updated model {name!r}: {result['n_train_before']} -> "
        f"{n_after} training rows (+{added} / -{removed})",
        f"correction rank {info.get('correction_rank')} "
        f"(budget breached: {info.get('breached', False)}"
        + (f", {info.get('breach_reason')}" if info.get("breached") else "")
        + ")",
        "recompressed into a fresh factorization" if recompressed
        else "kept as a Woodbury correction (no recompression)",
    ]
    if not args.no_eval:
        data = load_bundle(config)
        accuracy = float(model.score(data.X_test, data.y_test))
        result["test_accuracy"] = accuracy
        human.append(f"test accuracy after update: {100 * accuracy:.2f}%")
    if not args.no_save:
        result["checksum"] = record.checksum
        result["revision"] = record.revision
        human.append(f"saved updated model (revision {record.revision}, "
                     f"checksum {record.checksum[:12]}...)")
    dumped = maybe_dump_metrics(config)
    if dumped:
        result["metrics_dump"] = dumped
    return emit(args, "update", config, result, human)
