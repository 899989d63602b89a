"""The asyncio HTTP daemon: routes, admission control, graceful drain.

:class:`ServerApp` binds the stdlib-only HTTP/1.1 front end
(:mod:`repro.server.http`) to a blue/green :class:`repro.server.ModelRouter`
and runs the whole serving tier on one ``asyncio`` event loop:

* **Routing** — ``POST /v1/predict`` plus the operational surface
  (``/healthz``, ``/readyz``, ``/metrics``, ``/models`` and per-model
  status / ``swap`` / ``refit``).  Prediction work is bridged onto a
  thread pool (the router's futures block), so the loop never stalls on
  a GEMM.
* **Admission control** — at most ``server.max_queue`` predict requests
  are in flight; beyond that the server sheds load immediately with
  ``429 Too Many Requests`` + ``Retry-After`` instead of building an
  unbounded backlog.
* **Graceful drain** — ``SIGTERM``/``SIGINT`` (or
  :meth:`ServerApp.request_shutdown` from another thread) stop the
  listener, let in-flight requests finish within ``server.drain_timeout``
  seconds, then close the router (which drains every generation).

The daemon is what ``repro serve`` boots; tests run it on a background
thread via :meth:`ServerApp.run` with a ``ready`` callback that reports
the bound (host, port) — port ``0`` binds an ephemeral port.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..obs import global_registry
from ..serving import ArtifactError, ModelStore
from .http import (HttpError, HttpRequest, HttpResponse, read_request,
                   render_response)
from .router import ModelNotServed, ModelRouter, RouterError

__all__ = ["ServerApp"]

#: Prometheus text exposition content type
_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class ServerApp:
    """The ``repro serve`` daemon: HTTP front end over a model router.

    Parameters
    ----------
    config:
        A resolved :class:`repro.runtime.RuntimeConfig`; the ``server.*``
        section supplies host, port, queue depth, drain timeout and the
        per-request batch cap, ``serving.*``/``distributed.*`` shape the
        backend engines.
    store:
        Optional already-open :class:`repro.serving.ModelStore`
        (``None`` opens ``serving.store``).
    router:
        Optional pre-built :class:`ModelRouter` (``None`` builds one from
        the config and store).
    models:
        Names to serve at startup.  ``None`` serves every model in the
        store; an empty store is an error (train and ``repro
        save``/``store.save`` first).

    Examples
    --------
    Run in a background thread and wait for the bound address::

        ready = threading.Event()
        bound = {}

        def on_ready(host, port):
            bound["addr"] = (host, port)
            ready.set()

        thread = threading.Thread(target=app.run,
                                  kwargs={"ready": on_ready}, daemon=True)
        thread.start()
        ready.wait(10.0)
        ...
        app.request_shutdown()
        thread.join(10.0)
    """

    def __init__(self, config, store: Optional[ModelStore] = None,
                 router: Optional[ModelRouter] = None,
                 models: Optional[List[str]] = None):
        self.config = config
        self.store = store if store is not None \
            else ModelStore.from_config(config)
        self.router = router if router is not None \
            else ModelRouter.from_config(config, store=self.store)
        self.models = list(models) if models is not None else None
        self.max_queue = int(config.server.max_queue)
        self.max_batch = int(config.server.max_batch)
        self.drain_timeout = float(config.server.drain_timeout)
        #: bound address, available once the listener is up (port 0 in the
        #: config binds an ephemeral port; this reports the real one)
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._ready = False
        self._shutting_down = False
        self._inflight = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown_event: Optional[asyncio.Event] = None
        self._connections: set = set()
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, min(32, self.max_queue)),
            thread_name_prefix="repro-server")
        reg = global_registry()
        self._m_http = reg.counter(
            "repro_server_http_requests_total",
            "HTTP responses sent, by route pattern and status code",
            labelnames=("route", "status"))
        self._m_rejected = reg.counter(
            "repro_server_rejected_total",
            "Predict requests shed by admission control (429)")
        self._m_inflight = reg.gauge(
            "repro_server_inflight",
            "Predict requests currently admitted (running or queued)")

    # ------------------------------------------------------------- lifecycle
    def run(self, ready: Optional[Callable[[str, int], None]] = None) -> None:
        """Serve until shutdown is requested (blocking).

        Parameters
        ----------
        ready:
            Optional callback invoked with the bound ``(host, port)`` once
            the listener is accepting — the CLI uses it to publish the
            address, tests to synchronize their clients.
        """
        asyncio.run(self._main(ready))

    def request_shutdown(self) -> None:
        """Begin a graceful drain (thread-safe, idempotent).

        Equivalent to delivering ``SIGTERM``: stop accepting, let
        in-flight requests finish within the drain timeout, close the
        router.  Safe to call from any thread; a no-op before the loop
        starts or after shutdown completed.
        """
        loop, event = self._loop, self._shutdown_event
        if loop is not None and event is not None and not loop.is_closed():
            loop.call_soon_threadsafe(event.set)

    async def _main(self, ready) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(sig, self._shutdown_event.set)
            except (NotImplementedError, ValueError, RuntimeError):
                # Not the main thread (tests) or an exotic loop: rely on
                # request_shutdown() instead.
                break
        names = self.models if self.models is not None else self.store.names()
        if not names:
            raise RouterError(
                f"no models to serve in {self.store.root!r}; train one "
                f"first (repro train) or pass explicit names")
        for name in names:
            self.router.serve(name)
        server = await asyncio.start_server(
            self._handle_connection, host=self.config.server.host,
            port=self.config.server.port, limit=2 * 64 * 1024)
        try:
            sockname = server.sockets[0].getsockname()
            self.host, self.port = sockname[0], int(sockname[1])
            self._ready = True
            if ready is not None:
                ready(self.host, self.port)
            await self._shutdown_event.wait()
        finally:
            self._ready = False
            self._shutting_down = True
            server.close()
            await server.wait_closed()
            await self._drain_inflight()
            for writer in list(self._connections):
                with contextlib.suppress(Exception):
                    writer.close()
            await self._loop.run_in_executor(None, self.router.close)
            self._executor.shutdown(wait=False)

    async def _drain_inflight(self) -> None:
        """Wait (up to the drain timeout) for admitted requests to finish."""
        deadline = self._loop.time() + self.drain_timeout
        while self._inflight > 0 and self._loop.time() < deadline:
            await asyncio.sleep(0.02)

    # ----------------------------------------------------------- connections
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    writer.write(render_response(exc.response(), False))
                    await writer.drain()
                    break
                if request is None:
                    break
                keep = request.keep_alive and not self._shutting_down
                route, response = await self._dispatch(request)
                self._m_http.labels(route=route,
                                    status=str(response.status)).inc()
                writer.write(render_response(response, keep))
                await writer.drain()
                if not keep:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _dispatch(self, request: HttpRequest
                        ) -> Tuple[str, HttpResponse]:
        """Route one request; returns ``(route_pattern, response)``."""
        route, handler, params = self._match(request.method, request.path)
        try:
            if handler is None:
                raise HttpError(404 if route == "unmatched" else 405,
                                f"no route for {request.method} "
                                f"{request.path}")
            response = await handler(request, **params)
        except HttpError as exc:
            response = exc.response()
        except ModelNotServed as exc:
            response = HttpError(404, str(exc)).response()
        except (RouterError, ArtifactError) as exc:
            # An unreadable stored revision is the store's state, not a
            # server fault: the active generation keeps answering.
            response = HttpError(409, str(exc)).response()
        except ValueError as exc:
            response = HttpError(400, str(exc)).response()
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            response = HttpError(
                500, f"internal error: {type(exc).__name__}: {exc}"
            ).response()
        return route, response

    def _match(self, method: str, path: str
               ) -> Tuple[str, Optional[Callable], Dict[str, str]]:
        parts = [p for p in path.split("/") if p]
        if not parts:
            return "/", (self._handle_index if method == "GET" else None), {}
        if parts == ["healthz"]:
            return "/healthz", \
                (self._handle_healthz if method == "GET" else None), {}
        if parts == ["readyz"]:
            return "/readyz", \
                (self._handle_readyz if method == "GET" else None), {}
        if parts == ["metrics"]:
            return "/metrics", \
                (self._handle_metrics if method == "GET" else None), {}
        if parts == ["models"]:
            return "/models", \
                (self._handle_models if method == "GET" else None), {}
        if len(parts) == 2 and parts[0] == "models":
            return "/models/<name>", \
                (self._handle_model if method == "GET" else None), \
                {"name": parts[1]}
        if len(parts) == 3 and parts[0] == "models":
            name, action = parts[1], parts[2]
            if action == "versions":
                return "/models/<name>/versions", \
                    (self._handle_versions if method == "GET" else None), \
                    {"name": name}
            if action == "swap":
                return "/models/<name>/swap", \
                    (self._handle_swap if method == "POST" else None), \
                    {"name": name}
            if action == "refit":
                return "/models/<name>/refit", \
                    (self._handle_refit if method == "POST" else None), \
                    {"name": name}
            if action == "update":
                return "/models/<name>/update", \
                    (self._handle_update if method == "POST" else None), \
                    {"name": name}
        if parts == ["v1", "predict"]:
            return "/v1/predict", \
                (self._handle_predict if method == "POST" else None), {}
        return "unmatched", None, {}

    # -------------------------------------------------------------- handlers
    async def _handle_index(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse.json({
            "service": "repro-server",
            "models": self.router.names(),
            "endpoints": ["/healthz", "/readyz", "/metrics", "/models",
                          "/models/<name>", "/models/<name>/versions",
                          "POST /models/<name>/swap",
                          "POST /models/<name>/refit",
                          "POST /models/<name>/update", "POST /v1/predict"],
        })

    async def _handle_healthz(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse.json({"status": "ok"})

    async def _handle_readyz(self, request: HttpRequest) -> HttpResponse:
        if not self._ready or self._shutting_down:
            return HttpResponse.json(
                {"status": "draining" if self._shutting_down
                 else "starting"}, status=503)
        return HttpResponse.json(
            {"status": "ready", "models": self.router.names()})

    async def _handle_metrics(self, request: HttpRequest) -> HttpResponse:
        text = await self._loop.run_in_executor(
            self._executor, global_registry().to_prometheus)
        return HttpResponse.text(text, content_type=_PROMETHEUS_CONTENT_TYPE)

    async def _handle_models(self, request: HttpRequest) -> HttpResponse:
        statuses = await self._loop.run_in_executor(
            self._executor, self.router.status_all)
        return HttpResponse.json({"models": statuses})

    async def _handle_model(self, request: HttpRequest,
                            name: str) -> HttpResponse:
        status = await self._loop.run_in_executor(
            self._executor, self.router.status, name)
        return HttpResponse.json(status)

    async def _handle_versions(self, request: HttpRequest,
                               name: str) -> HttpResponse:
        self.router.active_revision(name)  # 404 for unserved names
        entries = await self._loop.run_in_executor(
            self._executor, self.store.versions, name)
        return HttpResponse.json({"model": name, "versions": entries})

    async def _handle_swap(self, request: HttpRequest,
                           name: str) -> HttpResponse:
        payload = request.json()
        result = await self._loop.run_in_executor(
            self._executor,
            functools.partial(self.router.swap, name,
                              force=bool(payload.get("force", False)),
                              wait=bool(payload.get("wait", False))))
        return HttpResponse.json(result)

    async def _handle_refit(self, request: HttpRequest,
                            name: str) -> HttpResponse:
        payload = request.json()
        if "lam" not in payload:
            raise HttpError(400, 'refit requires a JSON body with "lam"')
        try:
            lam = float(payload["lam"])
        except (TypeError, ValueError):
            raise HttpError(400, f"bad lam value: {payload['lam']!r}")
        result = await self._loop.run_in_executor(
            self._executor, self.router.refit, name, lam)
        return HttpResponse.json(result)

    async def _handle_update(self, request: HttpRequest,
                             name: str) -> HttpResponse:
        """Streaming update: Woodbury ``partial_fit`` + hot-swap.

        Body: ``{"add": {"X": [[...]], "y": [...]}, "remove": [i, ...],
        "recompress": "auto"|"force"|"off", "wait": bool}`` — at least
        one of ``add``/``remove`` is required.
        """
        payload = request.json()
        if not isinstance(payload, dict):
            raise HttpError(400, "update requires a JSON object body")
        add = payload.get("add")
        remove = payload.get("remove")
        if not add and not remove:
            raise HttpError(
                400, 'update requires "add" ({"X": ..., "y": ...}) '
                     'and/or "remove" ([indices])')
        X_new = y_new = None
        if add:
            if not isinstance(add, dict) or "X" not in add or "y" not in add:
                raise HttpError(
                    400, '"add" must be an object with "X" and "y"')
            try:
                X_new = np.asarray(add["X"], dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise HttpError(400, f'add.X is not numeric: {exc}')
            if X_new.ndim == 1:
                X_new = X_new[None, :]
            y_new = np.asarray(add["y"])
            if X_new.shape[0] > self.max_batch:
                raise HttpError(
                    413, f"update of {X_new.shape[0]} rows exceeds "
                         f"server.max_batch={self.max_batch}; split it")
        if remove is not None and not (
                isinstance(remove, list)
                and all(type(i) is int for i in remove)):
            raise HttpError(400, '"remove" must be a JSON list of integer '
                                 f'row indices, got {remove!r}')
        recompress = payload.get("recompress")
        if recompress is not None and recompress not in ("auto", "force",
                                                         "off"):
            raise HttpError(400, f'"recompress" must be "auto", "force" or '
                                 f'"off", got {recompress!r}')
        result = await self._loop.run_in_executor(
            self._executor,
            functools.partial(self.router.update, name, X_new=X_new,
                              y_new=y_new, remove=remove,
                              recompress=recompress,
                              wait=bool(payload.get("wait", False))))
        return HttpResponse.json(result)

    def _resolve_model_name(self, payload: Dict) -> str:
        name = payload.get("model")
        if name:
            return str(name)
        served = self.router.names()
        default = self.config.serving.model
        if default in served:
            return default
        if len(served) == 1:
            return served[0]
        raise HttpError(
            400, f'multiple models are served ({served}); name one with '
                 f'the "model" field')

    async def _handle_predict(self, request: HttpRequest) -> HttpResponse:
        if self._shutting_down:
            raise HttpError(503, "server is draining",
                            headers={"Retry-After": "1"})
        if self._inflight >= self.max_queue:
            # Admission control: shed load immediately rather than build
            # an unbounded backlog behind the dispatcher.
            self._m_rejected.inc()
            raise HttpError(
                429, f"server is at capacity ({self.max_queue} requests "
                     f"in flight)", headers={"Retry-After": "1"})
        payload = request.json()
        if not isinstance(payload, dict) or "inputs" not in payload:
            raise HttpError(400, 'predict requires a JSON body with "inputs"')
        try:
            X = np.asarray(payload["inputs"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"inputs is not numeric: {exc}")
        if X.ndim == 1:
            X = X[None, :]
        if X.ndim != 2 or X.shape[0] == 0:
            raise HttpError(
                400, f"inputs must be a non-empty 2-D array of query "
                     f"points, got shape {X.shape}")
        if X.shape[0] > self.max_batch:
            raise HttpError(
                413, f"batch of {X.shape[0]} rows exceeds server.max_batch="
                     f"{self.max_batch}; split the request")
        name = self._resolve_model_name(payload)
        self._inflight += 1
        self._m_inflight.set(self._inflight)
        try:
            predictions = await self._loop.run_in_executor(
                self._executor, self.router.predict, name, X)
        finally:
            self._inflight -= 1
            self._m_inflight.set(self._inflight)
        return HttpResponse.json({
            "model": name,
            "version": self.router.active_revision(name),
            "count": int(X.shape[0]),
            "predictions": np.asarray(predictions).tolist(),
        })

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        addr = f"{self.host}:{self.port}" if self.port else "unbound"
        return f"ServerApp({addr}, models={self.router.names()})"
