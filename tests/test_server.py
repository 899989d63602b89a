"""Tests of the ``repro.server`` HTTP tier: router, app, hot-swap, 429s.

The daemon runs on a background thread per test (ephemeral port), and a
stdlib ``urllib``/``http.client`` client drives the real wire protocol —
no mocked transport.  The two headline regressions:

* a client hammering ``POST /v1/predict`` across a blue/green hot-swap
  sees **zero** failed requests, and the shared request trail shows a
  clean old→new revision boundary;
* past ``server.max_queue`` in-flight requests the server sheds load
  with ``429 Too Many Requests`` + ``Retry-After`` (and counts it in
  ``repro_server_rejected_total``) instead of queueing without bound.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest
from conftest import wait_until

from repro.datasets import gaussian_mixture
from repro.krr import KernelRidgeClassifier
from repro.obs import parse_prometheus, trace
from repro.runtime import resolve_runtime_config
from repro.server import ModelNotServed, ModelRouter, ServerApp
from repro.serving import ModelStore

MODEL = "demo"


# --------------------------------------------------------------------- helpers
@pytest.fixture(scope="session")
def fitted():
    """One fitted classifier shared by every server test (training is the
    expensive part; stores and daemons are rebuilt per test)."""
    X, y = gaussian_mixture(n=192, d=4, seed=0)
    clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="dense").fit(X, y)
    return X, y, clf


@pytest.fixture
def store(tmp_path, fitted):
    _, _, clf = fitted
    s = ModelStore(str(tmp_path / "store"))
    s.save(clf, MODEL)
    return s


def _make_config(store, **extra):
    flags = {"serving.store": store.root, "serving.model": MODEL,
             "server.port": 0}
    flags.update(extra)
    return resolve_runtime_config(env={}, flags=flags)


@pytest.fixture
def server(store):
    """A live daemon on an ephemeral port; yields ``(app, base_url)``."""
    with _running_app(_make_config(store), store) as pair:
        yield pair


class _running_app:
    def __init__(self, config, store):
        self.app = ServerApp(config, store=store)
        self._ready = threading.Event()
        self._bound = {}

    def __enter__(self):
        def on_ready(host, port):
            self._bound["url"] = f"http://{host}:{port}"
            self._ready.set()

        self.thread = threading.Thread(target=self.app.run,
                                       kwargs={"ready": on_ready},
                                       daemon=True)
        self.thread.start()
        assert self._ready.wait(30.0), "server did not come up"
        return self.app, self._bound["url"]

    def __exit__(self, *exc_info):
        self.app.request_shutdown()
        self.thread.join(30.0)
        assert not self.thread.is_alive(), "server did not drain on shutdown"


def _get(url, timeout=10.0):
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, resp.read().decode("utf-8"), resp.headers
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8"), exc.headers


def _post(url, payload, timeout=30.0):
    body = payload if isinstance(payload, bytes) \
        else json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        url, data=body, method="POST",
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read()), resp.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), exc.headers


# ---------------------------------------------------------------- basic serve
def test_predict_matches_direct_model(server, fitted):
    X, _, clf = fitted
    app, url = server
    status, body, _ = _post(f"{url}/v1/predict",
                            {"inputs": X[:16].tolist()})
    assert status == 200
    assert body["model"] == MODEL
    assert body["version"] == 1
    assert body["count"] == 16
    # served-over-HTTP == in-process predict, bitwise
    assert np.array_equal(np.asarray(body["predictions"]),
                          clf.predict(X[:16]))


def test_single_row_and_named_model(server, fitted):
    X, _, clf = fitted
    _, url = server
    status, body, _ = _post(f"{url}/v1/predict",
                            {"inputs": X[0].tolist(), "model": MODEL})
    assert status == 200
    assert body["count"] == 1
    assert body["predictions"] == [clf.predict(X[:1])[0]]


def test_health_ready_index(server):
    app, url = server
    assert _get(f"{url}/healthz")[0] == 200
    status, text, _ = _get(f"{url}/readyz")
    assert status == 200
    assert json.loads(text)["models"] == [MODEL]
    status, text, _ = _get(f"{url}/")
    assert status == 200
    assert MODEL in json.loads(text)["models"]


def test_models_listing_and_status(server):
    _, url = server
    status, text, _ = _get(f"{url}/models")
    assert status == 200
    (entry,) = json.loads(text)["models"]
    assert entry["model"] == MODEL
    assert entry["status"] == "ready"
    assert entry["revision"] == 1
    assert entry["swap_available"] is False
    status, text, _ = _get(f"{url}/models/{MODEL}")
    assert status == 200
    assert json.loads(text)["revision"] == 1


def test_metrics_endpoint_parses(server, fitted):
    X, _, _ = fitted
    _, url = server
    _post(f"{url}/v1/predict", {"inputs": X[:4].tolist()})
    status, text, headers = _get(f"{url}/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    samples = parse_prometheus(text)  # raises on malformed exposition
    for family in ("repro_server_predictions_total",
                   "repro_server_http_requests_total",
                   "repro_server_model_revision"):
        assert any(key.startswith(family) for key in samples), family


def test_keep_alive_reuses_one_connection(server, fitted):
    X, _, _ = fitted
    _, url = server
    host, port = url.removeprefix("http://").split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=10.0)
    try:
        for _ in range(3):
            conn.request("POST", "/v1/predict",
                         body=json.dumps({"inputs": X[:2].tolist()}),
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            assert resp.status == 200
            json.loads(resp.read())  # must fully read to reuse the socket
    finally:
        conn.close()


# ------------------------------------------------------------------ hot-swap
def test_hot_swap_under_load_zero_failures(server, store, fitted):
    """The tentpole guarantee: a closed-loop client hammering predict
    across a re-save + swap never sees a failure, and the shared request
    trail shows a clean revision 1 → 2 boundary."""
    X, _, clf = fitted
    app, url = server
    failures = []
    served_versions = []
    stop = threading.Event()

    def hammer():
        while not stop.is_set():
            status, body, _ = _post(f"{url}/v1/predict",
                                    {"inputs": X[:2].tolist()})
            if status != 200:
                failures.append((status, body))
                return
            served_versions.append(body["version"])

    client = threading.Thread(target=hammer, daemon=True)
    client.start()
    # let traffic build on revision 1
    wait_until(lambda: len(served_versions) >= 5 or failures,
               message="no traffic reached revision 1")
    store.save(clf, MODEL, overwrite=True)  # publish revision 2
    status, body, _ = _post(f"{url}/models/{MODEL}/swap", {"wait": True})
    assert status == 200
    assert body == {"model": MODEL, "old_revision": 1, "new_revision": 2,
                    "swapped": True}
    # traffic on revision 2
    wait_until(lambda: failures or (served_versions
                                    and served_versions[-1] == 2),
               message="no traffic reached revision 2")
    stop.set()
    client.join(30.0)
    assert not client.is_alive()

    assert failures == []  # zero dropped / failed requests across the swap
    assert set(served_versions) == {1, 2}

    # The shared trail spans the swap: versions are non-decreasing with
    # exactly one boundary (the closed-loop client serializes requests).
    trail_versions = [r.model_version
                      for r in app.router.recent_requests(MODEL)
                      if r.model == MODEL]
    assert set(trail_versions) == {1, 2}
    assert trail_versions == sorted(trail_versions)
    boundary = trail_versions.index(2)
    assert all(v == 1 for v in trail_versions[:boundary])
    assert all(v == 2 for v in trail_versions[boundary:])


def test_swap_without_new_revision_is_noop(server):
    _, url = server
    status, body, _ = _post(f"{url}/models/{MODEL}/swap", {})
    assert status == 200
    assert body["swapped"] is False
    assert body["new_revision"] == body["old_revision"] == 1


def test_refit_bumps_revision_and_changes_lambda(server, store, fitted):
    X, _, clf = fitted
    _, url = server
    status, body, _ = _post(f"{url}/models/{MODEL}/refit", {"lam": 0.25})
    assert status == 200
    assert body["swapped"] is True
    assert body["new_revision"] == 2
    assert body["lam"] == 0.25
    assert store.record(MODEL).metadata["lambda"] == 0.25
    # served predictions now come from the refitted weights
    refitted = store.load(MODEL)
    status, out, _ = _post(f"{url}/v1/predict", {"inputs": X[:8].tolist()})
    assert status == 200
    assert out["version"] == 2
    assert np.array_equal(np.asarray(out["predictions"]),
                          refitted.predict(X[:8]))


def test_torn_newer_revision_fails_the_swap_not_the_service(server, store,
                                                            fitted):
    """A revision whose archive is torn cannot be swapped in: the admin
    call gets a 409 naming the artifact, never a 5xx, and the active
    generation keeps answering."""
    X, _, clf = fitted
    app, url = server
    archive = store.save(clf, MODEL, overwrite=True).archive_path
    os.truncate(archive, os.path.getsize(archive) // 2)
    for route, body in (("swap", {}), ("refit", {"lam": 0.5}),
                        ("update", {"remove": [0]})):
        status, out, _ = _post(f"{url}/models/{MODEL}/{route}", body)
        assert status == 409, (route, out)
        assert "cannot read model artifact" in out["error"], (route, out)
    assert app.router.active_revision(MODEL) == 1
    status, out, _ = _post(f"{url}/v1/predict", {"inputs": X[:8].tolist()})
    assert status == 200 and out["version"] == 1
    assert np.array_equal(np.asarray(out["predictions"]), clf.predict(X[:8]))


@pytest.mark.parametrize("remove", ["12", [1.5], [1.0], [True], [[1, 2]],
                                    ["1"], {"0": 1}, [None]])
def test_update_refuses_non_integer_removals(server, store, remove):
    """``"remove"`` is a JSON list of integers: anything else is a 400 and
    the store keeps its revision (``"12"`` used to remove rows 1 and 2)."""
    app, url = server
    status, out, _ = _post(f"{url}/models/{MODEL}/update",
                           {"remove": remove})
    assert status == 400, out
    assert store.latest(MODEL).revision == 1
    assert app.router.active_revision(MODEL) == 1


def test_versions_endpoint_tracks_history(server, store, fitted):
    _, _, clf = fitted
    _, url = server
    store.save(clf, MODEL, overwrite=True)
    _post(f"{url}/models/{MODEL}/swap", {})
    status, text, _ = _get(f"{url}/models/{MODEL}/versions")
    assert status == 200
    entries = json.loads(text)["versions"]
    assert [e["revision"] for e in entries] == [1, 2]


# ----------------------------------------------------------------- admission
def test_admission_control_sheds_load_with_429(store, fitted):
    X, _, _ = fitted
    config = _make_config(store, **{"server.max_queue": 1})
    with _running_app(config, store) as (app, url):
        # Make each predict slow enough that a second request reliably
        # arrives while the first is still in flight.
        original = app.router.predict

        def slow_predict(name, Xq, timeout=None):
            time.sleep(0.8)
            return original(name, Xq, timeout)

        app.router.predict = slow_predict
        results = []

        def client():
            results.append(_post(f"{url}/v1/predict",
                                 {"inputs": X[:1].tolist()}))

        first = threading.Thread(target=client, daemon=True)
        first.start()
        # first request is now in flight (max_queue=1)
        wait_until(lambda: app._inflight >= 1,
                   message="first request never entered flight")
        status, body, headers = _post(f"{url}/v1/predict",
                                      {"inputs": X[:1].tolist()})
        assert status == 429
        assert "capacity" in body["error"]
        assert headers["Retry-After"] == "1"
        first.join(15.0)
        assert results[0][0] == 200  # the admitted request still succeeded

        # recovery: with the slot free again the next request is admitted
        status, _, _ = _post(f"{url}/v1/predict",
                             {"inputs": X[:1].tolist()})
        assert status == 200

        # over-offered eightfold: each client gets a served 200 or an
        # immediate 429 -- never a drop, a hang or a 5xx
        del results[:]
        burst = [threading.Thread(target=client, daemon=True)
                 for _ in range(8)]
        for thread in burst:
            thread.start()
        for thread in burst:
            thread.join(15.0)
        statuses = [status for status, _, _ in results]
        assert len(statuses) == 8 and set(statuses) <= {200, 429}
        assert 200 in statuses

        # the shed request is visible in the metrics
        _, text, _ = _get(f"{url}/metrics")
        rejected = [value for key, value in parse_prometheus(text).items()
                    if key.startswith("repro_server_rejected_total")]
        assert rejected and max(rejected) >= 1


# ------------------------------------------------------------ drain contract
def test_drain_flips_readyz_while_inflight_completes(store, fitted):
    """The graceful-drain contract: once shutdown is requested (SIGTERM /
    request_shutdown), ``/readyz`` reports 503 so load balancers stop
    routing, while every predict admitted *before* the drain began still
    completes successfully."""
    X, _, clf = fitted
    with _running_app(_make_config(store), store) as (app, url):
        host, port = url.removeprefix("http://").split(":")
        # A keep-alive connection opened before the drain: the listener
        # stops accepting new connections during shutdown, so this is the
        # vantage point from which the 503 readiness flip is observable.
        conn = http.client.HTTPConnection(host, int(port), timeout=10.0)
        conn.request("GET", "/healthz")
        resp = conn.getresponse()
        assert resp.status == 200
        resp.read()

        # Hold one admitted predict in flight until released.
        release = threading.Event()
        original = app.router.predict

        def gated_predict(name, Xq, timeout=None):
            assert release.wait(10.0), "gate never released"
            return original(name, Xq, timeout)

        app.router.predict = gated_predict
        results = []

        def client():
            results.append(_post(f"{url}/v1/predict",
                                 {"inputs": X[:2].tolist()}))

        inflight = threading.Thread(target=client, daemon=True)
        inflight.start()
        wait_until(lambda: app._inflight >= 1,
                   message="predict never entered flight")

        app.request_shutdown()  # same path as SIGTERM
        wait_until(lambda: app._shutting_down,
                   message="drain never began")

        # Readiness flips to 503 while the admitted request still runs.
        conn.request("GET", "/readyz")
        resp = conn.getresponse()
        body = json.loads(resp.read())
        conn.close()
        assert resp.status == 503
        assert body["status"] == "draining"
        assert app._inflight >= 1  # the admitted predict is still in flight

        # ... and that request completes successfully once unblocked.
        release.set()
        inflight.join(15.0)
        assert not inflight.is_alive()
        assert results and results[0][0] == 200
        assert np.array_equal(np.asarray(results[0][1]["predictions"]),
                              clf.predict(X[:2]))


# -------------------------------------------------------------- error paths
def test_http_error_statuses(server, fitted):
    X, _, _ = fitted
    app, url = server
    assert _get(f"{url}/no/such/route")[0] == 404
    assert _get(f"{url}/models/never-served")[0] == 404
    assert _get(f"{url}/v1/predict")[0] == 405  # GET on a POST route
    assert _post(f"{url}/v1/predict", b"{not json")[0] == 400
    assert _post(f"{url}/v1/predict", {"rows": []})[0] == 400
    assert _post(f"{url}/v1/predict", {"inputs": [["a", "b"]]})[0] == 400
    assert _post(f"{url}/models/{MODEL}/refit", {})[0] == 400
    assert _post(f"{url}/models/{MODEL}/refit", {"lam": "x"})[0] == 400
    too_many = np.zeros((app.max_batch + 1, X.shape[1]))
    assert _post(f"{url}/v1/predict",
                 {"inputs": too_many.tolist()})[0] == 413
    status, body, _ = _post(f"{url}/v1/predict",
                            {"inputs": X[:1].tolist(),
                             "model": "never-served"})
    assert status == 404


def test_malformed_request_line_gets_400(server):
    _, url = server
    host, port = url.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=10.0) as sock:
        sock.sendall(b"BOGUS\r\n\r\n")
        reply = sock.recv(4096)
    assert reply.startswith(b"HTTP/1.1 400 ")


# ------------------------------------------------------------- router direct
def test_router_unserved_name_raises(store):
    router = ModelRouter(store)
    with pytest.raises(ModelNotServed):
        router.predict("nope", np.zeros((1, 4)))
    router.close()


def test_router_serve_is_idempotent(store, fitted):
    X, _, clf = fitted
    router = ModelRouter(store)
    try:
        assert router.serve(MODEL) == 1
        assert router.serve(MODEL) == 1  # second serve keeps the generation
        assert np.array_equal(router.predict(MODEL, X[:4]),
                              clf.predict(X[:4]))
        assert router.active_revision(MODEL) == 1
    finally:
        router.close()
    assert router.names() == []


def test_router_update_follows_the_configured_drift_policy(store, fitted):
    """``[stream]`` reaches the router as a budget and a policy: an update
    within budget is re-saved as streamed, a breach under ``auto`` folds
    it in a second re-save, and both keep the record's other metadata."""
    X, y, _ = fitted
    router = ModelRouter.from_config(
        _make_config(store, **{"stream.max_updates": 3}), store=store)
    assert router.stream_budget.max_updates == 3
    try:
        router.serve(MODEL)
        router.refit(MODEL, 0.5)
        within = router.update(MODEL, X_new=X[:2], y_new=y[:2])
        assert within["new_revision"] == 3
        assert not within["stream"]["breached"]
        assert within["recompress"] == {"mode": "auto", "scheduled": False}
        assert store.record(MODEL).metadata == {"lambda": 0.5,
                                                "streamed": True}

        breach = router.update(MODEL, remove=[0, 1], wait=True)
        assert breach["stream"]["breached"]
        assert breach["recompress"]["status"] == "completed"
        assert router.active_revision(MODEL) == 5
        assert store.record(MODEL).metadata == {"lambda": 0.5,
                                                "recompressed": True}
        assert store.load(MODEL).X_train_.shape[0] == X.shape[0]
    finally:
        router.close()


def test_router_mutation_loads_the_archive_once(store, fitted, monkeypatch):
    """A mutation serves the model ``ModelStore.apply`` hands back: one
    archive load per ``update``, not one for the verb and one for the
    swap, and the new generation predicts what a reloaded model does."""
    X, y, _ = fitted

    def loads(span):
        return (span.name == "artifact.load") + sum(map(loads, span.children))

    router = ModelRouter(store)
    try:
        router.serve(MODEL)
        with trace.span("update") as root:
            result = router.update(MODEL, X_new=X[:3], y_new=y[:3],
                                   recompress="off")
        assert result["swapped"] and result["new_revision"] == 2
        assert loads(root) == 1
        reloaded = store.load(MODEL)
        assert reloaded.X_train_.shape[0] == X.shape[0] + 3
        assert np.array_equal(router.predict(MODEL, X), reloaded.predict(X))

        # An overlapping writer that publishes between the router's apply
        # and its swap is what gets served, by the load this test just
        # showed the ordinary case skips.
        apply = store.apply

        def overtaken(name, verb, *args, **kwargs):
            applied = apply(name, verb, *args, **kwargs)
            apply(name, "refit", 0.25)
            return applied

        monkeypatch.setattr(store, "apply", overtaken)
        assert router.refit(MODEL, 4.0)["new_revision"] == 4
        served = router._entry(MODEL).active.service.engine.model
        assert served.lam == store.load(MODEL).lam == 0.25
    finally:
        router.close()


# ------------------------------------------------------------------- daemon
def test_cli_daemon_boots_serves_and_drains(store, fitted, tmp_path):
    """`repro serve` (no mode flag) boots the daemon, writes the bound
    address into repro_serve.json, answers predictions, and exits 0 on
    SIGTERM."""
    X, _, clf = fitted
    json_path = tmp_path / "repro_serve.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), os.pardir, "src"),
         env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--store", store.root, "--model", MODEL, "--port", "0",
         "--json", str(json_path)],
        env=env, cwd=str(tmp_path),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        url = None
        deadline = time.time() + 60
        while time.time() < deadline and url is None:
            if proc.poll() is not None:
                out, err = proc.communicate()
                pytest.fail(f"daemon exited early ({proc.returncode}):\n"
                            f"{out}\n{err}")
            if json_path.exists():
                try:
                    url = json.load(open(json_path))["result"]["url"]
                except (ValueError, KeyError):
                    url = None  # torn read during the atomic replace
            time.sleep(0.1)
        assert url, "repro_serve.json never published the bound address"
        status, body, _ = _post(f"{url}/v1/predict",
                                {"inputs": X[:4].tolist()})
        assert status == 200
        assert np.array_equal(np.asarray(body["predictions"]),
                              clf.predict(X[:4]))
    finally:
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, f"non-zero exit:\n{out}\n{err}"
