"""Live ``/metrics`` + ``/healthz`` endpoint over ``http.server``.

Exports used to be write-at-exit only (``--metrics-out``): a long
simulate run was a black box until it finished.
:class:`MetricsEndpoint` serves the same Prometheus text exposition
*live* from a daemon thread, so ``curl :9464/metrics`` mid-run answers
"how far along is it, what is aborting, and why" — stdlib only, like
everything else in ``repro.obs``.

Routes
------
``/metrics``
    Whatever the ``render`` callable returns — for a node, its families
    rendered by :func:`repro.obs.prom.render_prometheus` from a snapshot
    of its reports (``text/plain; version=0.0.4``).
``/healthz``
    A small JSON liveness document: ``{"status": "ok", ...}`` merged
    with whatever the ``health`` callable reports (epoch progress,
    scheme, ...).

The server binds lazily on :meth:`start` (port ``0`` picks an ephemeral
port — tests use this) and serves each request on its own thread
(``ThreadingHTTPServer``).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Mapping

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class MetricsEndpoint:
    """Background HTTP server exposing a rendered exposition.

    Use as a context manager or call :meth:`start`/:meth:`stop`;
    :attr:`port` holds the bound port after ``start`` (useful with
    ``port=0``).  ``stop`` is idempotent and joins the serving thread.
    """

    def __init__(
        self,
        render: Callable[[], str],
        *,
        health: Callable[[], Mapping[str, Any]] | None = None,
        host: str = "127.0.0.1",
        port: int = 9464,
    ) -> None:
        self.render = render
        self.health = health
        self.host = host
        self.port = port
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "MetricsEndpoint":
        """Bind and serve on a daemon thread; returns self."""
        if self._server is not None:
            return self
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                endpoint._handle(self)

            def log_message(self, fmt: str, *args: Any) -> None:
                # Scrapes must not spam the run's stderr.
                pass

        self._server = ThreadingHTTPServer((self.host, self.port), Handler)
        self._server.daemon_threads = True
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-metrics-endpoint",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and join the serving thread (idempotent)."""
        server, thread = self._server, self._thread
        self._server = None
        self._thread = None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsEndpoint":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    @property
    def url(self) -> str:
        """Base URL of the bound server."""
        return f"http://{self.host}:{self.port}"

    # -- request handling --------------------------------------------------

    def _handle(self, request: BaseHTTPRequestHandler) -> None:
        path = request.path.split("?", 1)[0]
        if path == "/metrics":
            try:
                body = self.render().encode()
            except Exception as exc:  # pragma: no cover - defensive
                self._respond(
                    request, 500, f"render failed: {exc}\n".encode(),
                    "text/plain; charset=utf-8",
                )
                return
            self._respond(request, 200, body, CONTENT_TYPE)
        elif path == "/healthz":
            payload: dict[str, Any] = {"status": "ok"}
            if self.health is not None:
                try:
                    payload.update(self.health())
                except Exception as exc:  # pragma: no cover - defensive
                    payload = {"status": "degraded", "error": str(exc)}
            body = (json.dumps(payload, sort_keys=True) + "\n").encode()
            self._respond(request, 200, body, "application/json")
        else:
            self._respond(
                request, 404, b"not found\n", "text/plain; charset=utf-8"
            )

    @staticmethod
    def _respond(
        request: BaseHTTPRequestHandler,
        status: int,
        body: bytes,
        content_type: str,
    ) -> None:
        request.send_response(status)
        request.send_header("Content-Type", content_type)
        request.send_header("Content-Length", str(len(body)))
        request.end_headers()
        request.wfile.write(body)
