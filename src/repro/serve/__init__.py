"""repro.serve — analysis-as-a-service front end.

Turns one-shot CLI analyses into a long-lived concurrent service:
``repro serve`` accepts PAG-plus-pipeline requests over HTTP/JSON,
validates them with ``PerFlowGraph.check()``, executes them on a
bounded worker pool (thread or process backend), collapses concurrent
identical requests into one execution (single-flight), and shares the
content-addressed result cache across every client.  See
``docs/SERVING.md``.
"""

from repro.serve.pipelines import PIPELINES, build_graph
from repro.serve.protocol import (
    MAX_BODY_BYTES,
    AnalyzeRequest,
    ProtocolError,
    parse_analyze_request,
)
from repro.serve.queue import AdmissionController
from repro.serve.server import ReproServer, ServerConfig
from repro.serve.singleflight import SingleFlight

__all__ = [
    "AdmissionController",
    "AnalyzeRequest",
    "MAX_BODY_BYTES",
    "PIPELINES",
    "ProtocolError",
    "ReproServer",
    "ServerConfig",
    "SingleFlight",
    "build_graph",
    "parse_analyze_request",
]
