"""The one operator surface, over every deployment shape.

Every shape answers its operator endpoints through
:func:`repro.ops.surface.operator_response`: the proxy and
``ProxyDeployment`` serve ``/metrics`` and ``/traces``; a cluster and a
regional deployment add ``/metrics/<member>``, ``/ops/events[.ndjson]``
and their status page.  Each endpoint answers 200 with its content type
and a body that parses, leaves no trace, and any path a shape does not
serve still reaches that shape's own routing.
"""

import ast
import functools
import json
import pathlib

import pytest

from repro.cluster import ClusterDeployment
from repro.core.deployment import ProxyDeployment
from repro.core.pipeline import ProxyServices
from repro.core.proxy import MSiteProxy
from repro.core.spec import AdaptationSpec
from repro.net.messages import Request, Response
from repro.observability.exposition import (
    PROMETHEUS_CONTENT_TYPE,
    parse_prometheus,
)
from repro.ops import (
    NDJSON_CONTENT_TYPE,
    SSE_CONTENT_TYPE,
    parse_ndjson,
    parse_sse,
)
from repro.regions.deployment import RegionalDeployment

HOST = "origin.example"
JSON_CONTENT_TYPE = "application/json; charset=utf-8"

#: Each endpoint's content type and a parser its body must satisfy.
ENDPOINTS = {
    "metrics": (PROMETHEUS_CONTENT_TYPE, parse_prometheus),
    "metrics/w0": (PROMETHEUS_CONTENT_TYPE, parse_prometheus),
    "metrics/east": (PROMETHEUS_CONTENT_TYPE, parse_prometheus),
    "traces": (JSON_CONTENT_TYPE, json.loads),
    "ops/events": (JSON_CONTENT_TYPE, json.loads),
    "ops/events.ndjson": (NDJSON_CONTENT_TYPE, parse_ndjson),
    "ops/events?stream=true": (SSE_CONTENT_TYPE, parse_sse),
    "cluster": (JSON_CONTENT_TYPE, json.loads),
    "regions": (JSON_CONTENT_TYPE, json.loads),
}

_FLEET = ("traces", "ops/events", "ops/events.ndjson",
          "ops/events?stream=true")

#: What each shape serves; every other path of ``ENDPOINTS`` routes.
SERVED = {
    "proxy": ("metrics", "traces"),
    "deployment": ("metrics", "traces"),
    "cluster": ("metrics", "metrics/w0", *_FLEET, "cluster"),
    "regions": ("metrics", "metrics/east", *_FLEET, "regions"),
}

#: The 404 each member-serving shape answers for an unknown member.
MISSING_MEMBER = {
    "cluster": "no worker 'metrics/w9'",
    "regions": "no region 'w9'",
}


class Origin:
    def handle(self, request):
        return Response.html(
            "<html><head><title>Origin</title></head>"
            "<body><p>content</p></body></html>"
        )


class EchoApp:
    def __init__(self, services):
        self.services = services

    def forget_adapted(self):
        pass

    def handle(self, request):
        return Response.text(f"echo:{request.url.path}")


def _is_page(response):
    """An adapted page: no operator endpoint answers HTML."""
    return response.headers.get("Content-Type").startswith("text/html")


def _spec():
    return AdaptationSpec(site="S", origin_host=HOST, page_path="/")


def _build(shape, tmp_path):
    """The shape's app, its front-end trace recorder, and a predicate
    saying whether a response came from the shape's own routing."""
    if shape == "proxy":
        services = ProxyServices(origins={HOST: Origin()})
        return (
            MSiteProxy(_spec(), services),
            services.observability.traces,
            _is_page,
        )
    if shape == "deployment":
        services = ProxyServices(origins={HOST: Origin()})
        deployment = ProxyDeployment(services)
        deployment.add_page("index", _spec())
        return (
            deployment,
            services.observability.traces,
            lambda response: _is_page(response)
            or b"no adapted page" in response.body,
        )
    if shape == "cluster":
        cluster = ClusterDeployment(
            origins={}, workers=2, site="echo", make_app=EchoApp
        )
        return (
            cluster,
            cluster.observability.traces,
            lambda response: response.headers.get("X-MSite-Worker"),
        )
    regional = RegionalDeployment(
        regions=("east", "west"), snapshot_root=str(tmp_path),
        site="echo", make_app=EchoApp, workers_per_region=1,
    )
    return (
        regional,
        regional.observability.traces,
        lambda response: response.headers.get("X-MSite-Region"),
    )


@pytest.fixture()
def shape_of(tmp_path):
    """``shape_of(name)`` builds that shape, closed after the test."""
    built = []

    def build(shape):
        app, recorder, routed = _build(shape, tmp_path)
        built.append(app)
        return app, recorder, routed

    yield build
    for app in built:
        close = getattr(app, "close", None)
        if close is not None:
            close()


def _get(app, path):
    return app.handle(Request.get(f"http://fleet.local/{path}"))


@pytest.mark.parametrize(
    "shape,path",
    [(shape, path) for shape, paths in SERVED.items() for path in paths],
)
def test_each_shape_serves_its_endpoints_untraced(shape_of, shape, path):
    app, recorder, routed = shape_of(shape)
    assert routed(_get(app, ""))  # some history to expose
    traced = len(recorder.recent())
    response = _get(app, path)
    content_type, parse = ENDPOINTS[path]
    assert response.status == 200
    assert response.headers.get("Content-Type") == content_type
    parse(response.body.decode("utf-8"))
    assert not routed(response)
    assert len(recorder.recent()) == traced  # operator requests: no trace


@pytest.mark.parametrize("shape", sorted(MISSING_MEMBER))
def test_an_unknown_member_is_404(shape_of, shape):
    app, __, __ = shape_of(shape)
    response = _get(app, "metrics/w9")
    assert response.status == 404
    assert response.text_body == MISSING_MEMBER[shape]


@pytest.mark.parametrize(
    "shape,path",
    [
        (shape, path)
        for shape, paths in SERVED.items()
        for path in [*ENDPOINTS, "why"]
        if path not in paths
        # a member-serving shape answers any other member 404
        and not (path.startswith("metrics/") and shape in MISSING_MEMBER)
    ],
)
def test_a_path_the_shape_does_not_serve_still_routes(shape_of, shape, path):
    app, __, routed = shape_of(shape)
    assert routed(_get(app, path))


def test_cluster_operator_requests_are_not_counted(shape_of):
    cluster, __, __ = shape_of("cluster")
    _get(cluster, "")
    for path in SERVED["cluster"]:
        _get(cluster, path)
    assert cluster.registry.counter(
        "msite_cluster_requests_total"
    ).value == 1


# -- structure: the surface is the one place that answers ------------------

REPO = pathlib.Path(__file__).resolve().parents[2]
SURFACE = pathlib.Path("src/repro/ops/surface.py")
#: The responders only the surface calls, and the one other caller each
#: may have: ``Observability.render_metrics`` (no HTTP involved).
RESPONDERS = {"render_prometheus", "dump_json", "ops_events_response"}
ALLOWED = {(pathlib.Path("src/repro/observability/hub.py"), "render_metrics")}
OPERATOR_PATHS = {"metrics", "traces", "cluster", "regions", "ops/events"}
RETIRED = {
    "mount_observability", "metrics_response", "traces_response",
    "region_rollup",
}


@functools.cache
def _functions():
    """Every function under ``src/``, with its repo-relative path."""
    return [
        (path.relative_to(REPO), node)
        for path in sorted((REPO / "src").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _called_name(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def test_only_the_surface_calls_the_responders():
    strays = [
        f"{path}:{call.lineno} {node.name} calls {_called_name(call)}"
        for path, node in _functions()
        if path != SURFACE and (path, node.name) not in ALLOWED
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and _called_name(call) in RESPONDERS
    ]
    assert strays == []


def test_no_handle_method_holds_an_operator_path():
    literals = [
        f"{path}:{constant.lineno} {constant.value!r}"
        for path, node in _functions()
        if node.name == "handle"
        for constant in ast.walk(node)
        if isinstance(constant, ast.Constant)
        and isinstance(constant.value, str)
        and (
            constant.value.strip("/") in OPERATOR_PATHS
            or constant.value.strip("/").startswith(("metrics/", "ops/"))
        )
    ]
    assert literals == []


def test_the_retired_responders_stay_deleted():
    defined = [
        f"{path}:{node.lineno} {node.name}"
        for path, node in _functions()
        if node.name in RETIRED
    ]
    assert defined == []
