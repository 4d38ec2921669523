import http.server
import json
import threading

import numpy as np
import pytest

from scenecomp.catalog import ClassCatalog
from scenecomp.errors import (
    CatalogMismatchError,
    EndpointError,
    NonNumericCellError,
    OutOfRangeError,
)
from scenecomp.ontology import (
    EndpointConfig,
    Ontology,
    class_affinity,
    default_ontology,
    load_ontology,
    parse_class_response,
    query_llm_ontology,
    save_ontology,
    _cache_path,
)


def test_load_small_csv(tmp_path):
    p = tmp_path / "o.csv"
    p.write_text("room_concept,a,b,c\nr1,1,0,1\nr2,0,1,0\n")
    o = load_ontology(p)
    assert o.room_concepts == ("r1", "r2")
    assert o.object_classes == ("a", "b", "c")
    np.testing.assert_array_equal(o.biadjacency, [[1, 0, 1], [0, 1, 0]])


def test_out_of_range_and_non_numeric(tmp_path):
    p = tmp_path / "o.csv"
    p.write_text("room_concept,a\nr1,1.5\n")
    with pytest.raises(OutOfRangeError):
        load_ontology(p)
    p.write_text("room_concept,a\nr1,zzz\n")
    with pytest.raises(NonNumericCellError):
        load_ontology(p)


def test_nan_entry_is_refused():
    # NaN fails both `< 0` and `> 1`, and the class affinity of it is all NaN
    with pytest.raises(OutOfRangeError):
        Ontology(("r",), ("a", "b"), np.array([[np.nan, 1.0]]))


def test_save_load_identity(tmp_path):
    o = Ontology(("r1", "r2"), ("a", "b"), np.array([[1.0, 0.25], [0.0, 1.0]]))
    path = tmp_path / "round.csv"
    save_ontology(o, path)
    o2 = load_ontology(path)
    assert o2.room_concepts == o.room_concepts
    assert o2.object_classes == o.object_classes
    np.testing.assert_array_equal(o2.biadjacency, o.biadjacency)


def test_catalog_mismatch(tmp_path):
    p = tmp_path / "o.csv"
    p.write_text("room_concept,a,b\nr1,1,0\n")
    with pytest.raises(CatalogMismatchError):
        load_ontology(p, ClassCatalog(("x", "y")))


def test_endpoint_config_from_file(tmp_path):
    path = tmp_path / "endpoint.json"
    doc = {"base_url": "http://127.0.0.1:9/v1", "model": "m", "temperature": 1, "max_retries": 2,
           "prompt_template": "{room}: {classes}", "api_key": None}
    path.write_text(json.dumps(doc))
    cfg = EndpointConfig.from_file(path)
    assert cfg == EndpointConfig(**doc) and type(cfg.temperature) is float
    path.write_text(json.dumps({"base_url": "http://127.0.0.1:9/v1", "model": "m"}))
    assert EndpointConfig.from_file(path) == EndpointConfig("http://127.0.0.1:9/v1", "m")


def test_affinity_identity_like():
    o = Ontology(("r1", "r2", "r3"), ("a", "b", "c"), np.eye(3))
    p = class_affinity(o).matrix
    np.testing.assert_allclose(p, np.eye(3), atol=1e-5)


def test_affinity_all_ones():
    o = Ontology(("r1", "r2"), ("a", "b", "c"), np.ones((2, 3)))
    p = class_affinity(o).matrix
    # K = 2 * ones(3x3) (+ eps I); rows are uniform
    np.testing.assert_allclose(p, np.full((3, 3), 1 / 3), atol=1e-6)


def test_affinity_ordering():
    # chair and table share every room; plant shares none with chair
    rooms = ("r1", "r2", "r3")
    classes = ("chair", "table", "plant")
    omega = np.array(
        [
            [1, 1, 0],
            [1, 1, 0],
            [0, 0, 1],
        ],
        dtype=float,
    )
    p = class_affinity(Ontology(rooms, classes, omega)).matrix
    assert p[0, 1] > p[0, 2]
    k = omega.T @ omega
    assert np.allclose(k, k.T)
    assert np.all(np.linalg.eigvalsh(k) >= -1e-12)


def test_affinity_rows_stochastic():
    o = default_ontology()
    p = class_affinity(o).matrix
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)


def test_default_ontology_shape():
    o = default_ontology()
    assert len(o.object_classes) == 35
    assert len(o.room_concepts) >= 2
    assert set(np.unique(o.biadjacency)) <= {0.0, 1.0}


def test_parse_class_response():
    classes = ("bed", "chair", "trash_can")
    found = parse_class_response("Bed, chair, spaceship, trash can", classes)
    assert found == {"bed", "chair", "trash_can"}


def test_query_uses_cache(tmp_path, monkeypatch):
    cfg = EndpointConfig(base_url="http://down.invalid/v1", model="m", max_retries=1)
    catalog = ClassCatalog(("bed", "chair"))
    rooms = ("bedroom",)
    prompt = cfg.prompt_template.format(room="bedroom", classes="bed, chair")
    cpath = _cache_path(tmp_path, prompt)
    cpath.write_text(json.dumps({"prompt": prompt, "response": "bed"}))

    # endpoint must never be consulted on a cache hit
    def boom(*a, **k):
        raise AssertionError("network touched despite cache hit")

    monkeypatch.setattr("scenecomp.ontology._call_endpoint", boom)
    o = query_llm_ontology(cfg, rooms, catalog, cache_dir=tmp_path)
    np.testing.assert_array_equal(o.biadjacency, [[1.0, 0.0]])


def test_query_endpoint_failure(tmp_path, monkeypatch):
    sleeps = []
    monkeypatch.setattr("scenecomp.ontology.time.sleep", sleeps.append)
    cfg = EndpointConfig(base_url="http://127.0.0.1:9/v1", model="m", max_retries=3)
    with pytest.raises(EndpointError):
        query_llm_ontology(cfg, ("kitchen",), ClassCatalog(("bed",)), cache_dir=tmp_path)
    # back off between attempts, never after the last one
    assert sleeps == [1.0, 2.0]


def test_query_endpoint_success(tmp_path):
    seen = []

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            seen.append((self.path, self.headers["Authorization"], body))
            reply = json.dumps({"choices": [{"message": {"content": "Bed, lamp"}}]}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(reply)))
            self.end_headers()
            self.wfile.write(reply)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat"
        cfg = EndpointConfig(base_url=url, model="m", temperature=0.5, api_key="k")
        o = query_llm_ontology(cfg, ("bedroom",), ClassCatalog(("bed", "chair", "lamp")),
                               cache_dir=tmp_path)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    np.testing.assert_array_equal(o.biadjacency, [[1.0, 0.0, 1.0]])
    (path, auth, body), = seen
    assert path == "/v1/chat" and auth == "Bearer k"
    assert body["model"] == "m" and body["temperature"] == 0.5
    assert body["messages"][0]["content"].startswith("List the object types")
    # the response was cached: a second query never calls the endpoint
    query_llm_ontology(cfg, ("bedroom",), ClassCatalog(("bed", "chair", "lamp")), cache_dir=tmp_path)
    assert len(seen) == 1
