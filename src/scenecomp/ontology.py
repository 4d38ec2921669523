"""Bipartite room-concept / object-class ontology and derived class affinity.

The ontology is environment-independent: rows are abstract room concepts,
columns object classes, and an entry marks "this class is expected to be
located in this kind of room". The canonical matrix is 0/1 (as produced by
language-model queries); fractional entries are allowed for smoothed
variants.
"""
from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
import tempfile
import time
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .catalog import ClassCatalog
from .errors import (
    CatalogMismatchError,
    EndpointError,
    NonNumericCellError,
    OntologyParseError,
    OutOfRangeError,
    UnreadableInputError,
    is_json_int,
    is_json_number,
    read_json_object,
)

logger = logging.getLogger(__name__)

AFFINITY_EPS = 1e-6


@dataclass(frozen=True)
class Ontology:
    room_concepts: tuple[str, ...]
    object_classes: tuple[str, ...]
    biadjacency: np.ndarray  # [m, n], entries in [0, 1]

    def __post_init__(self):
        m, n = len(self.room_concepts), len(self.object_classes)
        if self.biadjacency.shape != (m, n):
            raise ValueError(
                f"biadjacency shape {self.biadjacency.shape} != ({m}, {n})"
            )
        if not np.all((self.biadjacency >= 0) & (self.biadjacency <= 1)):
            raise OutOfRangeError("biadjacency entries must lie in [0, 1]")

    def check_catalog(self, catalog: ClassCatalog) -> None:
        if tuple(self.object_classes) != tuple(catalog.labels):
            raise CatalogMismatchError(
                "ontology class list does not match the active catalog"
            )


def class_affinity(o: Ontology) -> np.ndarray:
    """The classes x classes co-location prior: row-normalized co-occurrence
    of classes over room concepts.

    K = Omega^T Omega counts shared rooms; a small diagonal regularizer
    keeps rows of classes that appear in no room stochastic.
    """
    omega = np.asarray(o.biadjacency, dtype=np.float64)
    k = omega.T @ omega
    k = k + AFFINITY_EPS * np.eye(k.shape[0])
    return k / k.sum(axis=1, keepdims=True)


# --- CSV round-trip -------------------------------------------------------


def save_ontology(o: Ontology, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["room_concept"] + list(o.object_classes))
        for j, room in enumerate(o.room_concepts):
            w.writerow([room] + [repr(float(v)) for v in o.biadjacency[j]])


def load_ontology(path, catalog: ClassCatalog | None = None) -> Ontology:
    """The ontology in the CSV file at path: a header of `room_concept` and the
    classes, then one row of values in [0, 1] per room concept. Any other file
    raises a SceneCompError naming the file (and the line, for a bad row or cell)."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            reader = csv.reader(f)
            rows = [(reader.line_num, row) for row in reader if row]
    except (UnicodeDecodeError, csv.Error) as e:
        raise OntologyParseError(f"unreadable ontology CSV {path}: {e}") from e
    if len(rows) < 2 or len(rows[0][1]) < 2:
        raise OntologyParseError(f"not an ontology CSV of a header and room concept rows: {path}")
    classes = tuple(rows[0][1][1:])
    rooms, values = [], []
    for line, (room, *cells) in rows[1:]:
        if len(cells) != len(classes):
            raise OntologyParseError(
                f"ontology CSV {path}, line {line}: room concept {room!r} needs one value per "
                f"class ({len(classes)}), not {len(cells)}"
            )
        rooms.append(room)
        where = f"ontology CSV {path}, line {line}: room concept {room!r}"
        for cell in cells:
            try:
                values.append(float(cell))
            except ValueError:
                raise NonNumericCellError(f"{where}: non-numeric cell {cell!r}") from None
            if not 0.0 <= values[-1] <= 1.0:
                raise OutOfRangeError(f"{where}: entry {values[-1]} outside [0, 1]")
    o = Ontology(tuple(rooms), classes, np.array(values).reshape(len(rooms), len(classes)))
    if catalog is not None:
        o.check_catalog(catalog)
    return o


def default_ontology() -> Ontology:
    """The frozen ontology shipped with the package (tests run offline)."""
    ref = resources.files("scenecomp").joinpath("assets/default_ontology.csv")
    with resources.as_file(ref) as path:
        return load_ontology(path)


# --- language-model generation --------------------------------------------

DEFAULT_PROMPT_TEMPLATE = (
    "List the object types from the following catalog that you would expect "
    "to find in a {room}. Reply with a comma-separated list of catalog names "
    "only.\nCatalog: {classes}"
)


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    model: str
    temperature: float = 0.0
    prompt_template: str = DEFAULT_PROMPT_TEMPLATE
    max_retries: int = 3
    api_key: str | None = None

    @staticmethod
    def from_file(path) -> "EndpointConfig":
        """The config in the JSON file at path; a key it does not know, a key of another
        type, or a prompt_template that does not format room and classes, raises
        UnreadableInputError naming the file."""
        d = read_json_object(path)
        known = fields(EndpointConfig)
        unknown = sorted(set(d) - {f.name for f in known})
        if unknown:
            raise UnreadableInputError(f"endpoint config {path}: unknown keys {unknown}")
        v = {f.name: d.get(f.name, f.default) for f in known}
        for key, ok, what in (
            ("base_url", isinstance(v["base_url"], str), "a string"),
            ("model", isinstance(v["model"], str), "a string"),
            ("temperature", is_json_number(v["temperature"]), "a number"),
            ("prompt_template", isinstance(v["prompt_template"], str), "a string"),
            ("max_retries", is_json_int(v["max_retries"]), "an int"),
            ("api_key", isinstance(v["api_key"], (str, type(None))), "a string or null"),
        ):
            if not ok:
                raise UnreadableInputError(f"endpoint config {path}: {key} must be {what}")
        try:
            v["prompt_template"].format(room="", classes="")
        except (AttributeError, IndexError, KeyError, ValueError) as e:
            raise UnreadableInputError(
                f"endpoint config {path}: prompt_template does not format with room and classes: {e!r}"
            ) from e
        return EndpointConfig(**{**v, "temperature": float(v["temperature"])})


def _cache_path(cache_dir: Path, prompt: str) -> Path:
    digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
    return cache_dir / f"{digest}.json"


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _call_endpoint(cfg: EndpointConfig, prompt: str) -> str:
    import http.client
    import urllib.request

    headers = {"Content-Type": "application/json"}
    if cfg.api_key:
        headers["Authorization"] = f"Bearer {cfg.api_key}"
    payload = {
        "model": cfg.model,
        "temperature": cfg.temperature,
        "messages": [{"role": "user", "content": prompt}],
    }
    data = json.dumps(payload).encode("utf-8")
    attempts = max(1, cfg.max_retries)
    delay = 1.0
    last_err = None
    for attempt in range(attempts):
        if attempt:
            time.sleep(delay)
            delay *= 2
        # OSError covers urllib's URLError and HTTPError and timeouts;
        # ValueError a malformed URL or body; the rest a body of the wrong form
        try:
            request = urllib.request.Request(cfg.base_url, data=data, headers=headers, method="POST")
            with urllib.request.urlopen(request, timeout=60) as resp:
                body = json.loads(resp.read())
            return body["choices"][0]["message"]["content"]
        except (OSError, http.client.HTTPException, ValueError, KeyError, IndexError,
                TypeError) as e:
            last_err = e
    raise EndpointError(f"endpoint failed after {attempts} attempts: {last_err}")


def parse_class_response(text: str, classes: tuple[str, ...]) -> set[str]:
    """Extract catalog class names from a free-form response."""
    lookup = {c.lower(): c for c in classes}
    found = set()
    for token in text.replace("\n", ",").split(","):
        name = token.strip().strip(".").strip().lower().replace(" ", "_")
        if not name:
            continue
        if name in lookup:
            found.add(lookup[name])
        else:
            logger.warning("response named %r, not in catalog; ignored", token.strip())
    return found


def query_llm_ontology(
    cfg: EndpointConfig,
    room_concepts: tuple[str, ...],
    catalog: ClassCatalog,
    cache_dir=None,
) -> Ontology:
    """One query per room concept; raw responses cached for offline replay.

    On a cache hit the network is never consulted, so a populated cache
    directory makes this fully deterministic. The cache directory is
    cache_dir if given, else $CECI_CACHE_DIR, else ./ontology_cache.
    """
    if cache_dir is None:
        cache_dir = os.environ.get("CECI_CACHE_DIR", "ontology_cache")
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    classes = tuple(catalog.labels)
    omega = np.zeros((len(room_concepts), len(classes)))
    for j, room in enumerate(room_concepts):
        prompt = cfg.prompt_template.format(room=room, classes=", ".join(classes))
        cpath = _cache_path(cache_dir, prompt)
        if cpath.exists():
            text = json.loads(cpath.read_text(encoding="utf-8"))["response"]
        else:
            text = _call_endpoint(cfg, prompt)
            _atomic_write(cpath, json.dumps({"prompt": prompt, "response": text}))
        try:
            named = parse_class_response(text, classes)
        except Exception as e:  # keep other rows; mark this one incomplete
            logger.error("could not parse response for %r: %s", room, e)
            continue
        if not named:
            logger.warning("no catalog classes recognized for room %r", room)
        for c in named:
            omega[j, classes.index(c)] = 1.0
    return Ontology(tuple(room_concepts), classes, omega)
