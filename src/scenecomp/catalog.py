"""Ordered catalog of object class labels.

The class index used everywhere else in the package is the position of a
label in this catalog, so the order is part of every saved artifact (via
the catalog hash).
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import UnknownClassError

# Default 35-label indoor object vocabulary.
DEFAULT_LABELS = (
    "bed",
    "chair",
    "table",
    "sofa",
    "desk",
    "lamp",
    "plant",
    "tv",
    "refrigerator",
    "stove",
    "sink",
    "toilet",
    "shower",
    "bathtub",
    "mirror",
    "cabinet",
    "shelf",
    "bookshelf",
    "wardrobe",
    "dresser",
    "nightstand",
    "pillow",
    "cushion",
    "curtain",
    "picture",
    "clock",
    "microwave",
    "oven",
    "dishwasher",
    "washing_machine",
    "toaster",
    "kettle",
    "trash_can",
    "rug",
    "monitor",
)


@dataclass(frozen=True)
class ClassCatalog:
    """Immutable ordered list of class labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("catalog labels must be unique")
        if any(not lbl for lbl in self.labels):
            raise ValueError("catalog labels must be non-empty")

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownClassError(f"unknown class label: {label!r}") from None

    def label(self, index: int) -> str:
        if not 0 <= index < len(self.labels):
            raise UnknownClassError(f"class index out of range: {index}")
        return self.labels[index]

    def hash(self) -> str:
        h = hashlib.sha256("\n".join(self.labels).encode("utf-8"))
        return h.hexdigest()[:16]


def default_catalog() -> ClassCatalog:
    return ClassCatalog(DEFAULT_LABELS)
