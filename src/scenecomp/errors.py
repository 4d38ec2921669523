"""Exception types shared across the package; the JSON file readers, which
turn a malformed file into one of them; and the JSON value type tests."""

import json


class SceneCompError(Exception):
    """Base class for all package errors."""


# scene graph validation
class DuplicateIdError(SceneCompError):
    pass


class DanglingEdgeError(SceneCompError):
    pass


class LayerViolationError(SceneCompError):
    pass


class MultipleParentsError(SceneCompError):
    pass


class EmptyGraphError(SceneCompError):
    pass


class UnknownRoomError(SceneCompError):
    pass


class UnknownClassError(SceneCompError):
    pass


class NegativeCountError(SceneCompError):
    pass


# rasterization / dataset
class DegenerateRoomError(SceneCompError):
    pass


class NoTruthGraphError(SceneCompError):
    pass


# ontology
class CatalogMismatchError(SceneCompError):
    pass


class NonNumericCellError(SceneCompError):
    pass


class OutOfRangeError(SceneCompError):
    pass


class EndpointError(SceneCompError):
    pass


class OntologyParseError(SceneCompError):
    pass


# numerics / model
class ShapeMismatchError(SceneCompError):
    pass


class NonFiniteError(SceneCompError):
    pass


class ConfigMismatchError(SceneCompError):
    pass


class EmptyDatasetError(SceneCompError):
    pass


class NotNormalizedError(SceneCompError):
    pass


# layout
class OutOfBoundsError(SceneCompError):
    pass


# cli / artifacts
class MissingArtifactError(SceneCompError):
    pass


class UnreadableInputError(SceneCompError):
    pass


def read_json(path):
    """The JSON document in the file at path.

    A file that is not valid UTF-8 JSON raises UnreadableInputError naming
    it; a missing file raises OSError as `open` does.
    """
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
            raise UnreadableInputError(f"unreadable JSON file {path}: {e}") from e


def read_json_object(path) -> dict:
    """The JSON object in the file at path; another document raises UnreadableInputError."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise UnreadableInputError(f"{path} holds a JSON {type(doc).__name__}, not an object")
    return doc


def is_json_int(v) -> bool:
    """Whether v is an int and not a bool, which is a subclass of int."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_json_number(v) -> bool:
    """Whether v is an int or a float and not a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)
