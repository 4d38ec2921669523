"""Exception types shared across the package."""


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


class BadRatiosError(SceneCompError):
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
