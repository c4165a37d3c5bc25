"""Exception hierarchy shared across the package."""

from __future__ import annotations


class SlimRagError(Exception):
    """Base class for all package errors."""


class MalformedRecordError(SlimRagError):
    """A corpus input record could not be parsed or violates the format."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class DuplicateDocumentError(SlimRagError):
    """The same doc_id appeared twice in one corpus input."""


class UnknownTokenizerError(SlimRagError):
    """A tokenizer id other than ``ws-punct/v1`` was named."""


class DimensionMismatchError(SlimRagError):
    """Vector operands do not share the same dimension."""


class ZeroVectorError(SlimRagError):
    """Cosine similarity is undefined for a zero vector."""


class ProviderError(SlimRagError):
    """A remote provider call failed after exhausting retries."""


class ProviderProtocolError(ProviderError):
    """A remote provider replied with an unparseable or invalid payload."""


class DuplicateChunkError(SlimRagError):
    """add_chunks received a chunk_id already present in the index."""


class ConfigMismatchError(SlimRagError):
    """Provider configuration does not match the index fingerprint."""


class SchemaVersionError(SlimRagError):
    """An index file carries an unsupported schema version."""


class IndexIntegrityError(SlimRagError):
    """An index file failed its content digest check."""
