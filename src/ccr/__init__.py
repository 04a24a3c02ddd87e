"""Coordination-free replicated data types driven by operational
transformation: every site applies its edits immediately and exchanges
cumulative patches; transformation on receipt makes all sites converge
without locks, central sequencers, or rollback."""

from .core import (
    ApplyError,
    CcrError,
    ComposeError,
    InconsistencyError,
    IntentError,
    OpId,
    Operation,
    Patch,
    TransformResult,
    WireError,
    apply_patch,
    compose,
    confluent_rep,
    is_identity,
    transform_patch,
)
from .replicas import replica_type

__all__ = [
    "ApplyError",
    "CcrError",
    "ComposeError",
    "InconsistencyError",
    "IntentError",
    "OpId",
    "Operation",
    "Patch",
    "TransformResult",
    "WireError",
    "apply_patch",
    "compose",
    "confluent_rep",
    "is_identity",
    "transform_patch",
    "replica_type",
]
