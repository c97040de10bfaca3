"""Similarity-graph construction substrate: representation models x
similarity measures (paper Sec. 4 / Figure 6), graph factory and
normalisation."""
from .build import FAMILIES, build_dataset_graphs, minmax
from .graph_model import GRAPH_MEASURES, GRAPH_MODELS, graph_edges
from .ngrams import char_ngrams, entity_text, normalize, token_ngrams, tokens
from .semantic import SEMANTIC_MEASURES, SEMANTIC_MODELS, semantic_edges
from .strings import (
    CHAR_MEASURES,
    SCHEMA_BASED_MEASURES,
    TOKEN_MEASURES,
    jaro,
    schema_based_batch,
)
from .vectors import VECTOR_MEASURES, VECTOR_MODELS, dense_vector_edges

__all__ = [
    "CHAR_MEASURES",
    "FAMILIES",
    "GRAPH_MEASURES",
    "GRAPH_MODELS",
    "SCHEMA_BASED_MEASURES",
    "SEMANTIC_MEASURES",
    "SEMANTIC_MODELS",
    "TOKEN_MEASURES",
    "VECTOR_MEASURES",
    "VECTOR_MODELS",
    "build_dataset_graphs",
    "char_ngrams",
    "dense_vector_edges",
    "entity_text",
    "graph_edges",
    "jaro",
    "minmax",
    "normalize",
    "schema_based_batch",
    "semantic_edges",
    "token_ngrams",
    "tokens",
]
