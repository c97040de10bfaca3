"""Synthetic analogues of the paper's 10 real CCER datasets."""
from .generator import DatasetSpec, generate_pandas, profile_stats
from .registry import CATEGORY_OF, DATASET_ORDER, SPECS
from .vocab import Vocab, vocab

__all__ = [
    "CATEGORY_OF",
    "DATASET_ORDER",
    "DatasetSpec",
    "SPECS",
    "Vocab",
    "generate_pandas",
    "profile_stats",
    "vocab",
]
