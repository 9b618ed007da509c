"""Knowledge-backed reading tools: prepositional-phrase attachment
disambiguation, ternary relation extraction from verb attachments, and
compound-noun relation mining."""

from .features import (DEFAULT_FAMILIES, FAMILIES, NOUN, VERB, FeatureConfig,
                       PPInstance, expand_with_synonyms, extract_features,
                       extractor, parse_feature_name, read_corpus)
from .kb import KnowledgeBase, load_kb, load_kb_dir
from .model import (AttachmentModel, TrainConfig, classify, classify_instances,
                    classify_many, expected_log_likelihood, gradient, load_model,
                    save_model, train_em, train_supervised)
from .tsv import FormatError

__all__ = [
    "AttachmentModel", "DEFAULT_FAMILIES", "FAMILIES", "FeatureConfig",
    "FormatError", "KnowledgeBase", "NOUN", "PPInstance", "TrainConfig",
    "VERB", "classify", "classify_instances", "classify_many",
    "expand_with_synonyms", "expected_log_likelihood", "extract_features", "extractor",
    "gradient", "load_kb", "load_kb_dir", "load_model", "parse_feature_name",
    "read_corpus", "save_model", "train_em", "train_supervised",
]
