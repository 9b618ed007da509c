"""Knowledge-backed reading tools: prepositional-phrase attachment
disambiguation, ternary relation extraction from verb attachments, and
compound-noun relation mining."""

from .features import (DEFAULT_FAMILIES, FAMILIES, NOUN, VERB, FeatureConfig,
                       PPInstance, expand_with_synonyms, extract_features,
                       parse_feature_name, read_corpus)
from .kb import KnowledgeBase, VerbRoleEntry, load_kb, load_kb_dir
from .model import (AttachmentModel, TrainConfig, classify, classify_many,
                    expected_log_likelihood, gradient, load_model,
                    predict_proba, save_model, train_em, train_supervised)
from .tsv import FormatError

__all__ = [
    "AttachmentModel", "DEFAULT_FAMILIES", "FAMILIES", "FeatureConfig",
    "FormatError", "KnowledgeBase", "NOUN", "PPInstance", "TrainConfig",
    "VERB", "VerbRoleEntry", "classify", "classify_many",
    "expand_with_synonyms", "expected_log_likelihood", "extract_features",
    "gradient", "load_kb", "load_kb_dir", "load_model", "parse_feature_name",
    "predict_proba", "read_corpus", "save_model", "train_em",
    "train_supervised",
]
