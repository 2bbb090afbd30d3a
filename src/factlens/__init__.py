"""factlens: political-neutrality measurement for fact-checking corpora.

The library annotates articles through pluggable chat and embedding
providers, then derives three families of scores between organizations:
windowed maximum topical similarity with bootstrap confidence intervals,
top-k political-entity Jaccard overlap, and per-entity polarity with a
worst-case error bound from tag precision.
"""

from .annotation import Annotation, annotate_corpus, load_annotations, save_annotations
from .config import AnalysisConfig, ConfigError, RunConfig, load_config, serialize_config
from .corpus import Article, Corpus, IngestResult, Rejection, ingest, org_counts
from .embedding import TagEmbedding, aggregate_tag, cosine, embed_annotations, embed_sentences
from .entities import (
    AliasMap,
    EntitySet,
    WindowedJaccard,
    canonicalize,
    jaccard,
    top_k_entities,
    windowed_jaccard,
)
from .polarity import (
    OrgPolarity,
    PolarityCounts,
    PolarityResult,
    PrecisionConfig,
    entity_series,
    max_log_error,
    negativity_ratio,
    org_polarity,
    polarity_score,
)
from .providers import (
    FixtureChatProvider,
    HashedEmbeddingProvider,
    HttpChatProvider,
    HttpEmbeddingProvider,
    ProviderCallError,
    ProviderConfig,
    ProviderUnreachableError,
    SyntheticChatProvider,
)
from .similarity import (
    DatedVector,
    SimilarityResult,
    bootstrap_median_ci,
    org_vectors,
    windowed_max_similarity,
)

__version__ = "0.1.0"
