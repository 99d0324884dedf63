"""Cross-cultural emoji semantics toolkit.

Pipeline: ingest posts -> tokenize -> train CBOW embeddings (R runs per
corpus) -> project lexicon category vectors -> correlation analytics ->
report (CSV + SVG).
"""

__version__ = "0.6.0"

from .analytics import (
    CorrelationReport,
    UndefinedCorrelationError,
    build_report,
    category_scc,
    country_similarity_matrix,
    culture_triples,
    frequency_analysis,
    icon_scc,
    pair_table,
    pearson,
    spearman,
)
from .corpus import (
    CorpusHandle,
    FilterConfig,
    PostRecord,
    TokenStream,
    ingest_corpus,
    normalize_text,
    tokenize,
)
from .embedding import (
    EmbeddingModel,
    TrainParams,
    Vocabulary,
    build_vocabulary,
    encode_streams,
    load_model,
    neighbors,
    save_model,
    train_cbow,
    train_run_set,
)
from .inventory import (
    EmojiInventory,
    FrequencyTable,
    SharedEmojiSet,
    count_frequencies,
    load_default_inventory,
    load_inventory,
    shared_set,
)
from .lexicon import (
    expand_patterns,
    parse_lexicon,
    shared_schema,
)
from .projection import (
    SimilarityTensor,
    build_tensor,
    category_vector,
    gram_schmidt,
)

__all__ = [name for name in dir() if not name.startswith("_")]
