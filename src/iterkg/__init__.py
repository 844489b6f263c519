"""Iterative co-training of block-diagonal bilinear KG embeddings and
OWL2 object-property axioms, with axiom-guided completion of sparse entities."""

from .blocks import BlockDiagMatrix
from .kg import (
    KnowledgeGraph, ParseError, SparsityTable, Triple, Vocabulary, VocabularyError,
    entity_sparsity, load_dataset, load_splits, load_triples, sparse_entities, sparsify_eval_split,
)
from .embedding import (
    EmbeddingModel, LabeledTriple, TrainConfig, TripleBatch, adam_update,
    compute_loss_and_gradients, init_model, sample_negatives, train_epoch,
)
from .axioms import (
    Axiom, AxiomType, Pool, PoolConfig, PooledAxiom, ScoredAxiom, ScoredPool, count_support_and_head,
    generate_pool, induce_axioms, min_sample_size, normalize_scores, score_axiom_raw,
)
from .injection import (
    Grounding, InferredTriple, Injection, InjectionConfig, ground_axiom, inject_triples,
    solve_head_truth, truth_value,
)
from .evaluation import (
    MetricsReport, head_coverage, link_prediction, rank_entity_side, summarize_rules,
)
from .pipeline import (
    CheckpointError, IterationRecord, PipelineConfig, PipelineResult,
    load_checkpoint, run_iterations, save_checkpoint,
)

__version__ = "0.1.0"
