"""Iterative co-training of block-diagonal bilinear KG embeddings and
OWL2 object-property axioms, with axiom-guided completion of sparse entities.

The modules are the API: import from `iterkg.kg`, `iterkg.embedding`,
`iterkg.axioms`, `iterkg.injection`, `iterkg.evaluation`, `iterkg.pipeline`
and the others; the package root re-exports nothing."""

__version__ = "0.1.0"
