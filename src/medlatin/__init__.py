"""medlatin: training, evaluation and error analysis for Medieval Latin
lemmatization, part-of-speech tagging and morphological features.

The package is organized one module per pipeline stage:

    conllu      CoNLL-U data model, parser, serializer
    registry    dataset catalog, statistics, cross-validation splits
    normalize   orthographic rewrite rules (predicted -> gold conventions)
    tagger      averaged-perceptron UPOS / UFeats tagger with staged training
    lemmatizer  edit-script lemmatizer keyed on (form, UPOS)
    evaluation  per-field accuracy over aligned documents
    analysis    lemma confusion mining, POS confusion, genre error shares
    scenarios   staged-training scenario planning / execution / comparison
    cli         the `medlatin` command-line entry point
"""

__version__ = "0.1.0"

from .conllu import Document, Sentence, Token, parse_conllu, serialize
from .errors import MedlatinError

__all__ = [
    "Document", "Sentence", "Token", "MedlatinError",
    "parse_conllu", "serialize", "__version__",
]
