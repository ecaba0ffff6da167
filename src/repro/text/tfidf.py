"""A tf*idf vectoriser over tag multisets.

The paper cites Salton & Buckley's term weighting as one of the
summarisation options for group tag signatures (Section 2.1.2).  The
vectoriser below treats each tagging-action group's tag multiset as a
document, builds the vocabulary on ``fit``, and produces dense numpy
vectors with the classic ``tf * log((1 + N) / (1 + df)) + 1`` smoothed
idf weighting followed by optional L2 normalisation.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.text.tokenize import normalize_tags

__all__ = ["TfIdfVectorizer"]


class TfIdfVectorizer:
    """Fit/transform tf*idf vectors for tag documents.

    Parameters
    ----------
    max_features:
        Keep only the ``max_features`` most frequent tags (by document
        frequency); ``None`` keeps everything.
    sublinear_tf:
        Use ``1 + log(tf)`` instead of raw term frequency.
    normalize:
        L2-normalise the output vectors (recommended when the vectors
        feed cosine-similarity comparisons, which is the TagDM default).
    lowercase:
        Run tag normalisation before counting.
    """

    def __init__(
        self,
        max_features: Optional[int] = None,
        sublinear_tf: bool = True,
        normalize: bool = True,
        lowercase: bool = True,
    ) -> None:
        if max_features is not None and max_features <= 0:
            raise ValueError("max_features must be positive or None")
        self.max_features = max_features
        self.sublinear_tf = sublinear_tf
        self.normalize = normalize
        self.lowercase = lowercase
        self.vocabulary_: Dict[str, int] = {}
        self.idf_: Optional[np.ndarray] = None
        self._n_documents = 0

    # ------------------------------------------------------------------
    def _prepare(self, document: Iterable[str]) -> List[str]:
        tokens = list(document)
        if self.lowercase:
            tokens = normalize_tags(tokens)
        else:
            tokens = [str(token) for token in tokens]
        return tokens

    @property
    def n_features(self) -> int:
        """Dimensionality of the fitted vector space."""
        return len(self.vocabulary_)

    def fit(self, documents: Sequence[Iterable[str]]) -> "TfIdfVectorizer":
        """Learn the vocabulary and idf weights from tag documents."""
        if not documents:
            raise ValueError("cannot fit a TfIdfVectorizer on zero documents")
        document_frequency: Counter = Counter()
        prepared = [self._prepare(document) for document in documents]
        for tokens in prepared:
            document_frequency.update(set(tokens))

        ranked = sorted(
            document_frequency.items(), key=lambda pair: (-pair[1], pair[0])
        )
        if self.max_features is not None:
            ranked = ranked[: self.max_features]
        self.vocabulary_ = {token: index for index, (token, _) in enumerate(ranked)}

        self._n_documents = len(prepared)
        df = np.array(
            [document_frequency[token] for token in self.vocabulary_], dtype=float
        )
        self.idf_ = np.log((1.0 + self._n_documents) / (1.0 + df)) + 1.0
        return self

    def counts(self, documents: Sequence[Iterable[str]]) -> np.ndarray:
        """Raw in-vocabulary term counts as a dense ``(n, n_features)`` matrix."""
        if self.idf_ is None:
            raise RuntimeError("TfIdfVectorizer must be fitted before transform")
        matrix = np.zeros((len(documents), self.n_features), dtype=float)
        for row, document in enumerate(documents):
            for token in self._prepare(document):
                column = self.vocabulary_.get(token)
                if column is not None:
                    matrix[row, column] += 1.0
        return matrix

    def weigh(self, counts: np.ndarray) -> np.ndarray:
        """Turn an ``(n, n_features)`` count matrix into tf*idf rows.

        The only weighting code path: :meth:`transform` runs it on
        freshly counted documents, and callers that maintain counts
        themselves (incremental signature upkeep) run it on theirs, so
        both produce the same bytes for the same counts.
        """
        if self.idf_ is None:
            raise RuntimeError("TfIdfVectorizer must be fitted before transform")
        counts = np.asarray(counts, dtype=float)
        matrix = np.zeros(counts.shape, dtype=float)
        present = counts > 0
        hits = counts[present]
        tf = 1.0 + np.log(hits) if self.sublinear_tf else hits
        matrix[present] = tf * np.broadcast_to(self.idf_, counts.shape)[present]
        if self.normalize:
            norms = np.linalg.norm(matrix, axis=1, keepdims=True)
            np.divide(matrix, norms, out=matrix, where=norms > 0)
        return matrix

    def transform(self, documents: Sequence[Iterable[str]]) -> np.ndarray:
        """Transform tag documents into a dense ``(n, n_features)`` matrix."""
        return self.weigh(self.counts(documents))

    def fit_transform(self, documents: Sequence[Iterable[str]]) -> np.ndarray:
        """Fit the vocabulary and return the transformed matrix."""
        return self.fit(documents).transform(documents)

    def feature_names(self) -> List[str]:
        """Return the vocabulary in column order."""
        ordered = sorted(self.vocabulary_.items(), key=lambda pair: pair[1])
        return [token for token, _ in ordered]
