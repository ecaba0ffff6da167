"""Topic-model backends used for group tag signatures.

The TagDM core asks one question of the text substrate: *given the tag
multiset of a tagging-action group, produce a fixed-length weight vector
over topic categories* (the group tag signature of Section 2.1.2).  The
:class:`TopicModel` interface captures exactly that.  Three backends are
provided, matching the options the paper lists:

* :class:`FrequencyTopicModel` -- the "editor-picked tags" case: every
  frequent tag is its own topic category, weights are frequencies.
* :class:`TfIdfTopicModel` -- tf*idf weights over the most discriminative
  tags.
* :class:`LdaTopicModel` -- the paper's evaluated configuration: LDA with
  ``d`` topics fitted on the whole corpus, inference per group.

A small :class:`SynonymFolder` implements the WordNet-style enhancement
the paper mentions (folding synonymous tags onto a canonical token)
without any external resource.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.text.lda import LatentDirichletAllocation
from repro.text.tfidf import TfIdfVectorizer
from repro.text.tokenize import normalize_tags

__all__ = [
    "SynonymFolder",
    "TopicModel",
    "FrequencyTopicModel",
    "TfIdfTopicModel",
    "LdaTopicModel",
    "build_topic_model",
]

# A compact built-in synonym table covering common tagging vocabulary.
DEFAULT_SYNONYMS: Dict[str, str] = {
    "sci-fi": "science-fiction",
    "scifi": "science-fiction",
    "funny": "comedy",
    "hilarious": "comedy",
    "scary": "horror",
    "frightening": "horror",
    "romantic": "romance",
    "gory": "violence",
    "violent": "violence",
    "classic-movie": "classic",
    "must-see": "favorite",
    "favourite": "favorite",
}


class SynonymFolder:
    """Fold synonymous tags onto canonical tokens.

    This is the lightweight stand-in for the WordNet enhancement in
    Section 2.1.2; callers can extend the table with domain-specific
    synonym pairs.
    """

    def __init__(self, synonyms: Optional[Mapping[str, str]] = None) -> None:
        table = dict(DEFAULT_SYNONYMS)
        if synonyms:
            table.update({str(k): str(v) for k, v in synonyms.items()})
        self._table = table

    def canonical(self, tag: str) -> str:
        """Return the canonical form of ``tag`` (identity if unmapped)."""
        return self._table.get(tag, tag)

    def fold(self, tags: Iterable[str]) -> List[str]:
        """Map every tag in ``tags`` onto its canonical form."""
        return [self.canonical(tag) for tag in tags]

    def add(self, tag: str, canonical: str) -> None:
        """Register an additional synonym pair."""
        self._table[str(tag)] = str(canonical)


class TopicModel(ABC):
    """Interface: summarise tag multisets into fixed-length weight vectors."""

    #: Human-readable backend name (used in reports and ablation benches).
    name: str = "topic-model"

    def __init__(self, synonym_folder: Optional[SynonymFolder] = None) -> None:
        self._synonyms = synonym_folder

    def _prepare(self, tags: Iterable[str]) -> List[str]:
        tokens = normalize_tags(tags)
        if self._synonyms is not None:
            tokens = self._synonyms.fold(tokens)
        return tokens

    @property
    @abstractmethod
    def n_dimensions(self) -> int:
        """Length of the produced signature vectors."""

    @abstractmethod
    def fit(self, documents: Sequence[Iterable[str]]) -> "TopicModel":
        """Fit the backend on the corpus of tag documents."""

    @abstractmethod
    def vectorize(self, tags: Iterable[str]) -> np.ndarray:
        """Produce the signature vector of one tag multiset."""

    @abstractmethod
    def dimension_labels(self) -> List[str]:
        """Human-readable label of each vector dimension."""

    def tag_counts(self, tags: Iterable[str]) -> Optional[np.ndarray]:
        """Count vector of a tag multiset, or ``None``.

        Backends whose signature is a function of per-token counts
        return them here, and :meth:`signature_from_counts` turns a
        count vector into the signature.  Counts of a multiset union
        are the sum of the parts' counts, so incremental maintenance can
        add one new tuple's counts to a group's running total instead of
        re-vectorising the group's whole tag multiset.  A backend that
        does not declare its signature a function of counts returns
        ``None`` (the default here), and callers rebuild from the tags.
        """
        return None

    def signature_from_counts(self, counts: np.ndarray) -> np.ndarray:
        """Turn a :meth:`tag_counts` vector into the signature vector."""
        raise NotImplementedError(
            f"{self.name} signatures are not a function of tag counts"
        )

    def vectorize_many(self, documents: Sequence[Iterable[str]]) -> np.ndarray:
        """Vectorise a batch of tag multisets into an ``(n, d)`` matrix.

        The base implementation loops over :meth:`vectorize`; backends
        with a cheaper batch path (the tf*idf transform) override this
        to build the whole matrix in one shot.  Results are
        identical to the per-document path either way.
        """
        if not documents:
            return np.zeros((0, self.n_dimensions))
        return np.vstack([self.vectorize(document) for document in documents])


class FrequencyTopicModel(TopicModel):
    """Frequency signature over the globally most frequent tags.

    ``T_rep(g) = {(t, freq(t))}`` restricted to the top ``n_dimensions``
    tags of the corpus, L1-normalised so groups of different sizes remain
    comparable.
    """

    name = "frequency"

    def __init__(
        self,
        n_dimensions: int = 25,
        synonym_folder: Optional[SynonymFolder] = None,
    ) -> None:
        super().__init__(synonym_folder)
        if n_dimensions <= 0:
            raise ValueError("n_dimensions must be positive")
        self._n_dimensions = n_dimensions
        self._vocabulary: Dict[str, int] = {}

    @property
    def n_dimensions(self) -> int:
        return self._n_dimensions

    def fit(self, documents: Sequence[Iterable[str]]) -> "FrequencyTopicModel":
        counts: Counter = Counter()
        for document in documents:
            counts.update(self._prepare(document))
        ranked = sorted(counts.items(), key=lambda pair: (-pair[1], pair[0]))
        top = ranked[: self._n_dimensions]
        self._vocabulary = {token: index for index, (token, _) in enumerate(top)}
        return self

    def tag_counts(self, tags: Iterable[str]) -> np.ndarray:
        """Integer occurrence count of every vocabulary tag in ``tags``."""
        if not self._vocabulary:
            raise RuntimeError("FrequencyTopicModel must be fitted before use")
        indices = [
            self._vocabulary[token]
            for token in self._prepare(tags)
            if token in self._vocabulary
        ]
        return np.bincount(
            np.asarray(indices, dtype=np.intp), minlength=self._n_dimensions
        )

    def signature_from_counts(self, counts: np.ndarray) -> np.ndarray:
        """L1-normalise a count vector.

        Integer counts make the total exact, so the signature of a group
        is bit-identical however its counts were accumulated.
        """
        vector = np.array(counts, dtype=float)
        total = vector.sum()
        return vector / total if total > 0 else vector

    def vectorize(self, tags: Iterable[str]) -> np.ndarray:
        return self.signature_from_counts(self.tag_counts(tags))

    def dimension_labels(self) -> List[str]:
        ordered = sorted(self._vocabulary.items(), key=lambda pair: pair[1])
        labels = [token for token, _ in ordered]
        # Pad if fewer distinct tags than dimensions were seen.
        while len(labels) < self._n_dimensions:
            labels.append(f"<unused-{len(labels)}>")
        return labels


class TfIdfTopicModel(TopicModel):
    """tf*idf signature over the most discriminative tags."""

    name = "tfidf"

    def __init__(
        self,
        n_dimensions: int = 25,
        synonym_folder: Optional[SynonymFolder] = None,
    ) -> None:
        super().__init__(synonym_folder)
        if n_dimensions <= 0:
            raise ValueError("n_dimensions must be positive")
        self._n_dimensions = n_dimensions
        self._vectorizer = TfIdfVectorizer(max_features=n_dimensions, lowercase=False)

    @property
    def n_dimensions(self) -> int:
        return self._n_dimensions

    def fit(self, documents: Sequence[Iterable[str]]) -> "TfIdfTopicModel":
        prepared = [self._prepare(document) for document in documents]
        self._vectorizer.fit(prepared)
        return self

    def _pad(self, matrix: np.ndarray) -> np.ndarray:
        """Zero-pad columns up to ``n_dimensions`` (small vocabularies)."""
        missing = self._n_dimensions - matrix.shape[1]
        return np.pad(matrix, ((0, 0), (0, missing))) if missing > 0 else matrix

    def tag_counts(self, tags: Iterable[str]) -> np.ndarray:
        """Occurrence count of every vocabulary tag in ``tags``."""
        return self._vectorizer.counts([self._prepare(tags)])[0]

    def signature_from_counts(self, counts: np.ndarray) -> np.ndarray:
        """Weigh one count vector through the vectoriser's tf*idf path."""
        return self._pad(self._vectorizer.weigh(np.asarray(counts)[np.newaxis, :]))[0]

    def vectorize(self, tags: Iterable[str]) -> np.ndarray:
        return self.signature_from_counts(self.tag_counts(tags))

    def vectorize_many(self, documents: Sequence[Iterable[str]]) -> np.ndarray:
        """Batch tf*idf: one transform call over all documents.

        ``transform`` weighs and normalises rows independently, so this
        matches the per-document :meth:`vectorize` output exactly.
        """
        if not documents:
            return np.zeros((0, self._n_dimensions))
        return self._pad(
            self._vectorizer.transform(
                [self._prepare(document) for document in documents]
            )
        )

    def dimension_labels(self) -> List[str]:
        labels = self._vectorizer.feature_names()
        while len(labels) < self._n_dimensions:
            labels.append(f"<unused-{len(labels)}>")
        return labels


class LdaTopicModel(TopicModel):
    """LDA topic-distribution signature (the paper's evaluated backend)."""

    name = "lda"

    def __init__(
        self,
        n_topics: int = 25,
        n_iterations: int = 150,
        inference_iterations: int = 30,
        seed: int = 0,
        synonym_folder: Optional[SynonymFolder] = None,
    ) -> None:
        super().__init__(synonym_folder)
        self._lda = LatentDirichletAllocation(
            n_topics=n_topics,
            n_iterations=n_iterations,
            burn_in=max(1, n_iterations // 4),
            seed=seed,
        )
        self._inference_iterations = inference_iterations
        self._fitted = False

    @property
    def n_dimensions(self) -> int:
        return self._lda.n_topics

    @property
    def lda(self) -> LatentDirichletAllocation:
        """The underlying LDA model (for inspection and tests)."""
        return self._lda

    def fit(self, documents: Sequence[Iterable[str]]) -> "LdaTopicModel":
        prepared = [self._prepare(document) for document in documents]
        non_empty = [document for document in prepared if document]
        if not non_empty:
            raise ValueError("cannot fit LDA topic model on empty tag documents")
        self._lda.fit(non_empty)
        self._fitted = True
        return self

    def tag_counts(self, tags: Iterable[str]) -> None:
        # Not a function of counts: Gibbs inference samples a topic per
        # token in document order from a seeded chain, so a group's
        # signature is only defined by its whole tag sequence.
        # Incremental maintenance takes its rebuild path for LDA.
        return None

    def vectorize(self, tags: Iterable[str]) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("LdaTopicModel must be fitted before use")
        return self._lda.infer(
            self._prepare(tags), n_iterations=self._inference_iterations
        )

    def dimension_labels(self) -> List[str]:
        labels = []
        for topic in range(self._lda.n_topics):
            if self._fitted:
                top = self._lda.top_words(topic, n=3)
                labels.append("topic:" + "/".join(token for token, _ in top))
            else:
                labels.append(f"topic:{topic}")
        return labels


def build_topic_model(
    backend: str = "lda",
    n_dimensions: int = 25,
    seed: int = 0,
    synonyms: Optional[Mapping[str, str]] = None,
    lda_iterations: int = 150,
) -> TopicModel:
    """Factory for topic-model backends by name.

    ``backend`` is one of ``"frequency"``, ``"tfidf"`` or ``"lda"``.
    """
    folder = SynonymFolder(synonyms) if synonyms is not None else None
    backend = backend.lower()
    if backend == "frequency":
        return FrequencyTopicModel(n_dimensions=n_dimensions, synonym_folder=folder)
    if backend == "tfidf":
        return TfIdfTopicModel(n_dimensions=n_dimensions, synonym_folder=folder)
    if backend == "lda":
        return LdaTopicModel(
            n_topics=n_dimensions,
            n_iterations=lda_iterations,
            seed=seed,
            synonym_folder=folder,
        )
    raise ValueError(f"unknown topic model backend {backend!r}")
