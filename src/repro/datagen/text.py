"""Zipf text synthesizer (BigDataBench-style).

BigDataBench ships a data synthesizer that scales a real-world seed
corpus to arbitrary volume while preserving its statistics.  We model
the part that matters for the text workloads (WordCount, Grep, Sort,
NaiveBayes): word frequencies follow a Zipf law over a synthetic
vocabulary, line lengths follow a Poisson around a target mean, and the
skew/vocabulary knobs make different *inputs* genuinely different
(word-frequency profile for WordCount, key ordering for Sort — exactly
the input axes Section IV-E discusses).

Every random draw is one vectorised call; only the string assembly
(collision suffixes, joining words into lines) loops in Python, over
plain lists rather than NumPy ``<U`` arrays.

A corpus is a pure function of its ``(TextSpec, seed)`` (plus the class
knobs of the labelled corpus), and the Hadoop and Spark runs of one
workload ask for the same one, so both synthesizers are memoised per
process with :func:`functools.lru_cache`: a cold ``figure fig7`` builds
each of its four text inputs once instead of twice.  They return tuples
of lines, so no caller can mutate the corpus the memo hands to the
next; :meth:`repro.hdfs.SimulatedHDFS.write` copies the lines into
fresh block lists.  ``__wrapped__`` is the unmemoised function.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["TextSpec", "synthesize_text", "synthesize_labeled_text", "make_vocabulary"]


@dataclass(frozen=True, slots=True)
class TextSpec:
    """Parameters of a synthetic corpus.

    ``zipf_s`` is the Zipf exponent (≈1.0 for natural language; larger
    means fewer distinct hot words); ``shuffle_ranks`` decorrelates
    alphabetical order from frequency rank, which changes the comparison
    behaviour of Sort without changing WordCount's histogram.
    """

    n_lines: int
    words_per_line: float = 10.0
    vocab_size: int = 5000
    zipf_s: float = 1.05
    word_len_mean: float = 7.0
    shuffle_ranks: bool = True

    def __post_init__(self) -> None:
        if self.n_lines <= 0:
            raise ValueError("n_lines must be positive")
        if self.vocab_size <= 0:
            raise ValueError("vocab_size must be positive")
        if self.zipf_s <= 0:
            raise ValueError("zipf_s must be positive")
        if self.words_per_line <= 0:
            raise ValueError("words_per_line must be positive")


def make_vocabulary(
    size: int, rng: np.random.Generator, word_len_mean: float = 7.0
) -> list[str]:
    """Synthetic vocabulary of ``size`` pseudo-words.

    Lengths are Poisson-distributed (min 2); letters uniform.  Words are
    unique by construction (a numeric suffix disambiguates collisions).

    All letters come from one ``rng.integers(0, 26, size=total)`` call,
    sliced into words by the cumulative lengths.  This consumes the
    stream exactly as one call per word would: int64 draws below 2**32
    take one 32-bit word each from the bit generator, whose buffered
    half-word lives in the generator state, not in the call.  (A
    ``dtype=np.uint8`` draw would consume a different stream.)
    """
    lengths = np.maximum(2, rng.poisson(word_len_mean, size=size))
    codes = rng.integers(0, 26, size=int(lengths.sum())).astype(np.uint8)
    letters = (codes + ord("a")).tobytes().decode("ascii")
    words: list[str] = []
    seen: set[str] = set()
    start = 0
    for i, end in enumerate(np.cumsum(lengths).tolist()):
        w = letters[start:end]
        start = end
        if w in seen:
            w = f"{w}{i}"
        seen.add(w)
        words.append(w)
    return words


def _zipf_probs(n: int, s: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    p = ranks**-s
    return p / p.sum()


#: Corpora each synthesizer keeps per process.  A cold fig7 asks for
#: three plain corpora and one labelled one between a workload's Hadoop
#: and Spark runs.  A kept corpus is about 0.13 MB at scale 0.01 and up
#: to 8 MB at scale 1, so the bound also caps what the memo retains.
_MEMO_SIZE = 4


@functools.lru_cache(maxsize=_MEMO_SIZE)
def synthesize_text(spec: TextSpec, seed: int) -> tuple[str, ...]:
    """Generate a corpus of ``spec.n_lines`` lines (memoised).

    One categorical draw covers all words of the corpus; lines are then
    assembled by slicing the flat word list.
    """
    rng = np.random.default_rng(seed)
    vocab = make_vocabulary(spec.vocab_size, rng, spec.word_len_mean)
    probs = _zipf_probs(spec.vocab_size, spec.zipf_s)
    if spec.shuffle_ranks:
        # Decouple frequency rank from alphabetical order.
        vocab = [vocab[i] for i in rng.permutation(spec.vocab_size).tolist()]

    line_lens = np.maximum(1, rng.poisson(spec.words_per_line, size=spec.n_lines))
    total_words = int(line_lens.sum())
    word_ids = rng.choice(spec.vocab_size, size=total_words, p=probs)
    return tuple(_join_lines([vocab[i] for i in word_ids.tolist()], line_lens))


@functools.lru_cache(maxsize=_MEMO_SIZE)
def synthesize_labeled_text(
    spec: TextSpec,
    n_classes: int,
    seed: int,
    class_skew: float = 1.0,
) -> tuple[str, ...]:
    """Labelled corpus for NaiveBayes: ``"<label>\\t<words...>"`` lines (memoised).

    Each class gets its own permutation of the shared vocabulary so the
    per-class word distributions differ (which is what gives the trained
    model non-trivial likelihoods).  ``class_skew`` is the Zipf exponent
    over class frequencies (1.0 ≈ mildly imbalanced classes).
    """
    if n_classes <= 0:
        raise ValueError("n_classes must be positive")
    rng = np.random.default_rng(seed)
    vocab = make_vocabulary(spec.vocab_size, rng, spec.word_len_mean)
    probs = _zipf_probs(spec.vocab_size, spec.zipf_s)
    class_probs = _zipf_probs(n_classes, class_skew)
    # Per-class view of the vocabulary: a fixed permutation per class.
    class_perm = np.stack(
        [rng.permutation(spec.vocab_size) for _ in range(n_classes)]
    )

    labels = rng.choice(n_classes, size=spec.n_lines, p=class_probs)
    line_lens = np.maximum(1, rng.poisson(spec.words_per_line, size=spec.n_lines))
    total_words = int(line_lens.sum())
    word_ranks = rng.choice(spec.vocab_size, size=total_words, p=probs)

    word_ids = class_perm[np.repeat(labels, line_lens), word_ranks]
    bodies = _join_lines([vocab[i] for i in word_ids.tolist()], line_lens)
    return tuple(
        f"class{label}\t{body}" for label, body in zip(labels.tolist(), bodies)
    )


def _join_lines(words: list[str], line_lens: np.ndarray) -> list[str]:
    """Join consecutive runs of ``words`` into lines of ``line_lens`` words."""
    lines: list[str] = []
    pos = 0
    for ln in line_lens.tolist():
        lines.append(" ".join(words[pos : pos + ln]))
        pos += ln
    return lines
