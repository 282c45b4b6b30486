"""Bit-parity of the vectorised synthesizers against their old loops.

The ``_reference_*`` functions below are the per-word vocabulary loop
and the ``np.unique(axis=0)`` edge deduplication that the generators
used before they were vectorised, kept here as oracles.  The inputs the
workloads see must not change by a single bit: same words, same lines,
same edges, and the random stream left in the same state afterwards.
"""

from __future__ import annotations

import hashlib
import string
from dataclasses import replace

import numpy as np
import pytest

from repro.datagen.kronecker import KroneckerSpec, generate_kronecker_edges
from repro.datagen.seeds import GRAPH_INPUTS
from repro.datagen.text import (
    TextSpec,
    _zipf_probs,
    make_vocabulary,
    synthesize_labeled_text,
    synthesize_text,
)

_ALPHABET = np.array(list(string.ascii_lowercase))


def _reference_make_vocabulary(
    size: int, rng: np.random.Generator, word_len_mean: float = 7.0
) -> list[str]:
    """One ``integers`` call per word, as the generator used to draw."""
    lengths = np.maximum(2, rng.poisson(word_len_mean, size=size))
    words: list[str] = []
    seen: set[str] = set()
    for i, ln in enumerate(lengths):
        letters = _ALPHABET[rng.integers(0, 26, size=int(ln))]
        w = "".join(letters)
        if w in seen:
            w = f"{w}{i}"
        seen.add(w)
        words.append(w)
    return words


def _reference_synthesize_text(spec: TextSpec, seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    vocab = np.array(
        _reference_make_vocabulary(spec.vocab_size, rng, spec.word_len_mean)
    )
    probs = _zipf_probs(spec.vocab_size, spec.zipf_s)
    if spec.shuffle_ranks:
        vocab = vocab[rng.permutation(spec.vocab_size)]
    line_lens = np.maximum(1, rng.poisson(spec.words_per_line, size=spec.n_lines))
    word_ids = rng.choice(spec.vocab_size, size=int(line_lens.sum()), p=probs)
    flat = vocab[word_ids]
    lines: list[str] = []
    pos = 0
    for ln in line_lens:
        lines.append(" ".join(flat[pos : pos + int(ln)]))
        pos += int(ln)
    return lines


def _reference_synthesize_labeled_text(
    spec: TextSpec, n_classes: int, seed: int, class_skew: float = 1.0
) -> list[str]:
    rng = np.random.default_rng(seed)
    vocab = np.array(
        _reference_make_vocabulary(spec.vocab_size, rng, spec.word_len_mean)
    )
    probs = _zipf_probs(spec.vocab_size, spec.zipf_s)
    class_probs = _zipf_probs(n_classes, class_skew)
    class_perm = [rng.permutation(spec.vocab_size) for _ in range(n_classes)]
    labels = rng.choice(n_classes, size=spec.n_lines, p=class_probs)
    line_lens = np.maximum(1, rng.poisson(spec.words_per_line, size=spec.n_lines))
    word_ranks = rng.choice(spec.vocab_size, size=int(line_lens.sum()), p=probs)
    lines: list[str] = []
    pos = 0
    for label, ln in zip(labels, line_lens):
        ids = class_perm[int(label)][word_ranks[pos : pos + int(ln)]]
        lines.append(f"class{int(label)}\t" + " ".join(vocab[ids]))
        pos += int(ln)
    return lines


def _reference_kronecker_edges(spec: KroneckerSpec, seed: int) -> np.ndarray:
    """The sampler with row-wise ``np.unique(axis=0)`` deduplication."""
    rng = np.random.default_rng(seed)
    probs = np.asarray(spec.initiator, dtype=np.float64).ravel()
    probs = probs / probs.sum()
    quadrants = rng.choice(4, size=(spec.n_edges_sampled, spec.scale), p=probs)
    weights = (1 << np.arange(spec.scale - 1, -1, -1)).astype(np.int64)
    src = (quadrants >> 1).astype(np.int64) @ weights
    dst = (quadrants & 1).astype(np.int64) @ weights
    edges = np.stack([src, dst], axis=1)
    if spec.drop_self_loops:
        edges = edges[edges[:, 0] != edges[:, 1]]
    if spec.deduplicate:
        edges = np.unique(edges, axis=0)
        edges = edges[rng.permutation(len(edges))]
    return edges


def _sha(text_lines: list[str]) -> str:
    return hashlib.sha256("\n".join(text_lines).encode()).hexdigest()


class TestVocabularyParity:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 2024])
    @pytest.mark.parametrize(
        "size, mean",
        [(1, 7.0), (50, 7.0), (2000, 7.0), (3000, 1.0), (500, 2.5)],
    )
    def test_words_and_stream_state(self, seed, size, mean):
        ref_rng = np.random.default_rng(seed)
        new_rng = np.random.default_rng(seed)
        assert make_vocabulary(size, new_rng, mean) == (
            _reference_make_vocabulary(size, ref_rng, mean)
        )
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state
        # The streams stay in lock-step for whatever is drawn next.
        assert new_rng.random() == ref_rng.random()

    def test_short_words_take_the_suffix_path(self):
        """``word_len_mean=1.0`` gives 2-letter words, so collisions occur."""
        words = make_vocabulary(3000, np.random.default_rng(5), word_len_mean=1.0)
        assert any(not w.isalpha() for w in words)
        assert len(set(words)) == len(words)


class TestTextParity:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize(
        "spec",
        [
            TextSpec(n_lines=300, vocab_size=2000),
            TextSpec(n_lines=200, vocab_size=500, zipf_s=1.4, shuffle_ranks=False),
            TextSpec(n_lines=150, vocab_size=800, word_len_mean=1.0),
            TextSpec(n_lines=100, vocab_size=5000, words_per_line=12.0, zipf_s=1.02),
        ],
    )
    def test_synthesize_text(self, spec, seed):
        assert synthesize_text(spec, seed) == _reference_synthesize_text(spec, seed)

    @pytest.mark.parametrize("seed", [0, 4])
    @pytest.mark.parametrize("n_classes", [1, 12])
    def test_synthesize_labeled_text(self, seed, n_classes):
        spec = TextSpec(n_lines=250, vocab_size=1600)
        assert synthesize_labeled_text(spec, n_classes, seed) == (
            _reference_synthesize_labeled_text(spec, n_classes, seed)
        )

    def test_pinned_digests(self):
        """Output digests recorded with the per-word implementation."""
        vocab = make_vocabulary(3000, np.random.default_rng(5), word_len_mean=1.0)
        assert _sha(vocab) == (
            "5555f5bfb2808ea2e8d87bc20bfc05a2da59cbbabdac44751778d24804897da9"
        )
        assert _sha(synthesize_text(TextSpec(n_lines=400, vocab_size=2000), 11)) == (
            "90c07f72992689f614584d17dbe903be1ff9cfce6d885a866b8de0a08022f613"
        )
        unshuffled = TextSpec(
            n_lines=300, vocab_size=500, zipf_s=1.4, shuffle_ranks=False
        )
        assert _sha(synthesize_text(unshuffled, 3)) == (
            "efdac075add1fae420cf44db105fb2e4a5f5694f049b447ff41fd39991c0c574"
        )
        labeled = synthesize_labeled_text(
            TextSpec(n_lines=400, vocab_size=1600), 12, 4
        )
        assert _sha(labeled) == (
            "07384713bef0f5f4baba3f595494ccb09ad2269a146773c5dd35e41f6bc8eee3"
        )


class TestKroneckerParity:
    @pytest.mark.parametrize("name", sorted(GRAPH_INPUTS))
    @pytest.mark.parametrize("scale_delta", [0, -2, -7])
    @pytest.mark.parametrize(
        "dedup, drop", [(True, True), (True, False), (False, True), (False, False)]
    )
    def test_catalog_inputs(self, name, scale_delta, dedup, drop):
        spec = GRAPH_INPUTS[name].spec
        spec = replace(
            spec,
            scale=max(1, spec.scale + scale_delta),
            deduplicate=dedup,
            drop_self_loops=drop,
        )
        got = generate_kronecker_edges(spec, 1)
        want = _reference_kronecker_edges(spec, 1)
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_pinned_digests(self):
        """Edge digests recorded with the ``np.unique(axis=0)`` implementation."""
        expected = {
            "Google": (
                (11817, 2),
                "e1688dbb0ad1918082316ffb7e9219babf39248c0d50eb014702d64d4bacbe8e",
            ),
            "Road": (
                (6130, 2),
                "b68055fbd74076f8a1f7625f2d3d8b57130b2dbf03284f78901501b69455f6eb",
            ),
        }
        for name, (shape, digest) in expected.items():
            edges = GRAPH_INPUTS[name].edges(seed=2, scale_delta=-4)
            assert edges.dtype == np.int64
            assert edges.shape == shape
            assert hashlib.sha256(edges.tobytes()).hexdigest() == digest
