"""Unit tests for the Zipf text synthesizer."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.datagen.text import (
    TextSpec,
    make_vocabulary,
    synthesize_labeled_text,
    synthesize_text,
)


class TestTextSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            TextSpec(n_lines=0)
        with pytest.raises(ValueError):
            TextSpec(n_lines=10, vocab_size=0)
        with pytest.raises(ValueError):
            TextSpec(n_lines=10, zipf_s=0)
        with pytest.raises(ValueError):
            TextSpec(n_lines=10, words_per_line=0)


class TestVocabulary:
    def test_size_and_uniqueness(self):
        rng = np.random.default_rng(0)
        vocab = make_vocabulary(500, rng)
        assert len(vocab) == 500
        assert len(set(vocab)) == 500

    def test_min_word_length(self):
        rng = np.random.default_rng(0)
        vocab = make_vocabulary(200, rng, word_len_mean=1.0)
        assert all(len(w) >= 2 for w in vocab)


class TestSynthesizeText:
    def test_line_count(self):
        lines = synthesize_text(TextSpec(n_lines=100), seed=0)
        assert len(lines) == 100

    def test_deterministic_per_seed(self):
        spec = TextSpec(n_lines=50)
        assert synthesize_text(spec, 7) == synthesize_text(spec, 7)
        assert synthesize_text(spec, 7) != synthesize_text(spec, 8)

    def test_zipf_skew(self):
        """A steeper exponent concentrates mass on fewer words."""
        flat = synthesize_text(
            TextSpec(n_lines=2000, vocab_size=1000, zipf_s=0.7, shuffle_ranks=False),
            seed=0,
        )
        steep = synthesize_text(
            TextSpec(n_lines=2000, vocab_size=1000, zipf_s=1.8, shuffle_ranks=False),
            seed=0,
        )

        def top_share(lines: list[str]) -> float:
            counts = Counter(w for l in lines for w in l.split())
            total = sum(counts.values())
            return sum(c for _w, c in counts.most_common(10)) / total

        assert top_share(steep) > top_share(flat) + 0.1

    def test_words_per_line_mean(self):
        lines = synthesize_text(
            TextSpec(n_lines=2000, words_per_line=8.0), seed=1
        )
        mean = np.mean([len(l.split()) for l in lines])
        assert 7.0 < mean < 9.0

    def test_vocab_respected(self):
        lines = synthesize_text(TextSpec(n_lines=500, vocab_size=50), seed=0)
        words = {w for l in lines for w in l.split()}
        assert len(words) <= 50


class TestSynthesizeLabeledText:
    def test_format(self):
        lines = synthesize_labeled_text(TextSpec(n_lines=50), 4, seed=0)
        for line in lines:
            label, _, text = line.partition("\t")
            assert label.startswith("class")
            assert text

    def test_all_classes_within_range(self):
        lines = synthesize_labeled_text(TextSpec(n_lines=400), 5, seed=0)
        labels = {l.partition("\t")[0] for l in lines}
        assert labels <= {f"class{i}" for i in range(5)}

    def test_classes_have_distinct_distributions(self):
        lines = synthesize_labeled_text(
            TextSpec(n_lines=3000, vocab_size=300, zipf_s=1.5), 2, seed=0
        )
        counters: dict[str, Counter] = {"class0": Counter(), "class1": Counter()}
        for line in lines:
            label, _, text = line.partition("\t")
            if label in counters:
                counters[label].update(text.split())
        top0 = {w for w, _ in counters["class0"].most_common(5)}
        top1 = {w for w, _ in counters["class1"].most_common(5)}
        assert top0 != top1

    def test_rejects_bad_classes(self):
        with pytest.raises(ValueError):
            synthesize_labeled_text(TextSpec(n_lines=10), 0, seed=0)


class TestMemo:
    """A process builds each corpus once; a hit equals a fresh build."""

    def test_text_hit_equals_unmemoised_build(self):
        spec = TextSpec(n_lines=120, vocab_size=400)
        first = synthesize_text(spec, 5)
        hits = synthesize_text.cache_info().hits
        assert synthesize_text(spec, 5) is first
        assert synthesize_text.cache_info().hits == hits + 1
        assert isinstance(first, tuple)
        assert first == synthesize_text.__wrapped__(spec, 5)

    def test_labeled_hit_equals_unmemoised_build(self):
        spec = TextSpec(n_lines=120, vocab_size=400)
        first = synthesize_labeled_text(spec, 3, 5, class_skew=1.5)
        assert synthesize_labeled_text(spec, 3, 5, class_skew=1.5) is first
        assert isinstance(first, tuple)
        assert first == synthesize_labeled_text.__wrapped__(
            spec, 3, 5, class_skew=1.5
        )
