"""Tests for the synthetic content/style generative model."""

import numpy as np
import pytest

from repro.data import content, synthetic_office_home, synthetic_pacs
from repro.data.content import ContentBank, smooth_noise
from repro.data.styles import DomainStyle, render_images


def reference_smooth_noise(height, width, rng, cutoff=3):
    """The one-field-at-a-time generator that the batched one replaced."""
    ys = np.linspace(0.0, 2.0 * np.pi, height, endpoint=False)
    xs = np.linspace(0.0, 2.0 * np.pi, width, endpoint=False)
    grid_y, grid_x = np.meshgrid(ys, xs, indexing="ij")
    field = np.zeros((height, width))
    for fy in range(cutoff):
        for fx in range(cutoff):
            if fy == 0 and fx == 0:
                continue
            amplitude = rng.normal() / (1.0 + fy + fx)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            field += amplitude * np.cos(fy * grid_y + fx * grid_x + phase)
    peak = np.max(np.abs(field))
    if peak > 0:
        field /= peak
    return field


def reference_sample(self, class_id, count, rng):
    """``ContentBank.sample`` as it drew one sample at a time."""
    prototype = self.prototypes[class_id]
    max_shift = max(self.image_size // 8, 1)
    samples = np.empty((count, self.image_size, self.image_size))
    for index in range(count):
        shift_y = int(rng.integers(-max_shift, max_shift + 1))
        shift_x = int(rng.integers(-max_shift, max_shift + 1))
        shifted = np.roll(prototype, (shift_y, shift_x), axis=(0, 1))
        noise = reference_smooth_noise(self.image_size, self.image_size, rng)
        samples[index] = shifted + self.jitter * noise
    return samples


class TestSmoothNoise:
    def test_bounded(self, rng):
        field = smooth_noise(16, 16, rng)
        assert np.max(np.abs(field)) <= 1.0 + 1e-12

    def test_shape(self, rng):
        assert smooth_noise(8, 12, rng).shape == (8, 12)

    def test_deterministic_under_seed(self):
        a = smooth_noise(8, 8, np.random.default_rng(3))
        b = smooth_noise(8, 8, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)


class TestBatchedSynthesis:
    """Batching the content fields must not change a single generated bit."""

    def test_smooth_noise_matches_reference(self):
        for seed in range(20):
            for shape in ((16, 16), (8, 12), (5, 3)):
                a = smooth_noise(*shape, np.random.default_rng(seed))
                b = reference_smooth_noise(*shape, np.random.default_rng(seed))
                assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "build,seed",
        [(synthetic_pacs, 0), (synthetic_pacs, 7), (synthetic_office_home, 3)],
    )
    def test_suites_match_the_per_sample_generator(self, build, seed, monkeypatch):
        batched = build(seed=seed)
        monkeypatch.setattr(content, "smooth_noise", reference_smooth_noise)
        monkeypatch.setattr(ContentBank, "sample", reference_sample)
        reference = build(seed=seed)
        for mine, theirs in zip(batched.datasets, reference.datasets):
            assert np.array_equal(mine.images, theirs.images)
            assert np.array_equal(mine.labels, theirs.labels)

    def test_empty_sample(self, rng):
        assert ContentBank(3, 8, rng).sample(0, 0, rng).shape == (0, 8, 8)


class TestContentBank:
    def test_prototypes_are_distinct(self, rng):
        bank = ContentBank(7, 16, rng)
        protos = bank.prototypes.reshape(7, -1)
        for i in range(7):
            for j in range(i + 1, 7):
                correlation = np.corrcoef(protos[i], protos[j])[0, 1]
                assert correlation < 0.98, f"classes {i},{j} nearly identical"

    def test_sample_shapes(self, rng):
        bank = ContentBank(3, 16, rng)
        samples = bank.sample(1, 5, rng)
        assert samples.shape == (5, 16, 16)

    def test_samples_correlate_with_prototype(self, rng):
        bank = ContentBank(5, 16, rng, jitter=0.1)
        samples = bank.sample(2, 8, rng)
        proto = bank.prototypes[2].reshape(-1)
        # Circular shifts reduce but cannot destroy correlation at jitter 0.1.
        correlations = [
            np.corrcoef(s.reshape(-1), proto)[0, 1] for s in samples
        ]
        assert np.mean(correlations) > 0.3

    def test_same_seed_same_bank(self):
        a = ContentBank(4, 8, np.random.default_rng(1))
        b = ContentBank(4, 8, np.random.default_rng(1))
        np.testing.assert_array_equal(a.prototypes, b.prototypes)

    def test_rejects_bad_arguments(self, rng):
        with pytest.raises(ValueError):
            ContentBank(1, 16, rng)
        with pytest.raises(ValueError):
            ContentBank(4, 2, rng)
        bank = ContentBank(3, 8, rng)
        with pytest.raises(ValueError):
            bank.sample(5, 1, rng)
        with pytest.raises(ValueError):
            bank.sample(0, -1, rng)


class TestDomainStyle:
    def test_random_styles_differ(self):
        rng = np.random.default_rng(0)
        a = DomainStyle.random("a", rng)
        b = DomainStyle.random("b", rng)
        assert a.channel_gain != b.channel_gain

    def test_validation(self):
        with pytest.raises(ValueError):
            DomainStyle("x", (1.0, 1.0), (1.0,) * 3, (0.0,) * 3)
        with pytest.raises(ValueError):
            DomainStyle("x", (1.0,) * 3, (1.0,) * 3, (0.0,) * 3, contrast=0.0)
        with pytest.raises(ValueError):
            DomainStyle("x", (1.0,) * 3, (1.0,) * 3, (0.0,) * 3, noise_std=-1.0)

    def test_texture_field_zero_when_amp_zero(self):
        style = DomainStyle("x", (1.0,) * 3, (1.0,) * 3, (0.0,) * 3, texture_amp=0.0)
        assert np.all(style.texture_field(8, 8) == 0)

    def test_texture_field_amplitude(self):
        style = DomainStyle(
            "x", (1.0,) * 3, (1.0,) * 3, (0.0,) * 3,
            texture_amp=0.5, texture_freq=2.0,
        )
        field = style.texture_field(16, 16)
        assert np.max(np.abs(field)) <= 0.5 + 1e-12
        assert np.max(np.abs(field)) > 0.1


class TestRenderImages:
    def test_output_shape(self, rng):
        style = DomainStyle("x", (1.0,) * 3, (1.0,) * 3, (0.0,) * 3)
        content = rng.normal(size=(4, 8, 8))
        images = render_images(content, style, rng)
        assert images.shape == (4, 3, 8, 8)

    def test_gain_bias_shift_channel_statistics(self, rng):
        """The whole premise of the benchmark: different styles yield
        measurably different per-channel statistics for identical content."""
        content = rng.normal(size=(32, 8, 8))
        neutral = DomainStyle("n", (1.0,) * 3, (1.0, 1.0, 1.0), (0.0,) * 3,
                              noise_std=0.0)
        shifted = DomainStyle("s", (1.0,) * 3, (2.0, 0.5, 1.0), (0.5, -0.5, 0.0),
                              noise_std=0.0)
        img_n = render_images(content, neutral, rng)
        img_s = render_images(content, shifted, rng)
        mean_gap = np.abs(img_n.mean(axis=(0, 2, 3)) - img_s.mean(axis=(0, 2, 3)))
        assert mean_gap[0] > 0.3  # bias difference dominates
        std_ratio = img_s.std(axis=(0, 2, 3)) / img_n.std(axis=(0, 2, 3))
        assert std_ratio[0] > 1.5 and std_ratio[1] < 0.7

    def test_content_survives_styling(self, rng):
        """Within one domain, same-class images stay more correlated than
        different-class images — the signal DG methods must extract."""
        bank = ContentBank(4, 16, rng, jitter=0.1)
        style = DomainStyle("x", (1.0, 0.8, 0.6), (1.2, 0.9, 1.1), (0.1, 0.0, -0.1),
                            noise_std=0.02)
        imgs_a = render_images(bank.sample(0, 6, rng), style, rng)
        imgs_b = render_images(bank.sample(1, 6, rng), style, rng)
        same = np.corrcoef(imgs_a[0].ravel(), imgs_a[1].ravel())[0, 1]
        cross = np.corrcoef(imgs_a[0].ravel(), imgs_b[0].ravel())[0, 1]
        assert same > cross

    def test_rejects_bad_content_shape(self, rng):
        style = DomainStyle("x", (1.0,) * 3, (1.0,) * 3, (0.0,) * 3)
        with pytest.raises(ValueError):
            render_images(rng.normal(size=(4, 3, 8, 8)), style, rng)
