"""Prior infusion on the deterministic toy encoder-decoder."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import reference_grad_check
from radpriors import infusion
from radpriors.infusion import (EMBED_DIM, IMAGE_SIZE, LATENT_DIM, MAX_LEN,
                                NUM_PATCHES, PROBE, VOCAB_SIZE, ImagePair,
                                InfusionError, ToyModel, demo_image_pair,
                                forward, grad_check, infuse,
                                teacher_forced_loss, visual_extract)


@pytest.fixture(scope="module")
def model():
    return ToyModel()


@pytest.fixture(scope="module")
def images():
    return demo_image_pair(17)


class TestVisualExtract:
    def test_zero_images_give_zero_embedding(self, model):
        zeros = ImagePair(frontal=np.zeros((IMAGE_SIZE, IMAGE_SIZE)),
                          lateral=np.zeros((IMAGE_SIZE, IMAGE_SIZE)))
        embedding = visual_extract(zeros, model)
        assert not embedding.any()

    def test_deterministic_across_calls_and_models(self, images):
        a = visual_extract(images, ToyModel())
        b = visual_extract(images, ToyModel())
        assert a.tobytes() == b.tobytes()

    def test_view_order_matters(self, model, images):
        swapped = ImagePair(frontal=images.lateral, lateral=images.frontal)
        assert visual_extract(images, model).tobytes() != \
            visual_extract(swapped, model).tobytes()

    def test_shape(self, model, images):
        embedding = visual_extract(images, model)
        assert embedding.shape == (NUM_PATCHES, EMBED_DIM)

    def test_dimension_mismatch_names_shapes(self, model):
        bad = ImagePair(frontal=np.zeros((4, 4)), lateral=np.zeros((4, 4)))
        with pytest.raises(InfusionError, match=r"\(4, 4\)"):
            visual_extract(bad, model)

    def test_non_finite_image_rejected(self, model):
        grid = np.zeros((IMAGE_SIZE, IMAGE_SIZE))
        grid[0, 0] = np.nan
        bad = ImagePair(frontal=grid,
                        lateral=np.zeros((IMAGE_SIZE, IMAGE_SIZE)))
        with pytest.raises(InfusionError, match="frontal"):
            visual_extract(bad, model)


class TestInfuse:
    def test_zero_prior_is_bitwise_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            tensor = rng.standard_normal((rng.integers(1, 6),
                                          rng.integers(1, 6)))
            out = infuse(tensor, 0.0)
            assert out.tobytes() == tensor.tobytes()

    def test_broadcast_example(self):
        out = infuse(np.array([[0.5, -0.5]]), 1.0)
        assert out.tolist() == [[1.5, 0.5]]

    def test_shape_preserved(self):
        tensor = np.ones((3, 5))
        assert infuse(tensor, 2.5).shape == (3, 5)

    def test_associative_within_tolerance(self):
        rng = np.random.default_rng(2)
        tensor = rng.standard_normal((4, 4))
        a, b = 0.3, 0.9
        chained = infuse(infuse(tensor, a), b)
        direct = infuse(tensor, a + b)
        np.testing.assert_allclose(chained, direct, atol=1e-12)

    def test_non_finite_prior_rejected(self):
        with pytest.raises(InfusionError):
            infuse(np.ones((2, 2)), float("nan"))


    def test_encoder_infuses_through_infuse(self, model, images,
                                            monkeypatch):
        calls = []

        def spy(tensor, prior):
            calls.append(prior)
            return infuse(tensor, prior)

        monkeypatch.setattr(infusion, "infuse", spy)
        forward(model, images, prior=1.0)
        teacher_forced_loss(model, images, prior=0.5)
        assert calls == [1.0, 1.0, 0.5, 0.5]
        calls.clear()
        forward(model, images, prior=None)
        assert calls == []


class TestForward:
    def test_deterministic(self, model, images):
        first = forward(model, images, prior=1.0)
        second = forward(model, images, prior=1.0)
        assert first.tokens == second.tokens
        assert first.latent.tobytes() == second.latent.tobytes()

    def test_prior_changes_latent_and_tokens_on_seed_17(self, model, images):
        off = forward(model, images, prior=0.0)
        on = forward(model, images, prior=1.0)
        differing = int(np.sum(on.latent_infused != off.latent_infused))
        assert differing > 0
        assert on.tokens != off.tokens

    def test_zero_prior_matches_baseline_bitwise(self, model, images):
        infused = forward(model, images, prior=0.0)
        baseline = forward(model, images, prior=None)
        assert infused.tokens == baseline.tokens
        assert infused.latent.tobytes() == baseline.latent.tobytes()
        assert infused.latent_infused.tobytes() == \
            baseline.latent_infused.tobytes()

    def test_output_length_bounded(self, model, images):
        for max_len in (1, 3, 12):
            result = forward(model, images, prior=1.0, max_len=max_len)
            assert 1 <= len(result.tokens) <= max_len

    @pytest.mark.parametrize("max_len", [0, -3, 13])
    def test_max_len_outside_model_rejected(self, model, images, max_len):
        with pytest.raises(InfusionError,
                           match=rf"max_len must lie in 1\.\.12, got {max_len}"):
            forward(model, images, prior=1.0, max_len=max_len)

    def test_latent_shape(self, model, images):
        result = forward(model, images, prior=1.0)
        assert result.latent.shape == (NUM_PATCHES, LATENT_DIM)

    def test_no_new_weights_between_modes(self, model, images):
        before = model.parameter_count()
        forward(model, images, prior=1.0)
        forward(model, images, prior=None)
        assert model.parameter_count() == before == 6496


class TestGradients:
    def test_analytic_matches_finite_differences(self, model, images):
        report = grad_check(model, images, prior=1.0)
        assert report.max_rel_error < 1e-4

    def test_prior_gradient_included(self, model, images):
        report = grad_check(model, images, prior=1.0)
        assert report.prior_analytic != 0.0
        rel = abs(report.prior_analytic - report.prior_fd) / \
            max(abs(report.prior_analytic), abs(report.prior_fd), 1e-6)
        assert rel < 1e-4

    def test_zeroed_model_has_constant_loss_in_prior(self, images):
        zeroed = ToyModel()
        for array in zeroed.params.values():
            array[...] = 0.0
        report = grad_check(zeroed, images, prior=1.0)
        assert abs(report.prior_analytic) < 1e-8
        assert abs(report.prior_fd) < 1e-8

    def test_probe_fits_the_decoder(self):
        assert 1 <= len(PROBE) <= MAX_LEN
        assert all(0 <= token < VOCAB_SIZE for token in PROBE)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           prior=st.one_of(st.sampled_from([0.0, 1.0, -0.5]),
                           st.floats(-3.0, 3.0)),
           step=st.sampled_from([1e-3, 1e-4, 1e-5]),
           sample_seed=st.integers(0, 1000))
    @example(seed=17, prior=0.0, step=1e-4, sample_seed=0)
    @example(seed=3, prior=-0.5, step=1e-4, sample_seed=0)
    def test_grad_check_equals_reference(self, seed, prior, step,
                                         sample_seed):
        model = ToyModel(seed)
        images = demo_image_pair(seed)
        report = grad_check(model, images, prior, step=step,
                            sample_seed=sample_seed)
        expected = reference_grad_check(model, images, prior, step=step,
                                        sample_seed=sample_seed)
        for field in dataclasses.fields(report):
            assert getattr(report, field.name) == \
                getattr(expected, field.name), field.name

    def test_grad_check_runs_one_backward_pass(self, model, images,
                                               monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return teacher_forced_loss(*args, **kwargs)

        monkeypatch.setattr(infusion, "teacher_forced_loss", counted)
        grad_check(model, images, prior=1.0)
        assert calls == [1.0]

    def test_loss_is_finite_scalar(self, model, images):
        loss, grads, _ = teacher_forced_loss(model, images, prior=1.0)
        assert np.isfinite(loss)
        assert set(grads) == set(model.params)
