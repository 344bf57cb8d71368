"""Tests for repro.gnn.e2e (Figure 3)."""

import pytest

from repro.errors import ConfigurationError
from repro.gnn.e2e import EndToEndModel, StageBreakdown


@pytest.fixture
def model():
    return EndToEndModel()


class TestBreakdown:
    def test_training_sampling_dominates(self, model):
        """Figure 3: sampling takes ~64% of training time."""
        breakdown = model.breakdown(training=True)
        assert 0.55 < breakdown.sampling_fraction < 0.75

    def test_inference_sampling_dominates_more(self, model):
        """Figure 3: sampling takes ~88% of inference time."""
        breakdown = model.breakdown(training=False)
        assert 0.78 < breakdown.sampling_fraction < 0.95

    def test_inference_heavier_share_than_training(self, model):
        assert (
            model.breakdown(False).sampling_fraction
            > model.breakdown(True).sampling_fraction
        )

    def test_fractions_sum_to_one(self, model):
        breakdown = model.breakdown(True)
        assert breakdown.sampling_fraction + breakdown.nn_fraction == pytest.approx(1.0)

    def test_training_slower_than_inference(self, model):
        assert model.breakdown(True).total_s > model.breakdown(False).total_s

    def test_as_dict(self, model):
        d = model.breakdown(True).as_dict()
        assert set(d) == {"sampling", "embedding", "nn"}

    def test_storage_ratio_is_orders_of_magnitude(self, model):
        """Figure 3: graph storage dwarfs the NN model by >= 1e5."""
        assert model.storage_ratio() > 1e5

    def test_nn_model_is_megabytes(self, model):
        assert model.nn_model_bytes() < 10 * 1024 * 1024

    def test_more_workers_shrinks_sampling_share(self):
        few = EndToEndModel(worker_vcpus=60).breakdown(True)
        many = EndToEndModel(worker_vcpus=480).breakdown(True)
        assert many.sampling_fraction < few.sampling_fraction

    def test_faster_gpu_grows_sampling_share(self):
        slow = EndToEndModel(gpu_effective_tflops=0.5).breakdown(True)
        fast = EndToEndModel(gpu_effective_tflops=8.0).breakdown(True)
        assert fast.sampling_fraction > slow.sampling_fraction

    def test_negative_rate_increases_training_nn(self):
        lean = EndToEndModel(negative_rate=0)
        heavy = EndToEndModel(negative_rate=20)
        assert heavy.nn_time(True) > lean.nn_time(True)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EndToEndModel(batch_size=0)
        with pytest.raises(ConfigurationError):
            EndToEndModel(negative_rate=-1)


class TestStageBreakdown:
    def test_totals(self):
        breakdown = StageBreakdown(6.0, 1.0, 3.0)
        assert breakdown.total_s == 10.0
        assert breakdown.sampling_fraction == pytest.approx(0.6)
        assert breakdown.nn_fraction == pytest.approx(0.4)
