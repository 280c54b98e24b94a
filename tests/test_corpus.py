import numpy as np
import pytest

from flowgate.corpus import make_synthetic_corpus
from flowgate.dataset import values_matrix
from flowgate.errors import BadConfig
from flowgate.packets import Label


def test_empty_corpus():
    normals, anomalies = make_synthetic_corpus(seed=0, n_normal=0, n_anomaly=0)
    assert normals == [] and anomalies == []


@pytest.mark.parametrize("n_normal, n_anomaly", [(-1, 0), (0, -3)])
def test_negative_count_is_a_config_error(n_normal, n_anomaly):
    with pytest.raises(BadConfig, match="non-negative"):
        make_synthetic_corpus(seed=0, n_normal=n_normal, n_anomaly=n_anomaly)


def test_counts_and_labels():
    normals, anomalies = make_synthetic_corpus(seed=1, n_normal=50, n_anomaly=30)
    assert len(normals) == 50 and len(anomalies) == 30
    assert all(p.label is Label.NORMAL for p in normals)
    assert all(p.label is Label.ANOMALY for p in anomalies)


def test_rows_satisfy_encoded_invariants():
    normals, anomalies = make_synthetic_corpus(seed=2, n_normal=40, n_anomaly=40)
    for p in normals + anomalies:
        assert p.values.shape == (1600,)
        assert p.values.min() >= 0.0 and p.values.max() <= 1.0
        scaled = p.values * 255.0
        assert np.abs(scaled - np.rint(scaled)).max() <= 1e-9


def test_classes_have_learnable_mean_gap():
    normals, anomalies = make_synthetic_corpus(seed=3, n_normal=300, n_anomaly=300)
    mean_normal = values_matrix(normals).mean()
    mean_anomaly = values_matrix(anomalies).mean()
    assert abs(mean_anomaly - mean_normal) > 0.05


def test_classes_overlap_somewhere():
    # separable but not trivially so: per-packet means of the two classes overlap
    normals, anomalies = make_synthetic_corpus(seed=4, n_normal=300, n_anomaly=300)
    per_normal = values_matrix(normals).mean(axis=1)
    per_anomaly = values_matrix(anomalies).mean(axis=1)
    assert per_normal.max() > per_anomaly.min()


def test_deterministic_per_seed():
    a_n, a_a = make_synthetic_corpus(seed=5, n_normal=20, n_anomaly=20)
    b_n, b_a = make_synthetic_corpus(seed=5, n_normal=20, n_anomaly=20)
    np.testing.assert_array_equal(values_matrix(a_n), values_matrix(b_n))
    np.testing.assert_array_equal(values_matrix(a_a), values_matrix(b_a))


def test_anonymized_addresses():
    normals, _ = make_synthetic_corpus(seed=6, n_normal=10, n_anomaly=0)
    for p in normals:
        # IP addresses live at bytes 12..19 of the 60-byte IP slot
        np.testing.assert_array_equal(p.values[12:20], np.zeros(8))
