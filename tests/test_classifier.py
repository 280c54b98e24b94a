import numpy as np
import pytest

from flowgate.classifier import (
    ClassifierConfig, ClassifierModel, classifier_from_checkpoint,
    train_classifier,
)
from flowgate.errors import EmptyClass, ShapeMismatch


def separable_clusters(rng, n_normal=300, n_pseudo=150, dim=70, offset=5.0):
    normals = rng.standard_normal((n_normal, dim)) - offset
    pseudo = rng.standard_normal((n_pseudo, dim)) + offset
    return normals, pseudo


def test_zero_weights_scores_half():
    model = ClassifierModel.create(ClassifierConfig(), seed=0)
    for p in model.params:
        p.data = np.zeros_like(p.data)
    z = np.random.default_rng(0).standard_normal((1, 70))
    assert model.score(z)[0] == 0.5


def test_score_bounded_and_deterministic():
    model = ClassifierModel.create(ClassifierConfig(), seed=1)
    z = np.random.default_rng(1).standard_normal((50, 70)) * 3.0
    s = model.score(z)
    assert np.all((s > 0) & (s < 1))
    np.testing.assert_array_equal(s, model.score(z))


def test_score_shape_check():
    model = ClassifierModel.create(ClassifierConfig(), seed=2)
    with pytest.raises(ShapeMismatch):
        model.score(np.zeros((1, 69)))


def test_separable_toy_training():
    rng = np.random.default_rng(4)
    normals, pseudo = separable_clusters(rng)
    cfg = ClassifierConfig(epochs=50, batch_size=32)
    ckpt = train_classifier(normals, pseudo, cfg, seed=5)
    model = classifier_from_checkpoint(ckpt)
    s_norm = model.score(normals)
    s_pseudo = model.score(pseudo)
    assert np.median(s_pseudo) > 0.9
    assert np.median(s_norm) < 0.1
    preds = np.concatenate([s_norm >= 0.5, s_pseudo >= 0.5])
    truth = np.concatenate([np.zeros(len(normals)), np.ones(len(pseudo))])
    accuracy = float(np.mean(preds == truth))
    assert accuracy >= 0.99


def test_training_deterministic():
    rng = np.random.default_rng(6)
    normals, pseudo = separable_clusters(rng, 60, 30, dim=8)
    cfg = ClassifierConfig(widths=(8, 6, 1), epochs=5)
    a = train_classifier(normals, pseudo, cfg, seed=7)
    b = train_classifier(normals, pseudo, cfg, seed=7)
    for name in a.tensors:
        np.testing.assert_array_equal(a.tensors[name], b.tensors[name])


def test_empty_class_rejected():
    rng = np.random.default_rng(8)
    normals, pseudo = separable_clusters(rng, 10, 5, dim=8)
    cfg = ClassifierConfig(widths=(8, 6, 1))
    with pytest.raises(EmptyClass):
        train_classifier(np.zeros((0, 8)), pseudo, cfg, seed=0)
    with pytest.raises(EmptyClass):
        train_classifier(normals, np.zeros((0, 8)), cfg, seed=0)


def test_default_architecture():
    model = ClassifierModel.create(ClassifierConfig(), seed=9)
    assert model.net.widths == [70, 64, 32, 1]
    assert model.input_dim == 70
