"""Pin the default configuration values the stages are specified to use."""
import numpy as np

from flowgate.classifier import ClassifierConfig
from flowgate.extractor import ExtractorConfig, FeatureExtractor
from flowgate.flow import FlowConfig
from flowgate.nn import AdamState, Tensor
from flowgate.pipeline import DEFAULT_NOISE_GRID, PipelineConfig
from flowgate.synthesis import SynthesisConfig


def test_extractor_defaults():
    cfg = ExtractorConfig()
    assert cfg.input_dim == 1600
    assert cfg.latent_dim == 70
    assert cfg.w_adv == 1.0
    assert cfg.w_rec == 50.0
    assert cfg.encoder_widths == (1600, 512, 128, 70)
    assert cfg.decoder_widths == (70, 128, 512, 1600)
    assert cfg.disc_widths == (1600, 256, 64, 1)
    assert cfg.epochs == 100
    assert cfg.batch_size == 64
    assert (cfg.lr, cfg.beta1, cfg.beta2) == (0.001, 0.5, 0.999)
    assert cfg.patience == 10


def test_extractor_latent_dim_is_70():
    model = FeatureExtractor.create(ExtractorConfig(), seed=0)
    z = model.encode(np.zeros((1, 1600)))
    assert z.shape == (1, 70)
    # discriminator feature tap is the 64-wide last hidden layer
    assert model.discriminator.layers[-1].n_in == 64


def test_flow_defaults():
    cfg = FlowConfig()
    assert cfg.dim == 70
    assert cfg.blocks == 8
    assert cfg.hidden == 128
    assert cfg.s_clamp == 2.0
    assert cfg.epochs == 100
    assert (cfg.lr, cfg.beta1, cfg.beta2) == (0.001, 0.5, 0.999)


def test_classifier_defaults():
    cfg = ClassifierConfig()
    assert cfg.widths == (70, 64, 32, 1)
    assert cfg.epochs == 100
    assert (cfg.lr, cfg.beta1, cfg.beta2) == (0.001, 0.5, 0.999)


def test_adam_defaults():
    state = AdamState([Tensor(np.zeros(3))])
    assert state.lr == 0.001
    assert state.beta1 == 0.5
    assert state.beta2 == 0.999
    assert state.eps == 1e-8
    assert state.step_count == 0


def test_synthesis_ratio_default_half():
    assert SynthesisConfig().ratio == 0.5


def test_noise_grid_default():
    assert DEFAULT_NOISE_GRID == ((-9.0, 5.0), (-25.0, 5.0), (-100.0, 5.0),
                                  (0.0, 1.0))


def test_pipeline_defaults_are_the_stage_defaults():
    cfg = PipelineConfig(workdir="w")
    assert cfg.extractor_config() == ExtractorConfig()
    assert cfg.flow_config() == FlowConfig()
    assert cfg.classifier_config() == ClassifierConfig()
    assert cfg.ratio == SynthesisConfig().ratio
